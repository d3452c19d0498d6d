package trace

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/kernels"
)

// readBlocks decodes a stored trace at the given block size, checking that
// no block exceeds it.
func readBlocks(t *testing.T, data []byte, blockSize int) (Header, []int, []int64, error) {
	t.Helper()
	rd, h, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return h, nil, nil, err
	}
	var sites []int
	var addrs []int64
	n, err := rd.Blocks(blockSize, func(bs []int32, ba []int64) {
		if blockSize > 0 && len(ba) > blockSize {
			t.Fatalf("block of %d accesses exceeds block size %d", len(ba), blockSize)
		}
		for i := range ba {
			sites = append(sites, int(bs[i]))
			addrs = append(addrs, ba[i])
		}
	})
	if err == nil && n != int64(len(addrs)) {
		t.Fatalf("Blocks counted %d records, emitted %d", n, len(addrs))
	}
	return h, sites, addrs, err
}

// writeTrace encodes the accesses, one site each, as a stored trace.
func writeTrace(t *testing.T, nSites int, addrSpace int64, sites []int32, addrs []int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, nSites, addrSpace)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteBlock(sites, addrs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceFileRoundTrip writes a generated trace and replays it at block
// sizes that split the stream mid-iteration and leave a partial last block.
func TestTraceFileRoundTrip(t *testing.T) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.MatmulEnv(16, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	wantSites, wantAddrs := collectBlocks(p, 0)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, len(p.Sites), p.Size)
	if err != nil {
		t.Fatal(err)
	}
	p.RunBlocks(5, w.WriteBlock)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != int64(len(wantAddrs)) {
		t.Fatalf("wrote %d records, want %d", w.Records(), len(wantAddrs))
	}
	// Delta encoding should compress well below 9 bytes/record.
	if avg := float64(buf.Len()) / float64(len(wantAddrs)); avg > 4 {
		t.Errorf("average %.1f bytes/record — delta encoding ineffective", avg)
	}

	for _, bs := range []int{0, 1, 7, 333, len(wantAddrs), len(wantAddrs) + 1} {
		h, gotSites, gotAddrs, err := readBlocks(t, buf.Bytes(), bs)
		if err != nil {
			t.Fatal(err)
		}
		if h.NSites != len(p.Sites) || h.AddrSpace != p.Size {
			t.Fatalf("header %+v", h)
		}
		if len(gotAddrs) != len(wantAddrs) {
			t.Fatalf("block %d: read %d records, want %d", bs, len(gotAddrs), len(wantAddrs))
		}
		for i := range wantAddrs {
			if gotAddrs[i] != wantAddrs[i] || gotSites[i] != wantSites[i] {
				t.Fatalf("block %d record %d: (%d,%d) want (%d,%d)",
					bs, i, gotSites[i], gotAddrs[i], wantSites[i], wantAddrs[i])
			}
		}
	}
}

// TestBlockBuffer checks how Reader.Blocks batches a replayed stream: ten
// accesses at block size 4 arrive in order as blocks of 4, 4 and a final
// partial 2, and an empty trace emits no block at all.
func TestBlockBuffer(t *testing.T) {
	sites := make([]int32, 10)
	addrs := make([]int64, 10)
	for i := range addrs {
		sites[i], addrs[i] = 1, int64(i)
	}
	for _, tc := range []struct {
		sites      []int32
		addrs      []int64
		wantBlocks []int
	}{
		{sites, addrs, []int{4, 4, 2}},
		{nil, nil, nil},
	} {
		rd, _, err := NewReader(bytes.NewReader(writeTrace(t, 2, 10, tc.sites, tc.addrs)))
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		var blocks []int
		n, err := rd.Blocks(4, func(bs []int32, ba []int64) {
			blocks = append(blocks, len(ba))
			for i := range ba {
				if bs[i] != 1 {
					t.Fatalf("site %d want 1", bs[i])
				}
				got = append(got, ba[i])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(tc.addrs)) || !slices.Equal(blocks, tc.wantBlocks) {
			t.Fatalf("%d records in blocks %v, want %d in %v", n, blocks, len(tc.addrs), tc.wantBlocks)
		}
		if !slices.Equal(got, tc.addrs) {
			t.Fatalf("addrs %v want %v", got, tc.addrs)
		}
	}
}

func TestTraceFileErrors(t *testing.T) {
	// Bad magic.
	if _, _, _, err := readBlocks(t, []byte("NOPE"), 0); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream (no sentinel).
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteBlock([]int32{0}, []int64{5})
	_ = w.w.Flush() // flush without sentinel
	if _, _, _, err := readBlocks(t, buf.Bytes(), 0); err == nil {
		t.Error("truncated stream accepted")
	}
	// Out-of-range site on write.
	w2, err := NewWriter(&bytes.Buffer{}, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	w2.WriteBlock([]int32{5}, []int64{0})
	if err := w2.Close(); err == nil {
		t.Error("out-of-range site accepted")
	}
	// Out-of-range address on read: a trace claiming a 2-element address
	// space whose second record jumps to 5.
	data := writeTrace(t, 1, 8, []int32{0, 0}, []int64{1, 5})
	data[len("RTRC")+2] = 2
	if _, _, _, err := readBlocks(t, data, 0); err == nil {
		t.Error("out-of-range address accepted on read")
	}
	// Corrupt headers, each ending in the sentinel of a one-site trace: an
	// empty address space, one past int64, and more sites than int32 ids.
	for name, data := range map[string][]byte{
		"address space 0":     []byte("RTRC\x01\x01\x00\x01"),
		"address space 2^63":  []byte("RTRC\x01\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x01"),
		"site count 2^31":     []byte("RTRC\x01\x80\x80\x80\x80\x08\x01\x80\x80\x80\x80\x08"),
		"site count 2^64 - 1": []byte("RTRC\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x01"),
	} {
		if _, _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
}

func TestTraceFileEmptyTrace(t *testing.T) {
	h, _, addrs, err := readBlocks(t, writeTrace(t, 3, 10, nil, nil), 0)
	if err != nil || len(addrs) != 0 || h.NSites != 3 {
		t.Fatalf("h=%+v n=%d err=%v", h, len(addrs), err)
	}
}

func TestTraceFileLargeAddrJumps(t *testing.T) {
	const space = int64(1) << 40
	addrs := []int64{0, space - 1, 1, space / 2}
	_, _, got, err := readBlocks(t, writeTrace(t, 1, space, make([]int32, len(addrs)), addrs), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d: %d want %d", i, got[i], addrs[i])
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to the reader. Every input must end
// in an error or in blocks whose sites are below the header's site count
// and whose addresses fall inside its address space; nothing is sized from
// the header, so a corrupt one cannot ask for memory.
func FuzzReadTrace(f *testing.F) {
	fixture, err := os.ReadFile("testdata/matmul_n8.trace")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture, 7)
	f.Add(fixture[:len(fixture)/2], 0)
	f.Add([]byte("RTRC\x01\x01\x00\x01"), 1)
	f.Add([]byte("RTRC\x01\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x01"), 1)
	f.Add([]byte("RTRC\x01\x80\x80\x80\x80\x08\x01\x80\x80\x80\x80\x08"), 1)
	f.Fuzz(func(t *testing.T, data []byte, blockSize int) {
		if blockSize > 1<<10 || blockSize < 0 {
			blockSize = 1 << 10
		}
		rd, h, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.NSites < 0 || h.NSites > math.MaxInt32 || h.AddrSpace <= 0 {
			t.Fatalf("accepted header %+v", h)
		}
		var seen int64
		n, err := rd.Blocks(blockSize, func(sites []int32, addrs []int64) {
			for i, a := range addrs {
				if int(sites[i]) >= h.NSites || sites[i] < 0 || a < 0 || a >= h.AddrSpace {
					t.Fatalf("record (site %d, addr %d) outside header %+v", sites[i], a, h)
				}
			}
			seen += int64(len(addrs))
		})
		if err == nil && n != seen {
			t.Fatalf("counted %d records, emitted %d", n, seen)
		}
	})
}
