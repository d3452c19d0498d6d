package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary trace format. Traces can be written once and replayed through any
// of the simulators (or external tools) without regenerating them:
//
//	header:  magic "RTRC" | version u8 | nSites uvarint | addrSpace uvarint
//	records: site uvarint | addrDelta zigzag-varint   (delta vs previous addr)
//	footer:  site == nSites sentinel record terminates the stream
//
// Delta encoding exploits the spatial regularity of loop traces; typical
// records are 2–3 bytes.

const traceMagic = "RTRC"
const traceVersion = 1

// Writer streams a trace to an io.Writer in the binary format.
type Writer struct {
	w        *bufio.Writer
	nSites   int
	prevAddr int64
	records  int64
	buf      [2 * binary.MaxVarintLen64]byte
	err      error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer, nSites int, addrSpace int64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(nSites))
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	n = binary.PutUvarint(buf[:], uint64(addrSpace))
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, nSites: nSites}, nil
}

// WriteBlock records one block of accesses; it has the EmitBlock signature
// so it can be passed directly to Program.RunBlocks or Reader.Blocks.
func (t *Writer) WriteBlock(sites []int32, addrs []int64) {
	if t.err != nil {
		return
	}
	for i, addr := range addrs {
		site := sites[i]
		if site < 0 || int(site) >= t.nSites {
			t.err = fmt.Errorf("trace: site %d out of range [0,%d)", site, t.nSites)
			return
		}
		n := binary.PutUvarint(t.buf[:], uint64(site))
		n += binary.PutVarint(t.buf[n:], addr-t.prevAddr)
		if _, t.err = t.w.Write(t.buf[:n]); t.err != nil {
			return
		}
		t.prevAddr = addr
		t.records++
	}
}

// Close writes the terminating sentinel and flushes. It returns the first
// error encountered during writing.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	n := binary.PutUvarint(t.buf[:], uint64(t.nSites))
	if _, err := t.w.Write(t.buf[:n]); err != nil {
		return err
	}
	return t.w.Flush()
}

// Records returns the number of accesses written.
func (t *Writer) Records() int64 { return t.records }

// Header describes a stored trace.
type Header struct {
	NSites    int
	AddrSpace int64
}

// Reader decodes a stored trace: NewReader reads its header, Blocks its
// records.
type Reader struct {
	br *bufio.Reader
	h  Header
}

// NewReader reads and checks the header of a stored trace. A site count
// that does not fit the int32 site ids of a block, or an address space that
// is not a positive int64, is rejected here, before a caller sizes anything
// from them.
func NewReader(r io.Reader) (*Reader, Header, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, Header{}, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, Header{}, fmt.Errorf("trace: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, Header{}, err
	}
	if ver != traceVersion {
		return nil, Header{}, fmt.Errorf("trace: unsupported version %d", ver)
	}
	nSites, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, Header{}, err
	}
	addrSpace, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, Header{}, err
	}
	if nSites > math.MaxInt32 {
		return nil, Header{}, fmt.Errorf("trace: site count %d exceeds %d", nSites, math.MaxInt32)
	}
	if addrSpace == 0 || addrSpace > math.MaxInt64 {
		return nil, Header{}, fmt.Errorf("trace: address space %d is not a positive int64", addrSpace)
	}
	h := Header{NSites: int(nSites), AddrSpace: int64(addrSpace)}
	return &Reader{br: br, h: h}, h, nil
}

// Blocks decodes the records in order, handing them to emit in blocks of
// at most blockSize accesses (<= 0 selects DefaultBlockSize), and returns
// the record count. Every emitted site is below the header's NSites and
// every address inside [0, AddrSpace): a record that breaks either, or a
// stream that ends before its sentinel, stops decoding with an error, and
// the records of the unfinished block are not emitted. The buffers are
// sized by blockSize alone, never by the header.
func (t *Reader) Blocks(blockSize int, emit EmitBlock) (int64, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	sites := make([]int32, blockSize)
	addrs := make([]int64, blockSize)
	nSites := uint64(t.h.NSites)
	var count, addr int64
	n := 0
	for {
		site, err := binary.ReadUvarint(t.br)
		if err != nil {
			return count, fmt.Errorf("trace: truncated stream after %d records: %w", count, err)
		}
		if site == nSites {
			break // sentinel
		}
		if site > nSites {
			return count, fmt.Errorf("trace: corrupt site %d", site)
		}
		delta, err := binary.ReadVarint(t.br)
		if err != nil {
			return count, fmt.Errorf("trace: truncated record %d: %w", count, err)
		}
		addr += delta
		if addr < 0 || addr >= t.h.AddrSpace {
			return count, fmt.Errorf("trace: corrupt address %d at record %d", addr, count)
		}
		sites[n], addrs[n] = int32(site), addr
		n++
		count++
		if n == blockSize {
			emit(sites, addrs)
			n = 0
		}
	}
	if n > 0 {
		emit(sites[:n], addrs[:n])
	}
	return count, nil
}
