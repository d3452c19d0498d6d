package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/loopir"
)

// inlineTwoIndexSource is the two-index kernel's canonical source, the
// nest an inline request sends as text.
func inlineTwoIndexSource(tb testing.TB) string {
	tb.Helper()
	nest, _, err := experiments.BuildKernel("twoindex", 64, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return loopir.Unparse(nest)
}

// candidatesBody32 is a 32-row /v1/batch candidates sweep over the tiled
// matmul on a 4-way, 2-element-line cache.
func candidatesBody32() string {
	var sets []string
	for i := 0; i < 32; i++ {
		sets = append(sets, fmt.Sprintf("[%d,%d,%d]", 1<<(i%6), 1<<((i/6)%6), 2+i))
	}
	return `{"candidates":{"kernel":"matmul","n":256,"tiles":[16,16,16],"cacheElems":8192,"ways":4,"line":2,` +
		`"dims":["TI","TJ","TK"],"sets":[` + strings.Join(sets, ",") + `]}}`
}

// planShapes is one body per point-cold request shape: a kernel predict of
// each kind, an inline predict, a 32-row candidates batch and an analytic
// simulate.
func planShapes(tb testing.TB) []struct{ name, path, body string } {
	inline, err := json.Marshal(map[string]any{
		"nest":       inlineTwoIndexSource(tb),
		"env":        map[string]int64{"N": 128, "V": 64, "TI": 16, "TJ": 16, "TM": 16, "TN": 16},
		"cacheElems": 4096,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return []struct{ name, path, body string }{
		{"predict/matmul", predictPath, `{"kernel":"matmul","n":256,"tiles":[16,32,8],"cacheElems":4096}`},
		{"predict/matmul-naive", predictPath, `{"kernel":"matmul-naive","n":256,"cacheElems":4096}`},
		{"predict/twoindex", predictPath, `{"kernel":"twoindex","n":128,"tiles":[64,16,16,64],"cacheElems":4096,"ways":2,"line":4}`},
		{"predict/twoindexchain", predictPath, `{"kernel":"twoindexchain","n":128,"cacheElems":4096}`},
		{"predict/fourindex", predictPath, `{"kernel":"fourindex","n":64,"cacheElems":4096,"detail":true}`},
		{"predict/ccsd", predictPath, `{"kernel":"ccsd","n":32,"cacheElems":4096}`},
		{"predict/inline-twoindex", predictPath, string(inline)},
		{"batch/candidates-32", batchPath, candidatesBody32()},
		{"simulate/analytic-matmul", "/v1/simulate", `{"kernel":"matmul","n":256,"tiles":[16,16,16],"watches":[1024,4096],"engine":"analytic"}`},
	}
}

// planBody plans one body the way the service does before the response
// cache: a single route through its endpoint, a batch through ExpandBatch.
func planBody(path string, body []byte) error {
	if path == batchPath {
		_, err := ExpandBatch(body, 256)
		return err
	}
	_, _, err := parseRequest(path, body)
	return err
}

// BenchmarkPlan times planning one cold request of each point-cold shape:
// decode, nest resolution, canonicalization and key packing, without the
// plan memo and without computing the answer.
func BenchmarkPlan(b *testing.B) {
	for _, sh := range planShapes(b) {
		body := []byte(sh.body)
		if err := planBody(sh.path, body); err != nil {
			b.Fatalf("%s: %v", sh.name, err)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := planBody(sh.path, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// oracleRows renders the candidate rows of a candidates form the former
// way, kept as the oracle of the appended rows: per row, the base env
// copied and overlaid with the row's values, the PredictRequest marshaled
// through the response encoder, and predictKey packed from the row's spec.
// A row that is not valid gets its error instead.
func oracleRows(t *testing.T, c *BatchCandidates) []BatchItemSpec {
	t.Helper()
	spec, _, cfg, err := c.resolveModel()
	if err != nil {
		t.Fatal(err)
	}
	var out []BatchItemSpec
	for _, set := range c.Sets {
		if len(set) != len(c.Dims) {
			out = append(out, BatchItemSpec{Path: predictPath, Err: fmt.Errorf("%w: candidate has %d values for %d dims", errBadRequest, len(set), len(c.Dims))})
			continue
		}
		env := make(map[string]int64, len(spec.Env))
		for k, v := range spec.Env {
			env[k] = v
		}
		var bad error
		for j, v := range set {
			if v < 1 {
				bad = fmt.Errorf("%w: tile size must be >= 1, got %s=%d", errBadRequest, c.Dims[j], v)
				break
			}
			env[c.Dims[j]] = v
		}
		if bad != nil {
			out = append(out, BatchItemSpec{Path: predictPath, Err: bad})
			continue
		}
		rowSpec := &loopir.Spec{Nest: spec.Nest, Env: env}
		body, err := marshal(PredictRequest{
			ModelRequest: ModelRequest{
				NestRequest: NestRequest{Nest: rowSpec.Nest, Env: rowSpec.Env},
				CacheElems:  cfg.CapacityElems,
				Ways:        c.Ways,
				Line:        c.Line,
			},
			Detail: c.Detail,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, BatchItemSpec{
			Path: predictPath,
			Body: bytes.TrimSuffix(body, []byte{'\n'}),
			Key:  predictKey(rowSpec, cfg, c.Detail),
		})
	}
	return out
}

// candidateBodies covers the candidates form: kernels and inline nests,
// fully associative and ways with and without line, detail on and off, env
// overlays (junk bindings included), explicit items before the rows, a
// kernel without tile symbols, non-ASCII symbol names, and invalid rows
// mixed in.
func candidateBodies(t *testing.T) []string {
	t.Helper()
	inline := func(src string, env map[string]int64, rest string) string {
		data, err := json.Marshal(map[string]any{"nest": src, "env": env})
		if err != nil {
			t.Fatal(err)
		}
		return `{"candidates":{` + string(data[1:len(data)-1]) + `,` + rest + `}}`
	}
	twoIndex := inlineTwoIndexSource(t)
	return []string{
		candidatesBody32(),
		`{"candidates":{"kernel":"matmul","n":64,"cacheElems":1000,"dims":["TK","TI"],"sets":[[2,4],[0,4],[8],[1,1],[4,-2],[64,64,64],[16,32]]}}`,
		`{"candidates":{"kernel":"twoindex","n":128,"env":{"NJ":96,"X":5},"cacheKB":8,"ways":2,"line":4,"detail":true,"dims":["TN","TI","TM"],"sets":[[4,8,16],[16,16,16],[1,2,3]]}}`,
		`{"candidates":{"kernel":"ccsd","n":32,"tiles":[4,4,2,2,4,4],"cacheElems":2048,"ways":8,"detail":true,"dims":["TA","TB","TI","TJ","TC","TD"],"sets":[[2,2,2,2,2,2],[8,8,4,4,8,8]]}}`,
		`{"candidates":{"kernel":"fourindex","n":32,"cacheElems":512,"ways":1,"line":1,"dims":["N"],"sets":[[16],[32],[0],[64]]}}`,
		`{"candidates":{"kernel":"matmul-naive","n":32,"cacheElems":512,"dims":["N"],"sets":[[8],[9]]}}`,
		`{"items":[{"path":"/v1/predict","request":{"kernel":"matmul","n":16,"cacheKB":4}},{"path":"/v1/bogus","request":{}}],` +
			`"candidates":{"kernel":"twoindexchain","n":32,"cacheElems":300,"dims":["V","N"],"sets":[[8,16],[16,32]]}}`,
		inline(twoIndex, map[string]int64{"N": 128, "V": 64, "TI": 16, "TJ": 16, "TM": 16, "TN": 16, "Junk": 1}, `"cacheElems":4096,"dims":["TJ","TN"],"sets":[[2,4],[4,2],[8,8],[0,1]]`),
		inline(twoIndex, map[string]int64{"N": 64, "V": 32, "TI": 8, "TJ": 8, "TM": 8, "TN": 8}, `"cacheElems":4096,"ways":4,"detail":true,"dims":["TI"],"sets":[[2],[4],[16]]`),
		inline("nest uni\narray Aõ[Nõ]\nfor iõ = Nõ {\n  S0: Aõ[iõ] += Aõ[iõ]\n}\n", map[string]int64{"Nõ": 9}, `"cacheElems":4,"dims":["Nõ"],"sets":[[3],[5]]`),
	}
}

// TestCandidateRowsMatchOracle: every appended candidate row carries the
// former construction's body and key, its key is what the router derives
// from its body, and every invalid row its error.
func TestCandidateRowsMatchOracle(t *testing.T) {
	for _, body := range candidateBodies(t) {
		exp, err := ExpandBatch([]byte(body), 256)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var req BatchRequest
		if err := decodeInto([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		want := oracleRows(t, req.Candidates)
		got := exp.Items[len(req.Items):]
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, oracle %d", body, len(got), len(want))
		}
		for i, row := range got {
			if fmt.Sprint(row.Err) != fmt.Sprint(want[i].Err) || row.Path != want[i].Path {
				t.Fatalf("%s row %d: error %v, oracle %v", body, i, row.Err, want[i].Err)
			}
			if row.Err != nil {
				continue
			}
			if !bytes.Equal(row.Body, want[i].Body) {
				t.Fatalf("%s row %d: body\n%s\noracle\n%s", body, i, row.Body, want[i].Body)
			}
			if row.Key != want[i].Key {
				t.Fatalf("%s row %d: key %q, oracle %q", body, i, row.Key, want[i].Key)
			}
			if key, err := CanonicalKeyForRequest(predictPath, row.Body); err != nil || key != row.Key {
				t.Fatalf("%s row %d: body keys %q (%v), row keys %q", body, i, key, err, row.Key)
			}
		}
	}
}

// TestPlanAllocs bounds the objects planning allocates: a kernel
// /v1/predict body of every kind, which reads its kind's one nest, and a
// 32-row candidates batch per row, whose rows append their values to
// per-batch prefixes.
func TestPlanAllocs(t *testing.T) {
	for _, sh := range planShapes(t) {
		body := []byte(sh.body)
		allocs := testing.AllocsPerRun(50, func() {
			if err := planBody(sh.path, body); err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case sh.path == predictPath && strings.Contains(sh.body, `"kernel"`):
			if allocs > 40 {
				t.Errorf("%s: %.0f objects, want at most 40", sh.name, allocs)
			}
		case sh.path == batchPath:
			if perRow := allocs / 32; perRow > 16 {
				t.Errorf("%s: %.1f objects per row, want at most 16", sh.name, perRow)
			}
		}
		t.Logf("%s: %.0f objects", sh.name, allocs)
	}
}

// TestConcurrentKernelPlanning plans kernel bodies of every kind from
// several goroutines at once, then once more alone: every key equals the
// lone plan's. Run by itself under -race it also checks the first build of
// each kind's shared nest and of its text.
func TestConcurrentKernelPlanning(t *testing.T) {
	var bodies []struct{ path, body string }
	for _, kind := range []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"} {
		for _, n := range []int{16, 48} {
			bodies = append(bodies,
				struct{ path, body string }{predictPath, fmt.Sprintf(`{"kernel":%q,"n":%d,"cacheElems":256,"detail":true}`, kind, n)},
				struct{ path, body string }{"/v1/simulate", fmt.Sprintf(`{"kernel":%q,"n":%d,"watches":[64],"engine":"analytic"}`, kind, n)},
				struct{ path, body string }{"/v1/analyze", fmt.Sprintf(`{"kernel":%q,"n":%d}`, kind, n)},
			)
		}
	}
	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, b := range bodies {
				key, _, err := parseRequest(b.path, []byte(b.body))
				if err != nil {
					t.Errorf("%s: %v", b.body, err)
				}
				got[w] = append(got[w], key)
			}
		}(w)
	}
	wg.Wait()
	for i, b := range bodies {
		want, _, err := parseRequest(b.path, []byte(b.body))
		if err != nil {
			t.Fatalf("%s: %v", b.body, err)
		}
		for w := range got {
			if i < len(got[w]) && got[w][i] != want {
				t.Errorf("%s: worker %d keyed %q, alone %q", b.body, w, got[w][i], want)
			}
		}
	}
}

// dupLabelNest names one statement label twice. Every per-site answer
// keys a site by its label, so a request with this nest is a 400.
const dupLabelNest = `"nest":"nest dup\narray A[N]\narray B[N]\n` +
	`for k = K { for i = N { S1: A[i] += B[i] } for j = N { S1: B[j] += A[j] } }\n","env":{"K":3,"N":16}`

// TestDuplicateLabelsRejected: the nest answers 400 on every route that
// takes one, before anything is computed.
func TestDuplicateLabelsRejected(t *testing.T) {
	svc, _ := newTestService(t)
	for path, body := range map[string]string{
		"/v1/analyze":  `{` + dupLabelNest + `}`,
		predictPath:    `{` + dupLabelNest + `,"cacheElems":64,"detail":true}`,
		"/v1/simulate": `{` + dupLabelNest + `,"watches":[8,64]}`,
	} {
		_, err := svc.Compute(context.Background(), path, []byte(body))
		if err == nil || statusOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "duplicate statement label S1") {
			t.Errorf("%s: Compute err = %v, want a 400 naming the label", path, err)
		}
		if w := post(t, svc.Handler(), path, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", path, w.Code, w.Body.String())
		}
	}
}
