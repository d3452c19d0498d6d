package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/loopir"
	"repro/internal/obs"
)

// BatchRequest is the /v1/batch body: many computations in one request.
// Items carries heterogeneous single-endpoint requests verbatim;
// Candidates is the amortized form — one spec compiled once, many tile
// assignments predicted against it. The two forms compose: candidate rows
// are appended after the explicit items, and every entry is addressed by
// its zero-based position in that combined order.
type BatchRequest struct {
	Items      []BatchItem      `json:"items,omitempty"`
	Candidates *BatchCandidates `json:"candidates,omitempty"`
}

// BatchItem is one explicit batch entry: an endpoint path plus the exact
// body the endpoint would have received on its own. The response bytes are
// byte-identical to the single-request response, which is also why the
// item shares the single request's cache entry.
type BatchItem struct {
	Path    string          `json:"path"`
	Request json.RawMessage `json:"request"`
}

// BatchCandidates is the many-tile-candidates-per-spec form: the base
// problem (nest or kernel, capacity, optional set-associative geometry) is
// resolved and canonicalized once, then each row of Sets binds the Dims
// symbols on top of the base environment and predicts misses — the same
// computation as a /v1/predict per candidate, minus the per-request parse,
// canonicalization and key-packing tax.
type BatchCandidates struct {
	ModelRequest
	Detail bool `json:"detail,omitempty"`
	// Dims names the tile symbols each row binds, in row order; every name
	// must be a symbol of the resolved nest.
	Dims []string `json:"dims"`
	// Sets is one tile assignment per row, len(Dims) values each, all >= 1.
	Sets [][]int64 `json:"sets"`
}

// itemPlan is one planned batch entry: its response-cache key and
// computation, or the planning error that will become its item record.
// The batch-plan memo keeps these rather than the expansion's items, whose
// bodies only the cluster router needs.
type itemPlan struct {
	key     string
	compute computeFn
	err     error
}

// batchPlan is a fully planned batch body. err is the batch-level error
// (malformed envelope, over-cap item count, invalid candidates header) that
// fails the whole request; item-level problems land in the items instead
// and the batch proceeds around them.
type batchPlan struct {
	items []itemPlan
	err   error
}

// BatchItemSpec is one expanded batch entry in combined (items-then-
// candidate-rows) order: the single-endpoint request it is equivalent to,
// its canonical cache/shard key, or the planning error that will become its
// item record. For explicit items Body is the request verbatim; for
// candidate rows it is a synthesized /v1/predict body over the canonical
// nest that plans to the same key and the same response bytes — which is
// what lets the cluster router re-route each row to the replica owning its
// key and still assemble a byte-identical envelope.
type BatchItemSpec struct {
	Path string
	Body []byte
	Key  string
	Err  error

	compute computeFn
}

// BatchExpansion is a decoded, per-item-planned /v1/batch body.
type BatchExpansion struct {
	Items []BatchItemSpec
}

// ExpandBatch decodes a /v1/batch body into its combined item list.
// Batch-level problems (malformed envelope, no items, an item count above
// maxItems — the latter wrapped in ErrOverload — or an invalid candidates
// header) are returned as the error; per-item problems land in the items.
// Deterministic, like every plan: the same body always yields the same
// keys, bodies and errors, which is what makes the result memoizable by
// body bytes and makes router-side and service-side batch views agree.
func ExpandBatch(body []byte, maxItems int) (*BatchExpansion, error) {
	var req BatchRequest
	if err := decodeInto(body, &req); err != nil {
		return nil, err
	}
	n := len(req.Items)
	if req.Candidates != nil {
		n += len(req.Candidates.Sets)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: batch needs items or candidates", errBadRequest)
	}
	if n > maxItems {
		return nil, fmt.Errorf("%w: batch of %d items exceeds cap %d", ErrOverload, n, maxItems)
	}
	exp := &BatchExpansion{Items: make([]BatchItemSpec, 0, n)}
	for _, it := range req.Items {
		spec := BatchItemSpec{Path: it.Path}
		if ep, ok := endpoints[it.Path]; ok {
			spec.Body = it.Request
			spec.Key, spec.compute, spec.Err = ep.plan(it.Request)
		} else {
			spec.Err = fmt.Errorf("%w: path %q is not batchable", errBadRequest, it.Path)
		}
		exp.Items = append(exp.Items, spec)
	}
	if req.Candidates != nil {
		if err := expandCandidates(exp, req.Candidates); err != nil {
			return nil, err
		}
	}
	return exp, nil
}

// expandCandidates expands the candidates form into per-row predict plans.
// Header problems (bad spec, bad capacity, bad dims) are batch-level
// errors — nothing sensible can be computed per row — while a malformed
// individual row only fails that row's item.
func expandCandidates(exp *BatchExpansion, c *BatchCandidates) error {
	spec, nest, cfg, err := c.resolveModel()
	if err != nil {
		return err
	}
	if len(c.Dims) == 0 {
		return fmt.Errorf("%w: candidates need dims", errBadRequest)
	}
	symbols := map[string]bool{}
	for _, name := range nest.SymbolNames() {
		symbols[name] = true
	}
	seen := map[string]bool{}
	for _, d := range c.Dims {
		if !symbols[d] {
			return fmt.Errorf("%w: dim %q is not a symbol of nest %s", errBadRequest, d, nest.Name)
		}
		if seen[d] {
			return fmt.Errorf("%w: duplicate dim %q", errBadRequest, d)
		}
		seen[d] = true
	}
	for _, set := range c.Sets {
		if len(set) != len(c.Dims) {
			exp.Items = append(exp.Items, BatchItemSpec{
				Path: predictPath,
				Err:  fmt.Errorf("%w: candidate has %d values for %d dims", errBadRequest, len(set), len(c.Dims)),
			})
			continue
		}
		env := make(map[string]int64, len(spec.Env))
		for k, v := range spec.Env {
			env[k] = v
		}
		bad := false
		for j, v := range set {
			if v < 1 {
				exp.Items = append(exp.Items, BatchItemSpec{
					Path: predictPath,
					Err:  fmt.Errorf("%w: tile size must be >= 1, got %s=%d", errBadRequest, c.Dims[j], v),
				})
				bad = true
				break
			}
			env[c.Dims[j]] = v
		}
		if bad {
			continue
		}
		// The overridden symbols are nest symbols, so the spec stays
		// canonical by construction and its predict key is byte-identical
		// to the equivalent single /v1/predict — candidate rows and single
		// requests share cache entries. The synthesized body inlines the
		// canonical nest with the row's environment and copies the header's
		// capacity/geometry/detail fields, so a replica planning it lands on
		// the same key and computes the same bytes as this row.
		rowSpec := &loopir.Spec{Nest: spec.Nest, Env: env}
		rowBody, merr := marshal(PredictRequest{
			ModelRequest: ModelRequest{
				NestRequest: NestRequest{Nest: rowSpec.Nest, Env: rowSpec.Env},
				CacheElems:  cfg.CapacityElems,
				Ways:        c.Ways,
				Line:        c.Line,
			},
			Detail: c.Detail,
		})
		if merr != nil {
			exp.Items = append(exp.Items, BatchItemSpec{Path: predictPath, Err: merr})
			continue
		}
		exp.Items = append(exp.Items, BatchItemSpec{
			Path: predictPath,
			Body: bytes.TrimSuffix(rowBody, []byte{'\n'}),
			Key:  predictKey(rowSpec, cfg, c.Detail),
			compute: func(s *Service, ctx context.Context, _ func(any)) ([]byte, error) {
				return s.computePredict(ctx, rowSpec, cfg, c.Detail)
			},
		})
	}
	return nil
}

// serveBatch serves /v1/batch: the planned batch is admitted atomically,
// then answered through writeBatch. Per-item outcomes are counted on
// service.batch.items{,.ok,.errors}; the request itself counts once, like
// every other route.
func (s *Service) serveBatch(w http.ResponseWriter, r *http.Request, body []byte) error {
	plan := s.planBatch(body)
	if plan.err != nil {
		return plan.err
	}
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	if err := s.batchRun(plan, sc, hedged(r)); err != nil {
		return err
	}
	s.batchItems.Add(int64(len(plan.items)))
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	ok, errs, err := writeBatch(w, r, s.streamFlush, sc, len(plan.items), plan.records(func(i int) ([]byte, error) {
		return entryResult(ctx, sc.entries[i])
	}))
	s.batchItemsOK.Add(int64(ok))
	s.batchItemsErr.Add(int64(errs))
	return err
}

// WriteBatch answers a /v1/batch request from its expansion and the item
// records replicas rendered — records[i] and oks[i] for every item without
// a planning error, already numbered i — rendering the planning errors
// itself: the bytes one replica serves for the same body. The cluster
// router answers split batches through it.
func WriteBatch(w http.ResponseWriter, r *http.Request, exp *BatchExpansion, records [][]byte, oks []bool) error {
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	_, _, err := writeBatch(w, r, nil, sc, len(exp.Items), func(dst []byte, i int) ([]byte, bool) {
		if err := exp.Items[i].Err; err != nil {
			return appendItemRecord(dst, i, nil, err), false
		}
		return append(dst, records[i]...), oks[i]
	})
	return err
}

// batchRecord appends item i's record to dst and reports whether the item
// succeeded; both batch framings pull their records through one.
type batchRecord func(dst []byte, i int) ([]byte, bool)

// records renders the plan's items as batch records: a planning error as
// its error record, every other item from get.
func (plan *batchPlan) records(get func(i int) ([]byte, error)) batchRecord {
	return func(dst []byte, i int) ([]byte, bool) {
		var data []byte
		err := plan.items[i].err
		if err == nil {
			data, err = get(i)
		}
		return appendItemRecord(dst, i, data, err), err == nil
	}
}

// writeBatch answers a batch of n records as a 200: the aggregated
// envelope, or with ?stream=1 its NDJSON framing, flushes timed on flush.
// Partial success is a 200: the records carry the per-item taxonomy
// (status per failed item) and the summary the counts, which it returns
// with errStreamFailed once a stream's client stopped reading.
func writeBatch(w http.ResponseWriter, r *http.Request, flush *obs.Timer, sc *batchScratch, n int, rec batchRecord) (ok, errs int, err error) {
	if r.URL.Query().Get("stream") == "1" {
		nw := startNDJSON(w, flush)
		ok, errs = streamBatch(&nw, sc, n, rec)
		if nw.failed {
			err = errStreamFailed
		}
		return ok, errs, err
	}
	ok, errs = renderBatchEnvelope(sc, n, rec)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out.Bytes())
	return ok, errs, nil
}

// batchScratch is the pooled per-request working set of the batch path:
// entry slices, the record scratch and the envelope buffer all reuse their
// previous capacity, which is what keeps the warm per-item cost at the
// cache probe plus the record append.
type batchScratch struct {
	entries []*flightEntry[[]byte]
	leaders []*flightEntry[[]byte]
	tasks   []func()
	rec     []byte
	out     bytes.Buffer
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

func putBatchScratch(sc *batchScratch) {
	sc.entries = sc.entries[:0]
	sc.leaders = sc.leaders[:0]
	sc.tasks = sc.tasks[:0]
	batchScratchPool.Put(sc)
}

// batchRun acquires the response-cache entry for every valid item and
// schedules the leader computations as one atomic pool submission: either
// every needed task is enqueued or none is and the whole batch is rejected
// with ErrOverload (429) — a partially enqueued batch would bill the
// client for work it cannot get answers from. Cache-complete and coalesced
// items need no pool slot, so a warm batch schedules nothing. A hedged
// batch leads only transient entries (see HedgeHeader).
func (s *Service) batchRun(plan *batchPlan, sc *batchScratch, hedged bool) error {
	sc.entries = sc.entries[:0]
	sc.leaders = sc.leaders[:0]
	sc.tasks = sc.tasks[:0]
	for i := range plan.items {
		it := &plan.items[i]
		if it.err != nil {
			sc.entries = append(sc.entries, nil)
			continue
		}
		e, leader := s.resp.acquire(it.key)
		sc.entries = append(sc.entries, e)
		if leader {
			e.transient = hedged
			sc.leaders = append(sc.leaders, e)
			sc.tasks = append(sc.tasks, s.leaderTask(e, it.compute))
		}
	}
	if len(sc.tasks) > 0 && !s.pool.trySubmitBatch(sc.tasks) {
		// Complete the leader entries so coalesced waiters (and later
		// retries of these keys) see the overload instead of hanging.
		for _, e := range sc.leaders {
			s.resp.complete(e, nil, ErrOverload)
		}
		return ErrOverload
	}
	return nil
}

// entryResult waits for a cache entry's result under ctx. The fast path —
// a completed entry, i.e. every cache-hot item — never touches ctx.
func entryResult(ctx context.Context, e *flightEntry[[]byte]) ([]byte, error) {
	select {
	case <-e.done:
		return e.val, e.err
	default:
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// appendItemRecord renders one per-item batch record into dst:
//
//	{"item":I,"ok":true,"response":<response JSON>}
//	{"item":I,"ok":false,"status":S,"error":"..."}
//
// The embedded response is the single-endpoint response body verbatim
// (minus its trailing newline), so batch items stay byte-comparable to
// direct Service.Compute results; status is the HTTP status the same
// request would have received on its own endpoint.
func appendItemRecord(dst []byte, idx int, data []byte, err error) []byte {
	dst = append(dst, `{"item":`...)
	dst = strconv.AppendInt(dst, int64(idx), 10)
	if err == nil {
		dst = append(dst, `,"ok":true,"response":`...)
		dst = append(dst, bytes.TrimSuffix(data, []byte{'\n'})...)
	} else {
		dst = append(dst, `,"ok":false,"status":`...)
		dst = strconv.AppendInt(dst, int64(statusOf(err)), 10)
		dst = append(dst, `,"error":`...)
		msg, merr := json.Marshal(err.Error())
		if merr != nil {
			msg = []byte(`"error"`)
		}
		dst = append(dst, msg...)
	}
	return append(dst, '}')
}

// appendBatchSummary renders the terminal summary object.
func appendBatchSummary(dst []byte, items, ok, errs int) []byte {
	dst = append(dst, `{"items":`...)
	dst = strconv.AppendInt(dst, int64(items), 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendInt(dst, int64(ok), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(errs), 10)
	return append(dst, '}')
}

// renderBatchEnvelope builds the aggregated (non-streaming) batch response
// of n records into sc.out. Item order is request order regardless of
// completion order, so the envelope is deterministic at any worker count:
//
//	{"items":[<record>,...],"summary":{"items":N,"ok":K,"errors":E}}
func renderBatchEnvelope(sc *batchScratch, n int, rec batchRecord) (ok, errs int) {
	sc.out.Reset()
	sc.out.WriteString(`{"items":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sc.out.WriteByte(',')
		}
		var good bool
		sc.rec, good = rec(sc.rec[:0], i)
		sc.out.Write(sc.rec)
		if good {
			ok++
		} else {
			errs++
		}
	}
	sc.out.WriteString(`],"summary":`)
	sc.rec = appendBatchSummary(sc.rec[:0], n, ok, errs)
	sc.out.Write(sc.rec)
	sc.out.WriteString("}\n")
	return ok, errs
}

// computeBatchDirect is Service.Compute's /v1/batch path: every item is
// computed inline and sequentially — no cache, no pool, no admission —
// and the envelope bytes are exactly what the HTTP handler serves on a
// 200, which is what the load generator's byte verification compares
// against.
func (s *Service) computeBatchDirect(ctx context.Context, body []byte) ([]byte, error) {
	plan := s.planBatch(body)
	if plan.err != nil {
		return nil, plan.err
	}
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	renderBatchEnvelope(sc, len(plan.items), plan.records(func(i int) ([]byte, error) {
		return plan.items[i].compute(s, ctx, nil)
	}))
	return append([]byte(nil), sc.out.Bytes()...), nil
}
