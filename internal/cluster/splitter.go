package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"repro/internal/service"
)

// batchGroup is one replica's share of a split batch: the original combined
// indices it owns, the synthesized sub-batch body, and the candidate list
// (owner plus successors) to send it through.
type batchGroup struct {
	replica string
	indices []int
	body    []byte
	cands   []string
}

// serveBatch splits a /v1/batch request by item key: each expanded item
// (explicit items and candidate rows alike, via service.ExpandBatch — the
// same expansion the replicas run) goes to the replica owning its canonical
// key, the per-replica sub-batches fan out concurrently, and the item
// records come back spliced into one envelope in the original combined
// order — byte-identical to what a single backend would have served,
// because service.WriteBatch frames them and renders the planning errors
// exactly as a backend does.
func (rt *Router) serveBatch(w http.ResponseWriter, r *http.Request, body []byte) error {
	// Same batch-level taxonomy as the backend: an over-cap batch is
	// rejected whole with 429, anything else malformed is a 400.
	exp, err := service.ExpandBatch(body, rt.cfg.MaxBatchItems)
	if err != nil {
		return err
	}
	groups, err := rt.groupItems(exp)
	if err != nil {
		return rt.replicaError(err)
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()

	type groupResult struct {
		status int
		body   []byte
		ra     string // Retry-After of a relayed failure
		err    error
	}
	results := make([]groupResult, len(groups))
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			resp, done, err := rt.hedgedDo(ctx, "/v1/batch", "", groups[gi].body, groups[gi].cands)
			if err != nil {
				results[gi] = groupResult{err: err}
				return
			}
			defer done()
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				results[gi] = groupResult{err: rerr}
				return
			}
			results[gi] = groupResult{status: resp.StatusCode, body: b, ra: resp.Header.Get("Retry-After")}
		}(gi)
	}
	wg.Wait()

	// Splice sub-responses back into combined order. Any whole-group failure
	// fails the whole batch — the alternative (fabricating per-item error
	// records for one group) would make the envelope depend on routing, and
	// the envelope must be a pure function of the request.
	records := make([][]byte, len(exp.Items))
	oks := make([]bool, len(exp.Items))
	for gi := range groups {
		res, g := &results[gi], &groups[gi]
		if res.err != nil {
			return rt.replicaError(res.err)
		}
		if res.status != http.StatusOK {
			// Relay the replica's own failure verbatim (e.g. every candidate
			// overloaded → its 429 body and Retry-After).
			if res.ra != "" {
				w.Header().Set("Retry-After", res.ra)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.status)
			w.Write(res.body)
			return service.Relayed(res.status)
		}
		if err := spliceGroup(records, oks, g, res.body); err != nil {
			return service.StatusError(http.StatusBadGateway, err.Error())
		}
	}
	return service.WriteBatch(w, r, exp, records, oks)
}

// groupItems assigns every valid item to its owning replica (the first
// healthy successor of its key — during a replica's drain its keys land on
// the next successor, losslessly) and builds each group's sub-batch body.
// Items with planning errors are rendered locally and join no group. The
// error return means no replica is healthy at all.
func (rt *Router) groupItems(exp *service.BatchExpansion) ([]batchGroup, error) {
	byReplica := map[string]*batchGroup{}
	for i := range exp.Items {
		it := &exp.Items[i]
		if it.Err != nil {
			continue
		}
		cands := rt.candidates(it.Key)
		if len(cands) == 0 {
			return nil, errNoReplica
		}
		g, ok := byReplica[cands[0]]
		if !ok {
			g = &batchGroup{replica: cands[0], cands: cands}
			byReplica[g.replica] = g
		}
		g.indices = append(g.indices, i)
	}
	groups := make([]batchGroup, 0, len(byReplica))
	for _, g := range byReplica {
		groups = append(groups, *g)
	}
	// Deterministic group order so a multi-group failure relays a
	// deterministic replica's answer.
	sort.Slice(groups, func(a, b int) bool { return groups[a].replica < groups[b].replica })
	for gi := range groups {
		groups[gi].body = subBatchBody(exp, groups[gi].indices)
	}
	return groups, nil
}

// subBatchBody renders one group's items as an explicit-items /v1/batch
// body. Candidate rows travel as their synthesized single-predict bodies —
// ExpandBatch guarantees those plan to the row's exact key and bytes on the
// receiving replica.
func subBatchBody(exp *service.BatchExpansion, indices []int) []byte {
	var sb bytes.Buffer
	sb.WriteString(`{"items":[`)
	for j, idx := range indices {
		if j > 0 {
			sb.WriteByte(',')
		}
		it := &exp.Items[idx]
		sb.WriteString(`{"path":`)
		p, _ := json.Marshal(it.Path)
		sb.Write(p)
		sb.WriteString(`,"request":`)
		sb.Write(it.Body)
		sb.WriteByte('}')
	}
	sb.WriteString(`]}`)
	return sb.Bytes()
}

// spliceGroup distributes one sub-batch envelope's records back to their
// original combined indices, rewriting each record's leading item index.
// Everything after the index is relayed byte-for-byte.
func spliceGroup(records [][]byte, oks []bool, g *batchGroup, envelope []byte) error {
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return fmt.Errorf("cluster: replica %s sent a malformed batch envelope: %w", g.replica, err)
	}
	if len(env.Items) != len(g.indices) {
		return fmt.Errorf("cluster: replica %s answered %d records for %d items", g.replica, len(env.Items), len(g.indices))
	}
	for j, raw := range env.Items {
		idx := g.indices[j]
		rec, err := reindexRecord(raw, idx)
		if err != nil {
			return fmt.Errorf("cluster: replica %s: %w", g.replica, err)
		}
		records[idx] = rec
		var flag struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(raw, &flag); err != nil {
			return fmt.Errorf("cluster: replica %s sent a malformed item record: %w", g.replica, err)
		}
		oks[idx] = flag.OK
	}
	return nil
}

// recordPrefix is how every batch item record begins; reindexRecord relies
// on it (and the backend's appendItemRecord guarantees it).
const recordPrefix = `{"item":`

// reindexRecord rewrites a record's item index from the sub-batch's local
// numbering to the original combined index.
func reindexRecord(rec []byte, idx int) ([]byte, error) {
	if !bytes.HasPrefix(rec, []byte(recordPrefix)) {
		return nil, fmt.Errorf("item record %q lacks the item prefix", truncate(rec, 40))
	}
	j := len(recordPrefix)
	for j < len(rec) && rec[j] >= '0' && rec[j] <= '9' {
		j++
	}
	if j == len(recordPrefix) {
		return nil, fmt.Errorf("item record %q has no index", truncate(rec, 40))
	}
	out := make([]byte, 0, len(rec)+4)
	out = append(out, recordPrefix...)
	out = strconv.AppendInt(out, int64(idx), 10)
	out = append(out, rec[j:]...)
	return out, nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
