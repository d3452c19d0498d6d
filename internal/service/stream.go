package service

import (
	"bytes"
	"context"
	"net/http"
)

// ndjsonContentType is the media type of every streamed response: one JSON
// record per line, each line written and flushed whole, so a reader never
// observes a truncated record — a stream that ends early still ends on a
// line boundary, and the terminal record is always a {"summary":...} line.
const ndjsonContentType = "application/x-ndjson"

// ndjsonWriter commits a 200 NDJSON response and writes its lines. After a
// failed write it drops the rest, so the caller can keep accounting for
// the work it streams.
type ndjsonWriter struct {
	s      *Service
	w      http.ResponseWriter
	fl     http.Flusher
	failed bool
}

func (s *Service) startNDJSON(w http.ResponseWriter) ndjsonWriter {
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return ndjsonWriter{s: s, w: w, fl: fl}
}

// write writes one whole line and flushes it, timing each flush
// ("service.stream.flush"). The explicit flush points are what make the
// stream incremental: without them the records would sit in the server's
// write buffer until the response ended.
func (nw *ndjsonWriter) write(line []byte) {
	if nw.failed {
		return
	}
	if _, err := nw.w.Write(line); err != nil {
		nw.failed = true
		return
	}
	if nw.fl != nil {
		sw := nw.s.streamFlush.Start()
		nw.fl.Flush()
		sw.Stop()
	}
}

// writeRecord marshals v into one line.
func (nw *ndjsonWriter) writeRecord(v any) {
	if line, err := marshal(v); err == nil {
		nw.write(line)
	}
}

// streamTrailer is the terminal record of a search stream: ok on a
// completed search, otherwise the same status/error taxonomy a
// non-streaming request would have answered as its HTTP status — the
// stream has already committed a 200, so the taxonomy moves into the
// trailer.
type streamTrailer struct {
	Summary streamSummary `json:"summary"`
}

type streamSummary struct {
	OK     bool   `json:"ok"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// serveSearchStream is the ?stream=1 form of both searches: a progress
// record per completed step (tile-search phases, scored plan variants) as
// the search runs, then a {"result":...} record carrying the exact bytes
// the plain endpoint serves, then the summary trailer. The search always
// runs fresh (streamed responses bypass the response cache — replaying
// cached bytes would fake the progress), with its computation context tied
// to the client connection so a disconnect cancels the search and frees
// its pool slot.
func (s *Service) serveSearchStream(w http.ResponseWriter, r *http.Request, compute computeFn) error {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// The progress callback is synchronous, so once the computation
	// returns nothing more is sent and the channel can close behind it.
	// The buffer lets the search run a few records ahead of a slow client.
	records := make(chan any, 8)
	var data []byte
	var cerr error
	if !s.pool.trySubmit(func() {
		defer close(records)
		data, cerr = compute(s, ctx, func(rec any) {
			select {
			case records <- rec:
			case <-ctx.Done():
			}
		})
	}) {
		return ErrOverload
	}
	nw := s.startNDJSON(w)
	for rec := range records {
		nw.writeRecord(rec)
	}
	if cerr != nil {
		nw.writeRecord(streamTrailer{Summary: streamSummary{Status: statusOf(cerr), Error: cerr.Error()}})
		return errStreamFailed
	}
	line := append([]byte(`{"result":`), bytes.TrimSuffix(data, []byte{'\n'})...)
	nw.write(append(line, '}', '\n'))
	nw.write([]byte(`{"summary":{"ok":true}}` + "\n"))
	if nw.failed {
		return errStreamFailed
	}
	return nil
}

// serveBatchStream writes the batch result as NDJSON: item records in
// request order as their results land, each line flushed whole, then the
// summary trailer. A request timeout mid-stream turns the remaining items
// into per-item 504 records — the stream still ends with a well-formed
// trailer, never a truncated line. A failed client write stops output but
// still accounts every item (leaders complete on the pool regardless).
func (s *Service) serveBatchStream(ctx context.Context, w http.ResponseWriter, plan *batchPlan, sc *batchScratch) error {
	nw := s.startNDJSON(w)
	ok, errs := 0, 0
	for i := range plan.items {
		it := &plan.items[i]
		var data []byte
		ierr := it.err
		if ierr == nil {
			data, ierr = entryResult(ctx, sc.entries[i])
		}
		if ierr == nil {
			ok++
		} else {
			errs++
		}
		sc.rec = append(appendItemRecord(sc.rec[:0], i, data, ierr), '\n')
		nw.write(sc.rec)
	}
	sc.rec = appendBatchSummary(append(sc.rec[:0], `{"summary":`...), len(plan.items), ok, errs)
	sc.rec = append(sc.rec, '}', '\n')
	nw.write(sc.rec)
	s.batchItemsOK.Add(int64(ok))
	s.batchItemsErr.Add(int64(errs))
	if nw.failed {
		return errStreamFailed
	}
	return nil
}
