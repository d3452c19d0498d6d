package service

import (
	"bytes"
	"context"
	"net/http"

	"repro/internal/obs"
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
	w      http.ResponseWriter
	fl     http.Flusher
	flush  *obs.Timer
	failed bool
}

func startNDJSON(w http.ResponseWriter, flush *obs.Timer) ndjsonWriter {
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return ndjsonWriter{w: w, fl: fl, flush: flush}
}

// write writes one whole line and flushes it, timing each flush on the
// flush timer (a replica's "service.stream.flush"). The explicit flush
// points are what make the stream incremental: without them the records
// would sit in the server's write buffer until the response ended.
func (nw *ndjsonWriter) write(line []byte) {
	if nw.failed {
		return
	}
	if _, err := nw.w.Write(line); err != nil {
		nw.failed = true
		return
	}
	if nw.fl != nil {
		sw := nw.flush.Start()
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
	nw := startNDJSON(w, s.streamFlush)
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

// streamBatch writes n batch records as NDJSON: one line per record in
// request order, each written and flushed whole as its result lands, then
// the summary trailer. A request timeout mid-stream turns the remaining
// items into per-item 504 records — the stream still ends with a
// well-formed trailer, never a truncated line. A failed client write stops
// output but every item is still counted.
func streamBatch(nw *ndjsonWriter, sc *batchScratch, n int, rec batchRecord) (ok, errs int) {
	for i := 0; i < n; i++ {
		var good bool
		sc.rec, good = rec(sc.rec[:0], i)
		if good {
			ok++
		} else {
			errs++
		}
		sc.rec = append(sc.rec, '\n')
		nw.write(sc.rec)
	}
	sc.rec = appendBatchSummary(append(sc.rec[:0], `{"summary":`...), n, ok, errs)
	sc.rec = append(sc.rec, '}', '\n')
	nw.write(sc.rec)
	return ok, errs
}
