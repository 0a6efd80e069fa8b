package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/core"
	"mcbound/internal/job"
	"mcbound/internal/peer"
)

// Streaming defaults; Options override all of them.
const (
	// DefaultStreamBatch is the NDJSON ingest group size: records are
	// accumulated and committed through the store (one WAL group commit
	// per batch under a durable store) before each ack frame.
	DefaultStreamBatch = 256
	// DefaultSSEBuffer sizes both the resume ring and each
	// subscriber's channel.
	DefaultSSEBuffer = 1024
	// DefaultSSEHeartbeat is the idle keep-alive comment period on
	// prediction streams.
	DefaultSSEHeartbeat = 15 * time.Second
	// maxStreamLineBytes caps one NDJSON record; the stream itself is
	// exempt from the global body cap (it is long-lived by design).
	maxStreamLineBytes = 1 << 20
)

// streamCtxKey carries stream-scoped values through the request
// context: the per-chunk deadline and the admission ticket (so the
// handler can feed per-chunk service times to the limiter).
type streamCtxKey int

const (
	chunkTimeoutKey streamCtxKey = iota
	streamTicketKey
)

// guardStream is the admission middleware for long-lived routes. It
// differs from guard in exactly the ways ISSUE'd the short-request
// assumptions break: the request context carries no overall deadline
// (a stream legitimately outlives any per-request budget, and a
// deadline here would feed doomed-request shedding), X-Request-Timeout
// is re-scoped to a *per-chunk* budget the handler applies around each
// batch, and the slot is admitted via AdmitStream so the connection
// lifetime never poisons the p95 service-time estimate.
func (s *Server) guardStream(pri admission.Priority, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		chunk, err := admission.ParseTimeout(
			r.Header.Get(admission.TimeoutHeader), s.routeDeadline(pri), s.maxDeadline)
		if err != nil {
			s.writeError(w, badRequest(err))
			return
		}
		tk, err := s.adm.AdmitStream(r.Context(), pri, clientKey(r))
		if err != nil {
			s.writeError(w, err)
			return
		}
		defer tk.Release()
		ctx := context.WithValue(r.Context(), chunkTimeoutKey, chunk)
		ctx = context.WithValue(ctx, streamTicketKey, tk)
		h(w, r.WithContext(ctx))
	}
}

func chunkTimeoutFrom(ctx context.Context) time.Duration {
	if d, ok := ctx.Value(chunkTimeoutKey).(time.Duration); ok {
		return d
	}
	return DefaultDeadline
}

func streamTicketFrom(ctx context.Context) *admission.Ticket {
	tk, _ := ctx.Value(streamTicketKey).(*admission.Ticket)
	return tk
}

// handleInsertStream is POST /v1/jobs/stream: NDJSON job records over
// a long-lived request, answered by an NDJSON frame stream. Records
// are validated one by one — an invalid record produces a typed error
// frame and the stream continues, instead of the batch endpoint's
// all-or-nothing rejection — and committed in groups through the same
// durable path as POST /v1/jobs, with an ack frame flushed after every
// group reaches the durability point.
func (s *Server) handleInsertStream(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// Ack frames interleave with body reads on one connection; without
	// full duplex the server closes the request body at the first
	// response write, truncating the stream after the first batch.
	_ = rc.EnableFullDuplex()
	// The stream outlives the server-wide write timeout by design;
	// per-chunk budgets bound the work instead. Ignore the errors: a
	// recorder-backed test writer has no deadline to clear.
	_ = rc.SetWriteDeadline(time.Time{})
	_ = rc.SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	writeFrame := func(f peer.StreamFrame) {
		if err := enc.Encode(f); err != nil {
			s.log.Printf("httpapi: stream frame write: %v", err)
		}
		_ = rc.Flush()
	}

	chunkBudget := chunkTimeoutFrom(r.Context())
	tk := streamTicketFrom(r.Context())
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLineBytes)

	var (
		batch    = make([]*job.Job, 0, s.streamBatch)
		seq      int
		acked    int
		rejected int
		line     int
	)
	commit := func() error {
		if len(batch) == 0 {
			return nil
		}
		t0 := time.Now()
		var err error
		if d := s.currentDurable(); d != nil {
			err = d.Insert(batch...)
		} else {
			err = s.store.Insert(batch...)
		}
		elapsed := time.Since(t0)
		if tk != nil {
			tk.ObserveChunk(elapsed)
		}
		if err != nil {
			// A store/WAL failure is not per-record: nothing in this
			// batch was acked, the client replays it on a new stream.
			_, code := errToStatus(err)
			writeFrame(peer.StreamFrame{Frame: "error", Line: line, Error: err.Error(), Code: code, Fatal: true})
			return err
		}
		if elapsed > chunkBudget {
			s.log.Printf("httpapi: stream batch %d exceeded chunk budget (%v > %v)", seq+1, elapsed, chunkBudget)
		}
		seq++
		acked += len(batch)
		s.metrics.insertedJobs.Add(int64(len(batch)))
		s.metrics.streamRecords.Add(int64(len(batch)))
		s.metrics.streamBatches.Inc()
		writeFrame(peer.StreamFrame{Frame: "ack", Seq: seq, Count: len(batch), Acked: acked})
		batch = batch[:0]
		return nil
	}

	for sc.Scan() {
		if err := r.Context().Err(); err != nil {
			return // client gone; nothing useful left to say
		}
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var j job.Job
		if err := job.Unmarshal(raw, &j); err != nil {
			rejected++
			s.metrics.streamRejected.Inc()
			_, code := errToStatus(badRequest(err))
			writeFrame(peer.StreamFrame{Frame: "error", Line: line, Error: fmt.Sprintf("bad record: %v", err), Code: code})
			continue
		}
		if err := j.Validate(); err != nil {
			rejected++
			s.metrics.streamRejected.Inc()
			_, code := errToStatus(err)
			writeFrame(peer.StreamFrame{Frame: "error", Line: line, Error: err.Error(), Code: code})
			continue
		}
		batch = append(batch, &j)
		if len(batch) >= s.streamBatch {
			if commit() != nil {
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		// Oversized record or transport failure: report what we can;
		// everything acked so far is durable.
		_, code := errToStatus(badRequest(err))
		writeFrame(peer.StreamFrame{Frame: "error", Line: line + 1, Error: err.Error(), Code: code, Fatal: true})
		writeFrame(peer.StreamFrame{Frame: "done", Acked: acked, Rejected: rejected, Batches: seq})
		return
	}
	if commit() != nil {
		return
	}
	writeFrame(peer.StreamFrame{Frame: "done", Acked: acked, Rejected: rejected, Batches: seq})
}

// handlePredictionStream is GET /v1/predictions/stream: every
// write-path classification (GET /v1/classify/{id}, POST /v1/classify)
// pushed as SSE events. Range reads do not feed the stream — a client
// polling GET /v1/classify?start=&end= never duplicates events for
// subscribers. Events carry dense IDs; reconnecting with Last-Event-ID
// (header or ?last_event_id=) resumes exactly where the client stopped
// while the resume ring still covers the gap, and otherwise delivers
// an explicit "reset" event so the client knows to re-sync via a
// cursor range read. Slow consumers are disconnected (see predHub).
func (s *Server) handlePredictionStream(w http.ResponseWriter, r *http.Request) {
	afterID, err := parseLastEventID(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	sub := s.hub.subscribe(afterID, s.sseBuffer)
	defer s.hub.unsubscribe(sub)

	tk := streamTicketFrom(r.Context())
	if sub.gap {
		fmt.Fprintf(w, "event: reset\ndata: {\"resumable\":false}\n\n")
	}
	_ = rc.Flush()

	heartbeat := time.NewTicker(s.sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				// Overflow disconnect: tell the client before closing
				// so it reconnects with its last ID.
				fmt.Fprintf(w, "event: overflow\ndata: {\"reconnect\":true}\n\n")
				_ = rc.Flush()
				return
			}
			t0 := time.Now()
			fmt.Fprintf(w, "id: %d\nevent: prediction\ndata: %s\n\n", ev.id, ev.data)
			if err := rc.Flush(); err != nil {
				return
			}
			if tk != nil {
				tk.ObserveChunk(time.Since(t0))
			}
		case <-heartbeat.C:
			fmt.Fprintf(w, ": keep-alive\n\n")
			if err := rc.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// parseLastEventID reads the SSE resume position from the standard
// header, falling back to ?last_event_id= (browsers cannot set headers
// on EventSource in every environment).
func parseLastEventID(r *http.Request) (uint64, error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	if v == "" {
		return 0, nil
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, badRequest(fmt.Errorf("bad Last-Event-ID %q: %w", v, err))
	}
	return id, nil
}

// publishPredictions renders the predictions of one request into one
// buffer laid out [e0,e1,…]\n — the response body, newline included —
// publishes the elements e_i to the SSE hub under one hub lock and
// returns the buffer, so subscribers get the very bytes the response is
// made of. The buffer is allocated per request, never pooled: the hub's
// resume ring keeps the element slices long after the response is sent.
func (s *Server) publishPredictions(preds []core.Prediction) []byte {
	// An upper bound unless an ID needs escaping; the elements are sliced
	// out after the last append, so a regrown buffer costs only the copy.
	size := len("[]\n")
	for i := range preds {
		size += len(`{"job_id":"","class":"","model_version":2147483647,"degraded":true},`) +
			len(preds[i].JobID) + len(preds[i].Class)
	}
	buf := append(make([]byte, 0, size), '[')
	ends := make([]int, len(preds))
	for i := range preds {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = preds[i].AppendJSON(buf)
		ends[i] = len(buf)
	}
	buf = append(buf, ']', '\n')
	events := make([][]byte, len(preds))
	start := len("[")
	for i, end := range ends {
		events[i] = buf[start:end:end]
		start = end + len(",")
	}
	s.hub.publish(events...)
	return buf
}
