package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"
)

// handleSession serves a streaming decision session: full-duplex NDJSON over
// one HTTP request. The client POSTs an unbounded chunked body and writes one
// DecideRequest JSON value per line; the server answers each with one
// DecideResponse line, flushed immediately. A link thus holds a single
// connection for its whole hopping session — no per-slot HTTP setup, routing
// or header parsing — while its decisions still flow through the per-model
// micro-batcher and batch up with every other client's.
//
// Recoverable request errors (wrong dimensions, empty batch) come back as
// {"error": ...} lines and the session continues; a malformed JSON stream
// ends the session after one final error line, and client EOF ends it
// cleanly. Sessions are exempt from the decide body cap: the stream is
// unbounded by design, and each line still has to parse into a DecideRequest
// the dimension checks accept.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request, m *Model) {
	if s.draining() {
		s.failModel(m, w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		s.failModel(m, w, http.StatusInternalServerError, err)
		return
	}
	m.stats.Sessions.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}

	// A drain must unblock the pending read so http.Server.Shutdown can
	// finish; expiring the read deadline does that without tearing the
	// connection down mid-write.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.drainCh:
			rc.SetReadDeadline(time.Now())
		case <-done:
		}
	}()

	dec := json.NewDecoder(r.Body)
	enc := json.NewEncoder(w)
	sc := s.scratch.Get().(*reqScratch)
	defer s.scratch.Put(sc)
	var req DecideRequest
	for {
		// Reset rather than reallocate: json.Decode reuses State's backing
		// array across lines, and absent fields must not inherit the
		// previous line's values. Reuse is safe because decide() returns
		// only after the state has been copied into the session's scratch.
		req.State = req.State[:0]
		req.States = req.States[:0]
		req.QValues = false
		if err := dec.Decode(&req); err != nil {
			if err != io.EOF && !s.draining() {
				// Framing is broken (syntax error or truncated value):
				// answer once and end the session.
				enc.Encode(&DecideResponse{Error: "decode request: " + err.Error()})
				rc.Flush()
				m.stats.Errors.Add(1)
			}
			return
		}
		start := time.Now()
		resp := &sc.resp
		if _, err := s.decide(m, &req, sc); err != nil {
			m.stats.Errors.Add(1)
			resp = &DecideResponse{Error: err.Error()}
		} else {
			m.stats.Latency.ObserveDuration(time.Since(start))
			m.stats.SessionDecisions.Add(1)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
	}
}
