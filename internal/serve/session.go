package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// {"error": ...} lines and the session continues; a line that is not one
// JSON value, or is longer than Config.MaxBody, ends the session after one
// final error line, and client EOF ends it cleanly. The stream is unbounded
// by design, but a line is read only up to the cap, so a session's line
// buffer holds at most MaxBody+1 bytes however long the line it is sent.
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

	// The buffer holds a line of MaxBody bytes with its newline and grows
	// no further, so a longer line fails with bufio.ErrTooLong.
	lines := bufio.NewScanner(r.Body)
	lines.Buffer(nil, int(s.cfg.MaxBody)+1)
	enc := json.NewEncoder(w)
	sc := s.scratch.Get().(*reqScratch)
	defer s.scratch.Put(sc)
	var req DecideRequest
	for {
		// Reset rather than reallocate: json.Unmarshal reuses State's
		// backing array across lines, and absent fields must not inherit
		// the previous line's values. Reuse is safe because decide()
		// returns only after the state has been copied into the session's
		// scratch.
		req.State = req.State[:0]
		req.States = req.States[:0]
		req.QValues = false
		line, err := s.nextLine(lines)
		if err == nil {
			err = json.Unmarshal(line, &req)
		}
		if err != nil {
			if err != io.EOF && !s.draining() {
				// Framing is broken (an over-long line, a syntax error or
				// a truncated value): answer once and end the session.
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

// nextLine returns the next line of lines that is not blank, without its
// surrounding space, and io.EOF after the last one.
func (s *Server) nextLine(lines *bufio.Scanner) ([]byte, error) {
	for lines.Scan() {
		if line := bytes.TrimSpace(lines.Bytes()); len(line) > 0 {
			return line, nil
		}
	}
	switch err := lines.Err(); err {
	case nil:
		return nil, io.EOF
	case bufio.ErrTooLong:
		return nil, fmt.Errorf("request line exceeds %d bytes", s.cfg.MaxBody)
	default:
		return nil, err
	}
}
