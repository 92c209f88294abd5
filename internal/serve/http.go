package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// HTTPInput serves three routes on one listener:
//
//	POST /v1/streams/<tenant>/<key>   request body = one keyed stream;
//	                                  response body = its tag events
//	GET  /metrics                     text key/value counters
//	GET  /healthz                     200 "ok" or 503 "draining"
//
// The chunked request body is fed into the core as it arrives; the
// response is held until the stream's EOS batch has been delivered, so
// admission failures (quota, unknown tenant) map to clean HTTP statuses
// instead of a torn body.
type HTTPInput struct {
	ln  net.Listener
	srv *http.Server
	s   *Server
}

// NewHTTPInput wraps an already-listening socket.
func NewHTTPInput(ln net.Listener) *HTTPInput {
	h := &HTTPInput{ln: ln}
	h.srv = &http.Server{Handler: h}
	return h
}

// Addr reports the listener address.
func (h *HTTPInput) Addr() net.Addr { return h.ln.Addr() }

// Serve runs the HTTP server until Close.
func (h *HTTPInput) Serve(s *Server) error {
	h.s = s
	err := h.srv.Serve(h.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Close shuts the HTTP server down, giving in-flight handlers (whose
// streams have already been flushed by the drain sequence) a moment to
// finish writing before forcing the sockets closed.
func (h *HTTPInput) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		return h.srv.Close()
	}
	return nil
}

// httpError writes err with its mapped status; 429 responses carry
// Retry-After so shed clients back off instead of hammering the shard
// queues they just overflowed.
func httpError(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), code)
}

func (h *HTTPInput) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.s
	switch {
	case r.URL.Path == "/healthz":
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	case r.URL.Path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, s.MetricsText())
	case strings.HasPrefix(r.URL.Path, "/v1/streams/"):
		h.serveStream(s, w, r)
	default:
		http.NotFound(w, r)
	}
}

func (h *HTTPInput) serveStream(s *Server, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/streams/")
	tenant, key, ok := strings.Cut(rest, "/")
	if !ok || !validName([]byte(tenant)) || !validName([]byte(key)) {
		http.Error(w, "want /v1/streams/<tenant>/<key>", http.StatusBadRequest)
		return
	}
	bo := &bufferOutput{}
	var ended sync.WaitGroup
	sess, err := s.OpenStream(tenant, key, "", nil, bo, &ended)
	if err == nil {
		err = s.pump(sess, r.Body)
	}
	s.letGo(sess)
	if err != nil {
		httpError(w, err)
		return
	}
	// Hold the response until the final batch lands; server shutdown
	// ends every session once the core is closed, so this wait always
	// terminates.
	ended.Wait()
	w.WriteHeader(http.StatusOK)
	w.Write(bo.data)
}
