package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"cfgtag"
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

// httpStatus maps core errors onto HTTP statuses.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, cfgtag.ErrOverloaded), errors.Is(err, cfgtag.ErrResourceExhausted):
		// Load shedding and budget exhaustion are both transient
		// server-side pressure: the client should back off and retry.
		return http.StatusTooManyRequests
	case errors.Is(err, cfgtag.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, cfgtag.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining), errors.Is(err, cfgtag.ErrPlatformClosed),
		errors.Is(err, cfgtag.ErrPipelineClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDuplicateStream):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
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
	sess, err := s.OpenStream(tenant, key, bo)
	if err != nil {
		httpError(w, err)
		return
	}
	core := s.Core()
	sent := false
	buf := make([]byte, 32<<10)
	for {
		n, rerr := r.Body.Read(buf)
		if n > 0 {
			if serr := core.Send(tenant, key, buf[:n]); serr != nil {
				h.failStream(s, tenant, key, sent, serr)
				if errors.Is(serr, cfgtag.ErrStreamQuarantined) {
					// The fault batch already ended the stream; return
					// what it wrote.
					w.WriteHeader(http.StatusOK)
					w.Write(bo.Bytes())
					return
				}
				s.CountRefusal()
				httpError(w, serr)
				return
			}
			sent = true
		}
		if rerr != nil {
			if rerr != io.EOF {
				// Client aborted mid-body: flush the partial stream,
				// nobody is left to read the response.
				h.failStream(s, tenant, key, sent, rerr)
				return
			}
			break
		}
	}
	if cerr := core.CloseStream(tenant, key); cerr != nil {
		if !errors.Is(cerr, cfgtag.ErrStreamQuarantined) {
			s.EndStream(tenant, key)
			httpError(w, cerr)
			return
		}
	}
	// Hold the response until the EOS batch lands; server shutdown
	// force-flushes through Core.Close, so this wait always terminates.
	<-sess.Done()
	w.WriteHeader(http.StatusOK)
	w.Write(bo.Bytes())
}

// failStream releases a stream whose body pump failed: mid-life streams
// are flushed through the core so the pipeline does not leak them, and
// the session is unregistered either way.
func (h *HTTPInput) failStream(s *Server, tenant, key string, sent bool, err error) {
	if sent && !errors.Is(err, cfgtag.ErrStreamQuarantined) {
		s.Core().CloseStream(tenant, key)
	}
	s.EndStream(tenant, key)
}
