package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cfgtag"
)

// TestErrTextOverload pins the wire-level reason strings for the overload
// error taxonomy: CFGTAG/1 clients key their backoff behaviour on these
// exact words, so they are part of the protocol surface.
func TestErrTextOverload(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{cfgtag.ErrOverloaded, "overloaded"},
		{fmt.Errorf("shard 3: %w", cfgtag.ErrOverloaded), "overloaded"},
		{cfgtag.ErrResourceExhausted, "resource exhausted"},
		{fmt.Errorf("chart budget: %w", cfgtag.ErrResourceExhausted), "resource exhausted"},
		{cfgtag.ErrQuotaExceeded, "quota exceeded"},
		{cfgtag.ErrUnknownTenant, "unknown tenant"},
		{ErrDraining, "draining"},
		{ErrDuplicateStream, "duplicate stream"},
		{fmt.Errorf("send: %w", cfgtag.ErrStreamQuarantined), "quarantined"},
		{errors.New("mystery"), "error"},
	}
	for _, c := range cases {
		if got := errText(c.err); got != c.want {
			t.Errorf("errText(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestHTTPStatusOverload pins the HTTP mapping: shed and budget-tripped
// streams are transient server pressure (429), not client mistakes.
func TestHTTPStatusOverload(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{cfgtag.ErrOverloaded, http.StatusTooManyRequests},
		{fmt.Errorf("send: %w", cfgtag.ErrOverloaded), http.StatusTooManyRequests},
		{cfgtag.ErrResourceExhausted, http.StatusTooManyRequests},
		{cfgtag.ErrQuotaExceeded, http.StatusTooManyRequests},
		{cfgtag.ErrUnknownTenant, http.StatusNotFound},
		{ErrDraining, http.StatusServiceUnavailable},
		{ErrDuplicateStream, http.StatusConflict},
		{fmt.Errorf("send: %w", cfgtag.ErrStreamQuarantined), http.StatusConflict},
		{errors.New("mystery"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := httpStatus(c.err); got != c.want {
			t.Errorf("httpStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestHTTPErrorRetryAfter checks that every 429 carries Retry-After —
// shed clients should back off, not hammer the queue they overflowed —
// and that non-429 responses do not.
func TestHTTPErrorRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	httpError(rec, fmt.Errorf("send: %w", cfgtag.ErrOverloaded))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}

	rec = httptest.NewRecorder()
	httpError(rec, cfgtag.ErrUnknownTenant)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("Retry-After on 404 = %q, want unset", got)
	}

	// A quarantined key is refused for good until its TTL runs out:
	// retrying sooner cannot help, so 409 carries no Retry-After.
	rec = httptest.NewRecorder()
	httpError(rec, cfgtag.ErrStreamQuarantined)
	if rec.Code != http.StatusConflict {
		t.Fatalf("status = %d, want 409", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("Retry-After on 409 = %q, want unset", got)
	}
}

// TestConnWriterSlowConsumer drives a connWriter against a pipe nobody
// reads: the first write must miss its deadline and come back wrapping
// ErrSlowConsumer (counted once through onSlow), and every later write
// must fail fast on the sticky error without waiting out the deadline or
// recounting the consumer.
func TestConnWriterSlowConsumer(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	slow := 0
	cw := &connWriter{c: server, timeout: 20 * time.Millisecond, onSlow: func() { slow++ }}

	if _, err := cw.Write([]byte("TAG 1 0 a b\n")); !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("first write err = %v, want ErrSlowConsumer", err)
	}
	if slow != 1 {
		t.Fatalf("onSlow fired %d times, want 1", slow)
	}

	start := time.Now()
	if _, err := cw.Write([]byte("END 1\n")); !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("sticky write err = %v, want ErrSlowConsumer", err)
	}
	if waited := time.Since(start); waited > 10*time.Millisecond {
		t.Errorf("sticky write waited %v, want fail-fast", waited)
	}
	if slow != 1 {
		t.Errorf("onSlow fired %d times after sticky write, want still 1", slow)
	}
}

// fakeStats is a canned Stats source for rendering tests.
type fakeStats struct {
	tenant string
	faults cfgtag.FaultStats
}

func (f *fakeStats) Tenants() []string { return []string{f.tenant} }
func (f *fakeStats) Metrics(string) (cfgtag.BackendCounters, int, error) {
	return cfgtag.BackendCounters{}, 0, nil
}
func (f *fakeStats) Faults(string) (cfgtag.FaultStats, error) { return f.faults, nil }
func (f *fakeStats) LiveVersions(string) ([]int, error)       { return []int{1}, nil }

// TestMetricsTextOverloadCounters checks that every overload counter is
// rendered per tenant: operators alert on these lines, so their names
// and label shape are load-bearing.
func TestMetricsTextOverloadCounters(t *testing.T) {
	s := NewServer()
	s.SetStats(&fakeStats{tenant: "acme", faults: cfgtag.FaultStats{
		SendsShed:         3,
		WatchdogTrips:     2,
		ResourceExhausted: 4,
	}})
	s.CountSlowConsumer()
	text := s.MetricsText()
	for _, want := range []string{
		"serve_slow_consumers_total 1",
		`cfgtag_sends_shed_total{tenant="acme"} 3`,
		`cfgtag_watchdog_trips_total{tenant="acme"} 2`,
		`cfgtag_resource_exhausted_total{tenant="acme"} 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
