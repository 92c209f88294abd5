package serve_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
)

// testGrammar is the figure 9 grammar; every serve test tenant compiles
// it with free-running start on the DFA backend, matching the oracle.
const testGrammar = cfgtag.IfThenElseSource

// testPayload is one conforming sentence; it tags deterministically.
const testPayload = "if true then go else stop"

// testEnv is one running server over a real Platform with TCP + HTTP
// listeners on loopback.
type testEnv struct {
	t        *testing.T
	srv      *serve.Server
	platform *cfgtag.Platform
	tcpAddr  string
	httpAddr string
}

// tenantSpec declares one test tenant.
type tenantSpec struct {
	name       string
	backend    string // execution path ("" = dfa)
	quota      cfgtag.QuotaConfig
	shards     int
	maxStreams int           // per-shard evicting cap
	quarantine time.Duration // faulted-stream rejection TTL (0 = default)
}

func startEnv(t *testing.T, wrap *cfgtag.PlatformConfig, tenants ...tenantSpec) *testEnv {
	t.Helper()
	cfg := wrap
	if cfg == nil {
		cfg = &cfgtag.PlatformConfig{}
	}
	if len(tenants) == 0 {
		tenants = []tenantSpec{{name: "alpha"}}
	}
	for _, ts := range tenants {
		shards := ts.shards
		if shards == 0 {
			shards = 2
		}
		backend := ts.backend
		if backend == "" {
			backend = "dfa"
		}
		cfg.Tenants = append(cfg.Tenants, cfgtag.TenantDef{
			Name:       ts.name,
			Grammar:    testGrammar,
			Options:    []string{"free-running-start"},
			Backend:    backend,
			Shards:     shards,
			Queue:      256,
			MaxStreams: ts.maxStreams,
			Quarantine: cfgtag.Duration(ts.quarantine),
			Quota:      ts.quota,
		})
	}
	srv := serve.NewServer()
	p, err := cfgtag.NewPlatform(cfg, srv.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	srv.Bind(p)
	srv.SetStats(p)
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.AddInput(serve.NewTCPInput(tln, serve.TCPOptions{}))
	srv.AddInput(serve.NewHTTPInput(hln))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	env := &testEnv{t: t, srv: srv, platform: p,
		tcpAddr: tln.Addr().String(), httpAddr: hln.Addr().String()}
	t.Cleanup(func() {
		if err := srv.Shutdown(10 * time.Second); err != nil &&
			!errors.Is(err, serve.ErrServerClosed) {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return env
}

// oracleText renders the serial-oracle output for payload: a fresh DFA
// backend fed the whole payload at once, formatted exactly as the server
// formats it. Faults aside, every network stream carrying payload must
// produce these bytes.
func oracleText(t testing.TB, payload []byte) []byte {
	t.Helper()
	eng, err := cfgtag.Compile("oracle", testGrammar, cfgtag.FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	return oracleTextWith(t, eng, payload)
}

func oracleTextWith(t testing.TB, eng *cfgtag.Engine, payload []byte) []byte {
	t.Helper()
	b, err := eng.NewBackend(cfgtag.DFABackend)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > 0 {
		if err := b.Feed(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	return serve.AppendBatchText(nil, "", &cfgtag.TagBatch{Tags: b.Matches(), EOS: true}, &total)
}

// tcpStream runs one dedicated-stream connection end to end and returns
// everything the server wrote back.
func tcpStream(t testing.TB, addr, tenant, key string, chunks ...[]byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	w.Write(serve.AppendHandshake(nil, serve.Handshake{Tenant: tenant, Key: key}))
	for _, c := range chunks {
		w.Write(c)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// httpStream POSTs payload as one stream and returns status + body.
func httpStream(t testing.TB, addr, tenant, key string, payload []byte) (int, []byte) {
	t.Helper()
	url := fmt.Sprintf("http://%s/v1/streams/%s/%s", addr, tenant, key)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServeTCPStream(t *testing.T) {
	env := startEnv(t, nil)
	want := oracleText(t, []byte(testPayload))
	got := tcpStream(t, env.tcpAddr, "alpha", "s1", []byte(testPayload))
	if !bytes.Equal(got, want) {
		t.Fatalf("stream output mismatch:\n got %q\nwant %q", got, want)
	}
}

func TestServeTCPStreamChunked(t *testing.T) {
	env := startEnv(t, nil)
	want := oracleText(t, []byte(testPayload))
	// Split mid-token: chunk boundaries must not change the output.
	got := tcpStream(t, env.tcpAddr, "alpha", "s1",
		[]byte(testPayload[:7]), []byte(testPayload[7:13]), []byte(testPayload[13:]))
	if !bytes.Equal(got, want) {
		t.Fatalf("chunked output mismatch:\n got %q\nwant %q", got, want)
	}
}

// muxConn is a test client for multiplexed connections.
type muxConn struct {
	t    testing.TB
	conn net.Conn
	w    *bufio.Writer
}

func dialMux(t testing.TB, addr, tenant string) *muxConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriterSize(conn, 64<<10)
	w.Write(serve.AppendHandshake(nil, serve.Handshake{Tenant: tenant, Mux: true}))
	return &muxConn{t: t, conn: conn, w: w}
}

func (mc *muxConn) open(key string) {
	mc.w.Write(serve.AppendFrame(nil, serve.Frame{Op: serve.FrameOpen, Key: key}))
}
func (mc *muxConn) data(key string, p []byte) {
	mc.w.Write(serve.AppendFrame(nil, serve.Frame{Op: serve.FrameData, Key: key, Payload: p}))
}
func (mc *muxConn) closeStream(key string) {
	mc.w.Write(serve.AppendFrame(nil, serve.Frame{Op: serve.FrameClose, Key: key}))
}

// finish flushes, half-closes, and demuxes every response line into
// per-key output (with the "<key> " prefix stripped).
func (mc *muxConn) finish() map[string][]byte {
	mc.t.Helper()
	if err := mc.w.Flush(); err != nil {
		mc.t.Fatal(err)
	}
	if tc, ok := mc.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	out := make(map[string][]byte)
	sc := bufio.NewScanner(mc.conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		key, rest, ok := strings.Cut(line, " ")
		if !ok {
			mc.t.Fatalf("unparseable response line %q", line)
		}
		out[key] = append(out[key], rest...)
		out[key] = append(out[key], '\n')
	}
	if err := sc.Err(); err != nil {
		mc.t.Fatal(err)
	}
	mc.conn.Close()
	return out
}

func TestServeMux(t *testing.T) {
	env := startEnv(t, nil)
	want := oracleText(t, []byte(testPayload))
	mc := dialMux(t, env.tcpAddr, "alpha")
	keys := []string{"m1", "m2", "m3", "m4"}
	for _, k := range keys {
		mc.open(k)
	}
	// Interleave chunks across streams.
	half := len(testPayload) / 2
	for _, k := range keys {
		mc.data(k, []byte(testPayload[:half]))
	}
	for _, k := range keys {
		mc.data(k, []byte(testPayload[half:]))
	}
	for _, k := range keys {
		mc.closeStream(k)
	}
	out := mc.finish()
	for _, k := range keys {
		if !bytes.Equal(out[k], want) {
			t.Fatalf("stream %s mismatch:\n got %q\nwant %q", k, out[k], want)
		}
	}
}

func TestServeMuxZeroByteStream(t *testing.T) {
	env := startEnv(t, nil)
	mc := dialMux(t, env.tcpAddr, "alpha")
	mc.open("empty")
	mc.closeStream("empty")
	out := mc.finish()
	if got := string(out["empty"]); got != "END 0\n" {
		t.Fatalf("zero-byte stream: got %q, want END 0", got)
	}
}

func TestServeHTTPStream(t *testing.T) {
	env := startEnv(t, nil)
	want := oracleText(t, []byte(testPayload))
	code, body := httpStream(t, env.httpAddr, "alpha", "h1", []byte(testPayload))
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (body %q)", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("http output mismatch:\n got %q\nwant %q", body, want)
	}
}

func TestServeHTTPUnknownTenant(t *testing.T) {
	env := startEnv(t, nil)
	code, _ := httpStream(t, env.httpAddr, "nosuch", "h1", []byte(testPayload))
	if code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", code)
	}
}

func TestServeHealthzAndMetrics(t *testing.T) {
	env := startEnv(t, nil)
	resp, err := http.Get("http://" + env.httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// Generate some traffic, then check the counters show up.
	tcpStream(t, env.tcpAddr, "alpha", "s1", []byte(testPayload))
	resp, err = http.Get("http://" + env.httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf(`cfgtag_bytes_total{tenant="alpha"} %d`, len(testPayload)),
		`cfgtag_live_versions{tenant="alpha"} 1`,
		"serve_sessions_opened_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestServeAOTTenantMetrics runs a tenant on the ahead-of-time compiled
// backend over the network: its output must match the DFA oracle byte
// for byte (aot == dfa is the determinizer's contract), and /metrics
// must expose the per-tenant compile-cost gauges.
func TestServeAOTTenantMetrics(t *testing.T) {
	env := startEnv(t, nil,
		tenantSpec{name: "ahead", backend: "aot"},
		tenantSpec{name: "alpha"})
	want := oracleText(t, []byte(testPayload))
	tcpStream(t, env.tcpAddr, "alpha", "d1", []byte(testPayload))
	got := tcpStream(t, env.tcpAddr, "ahead", "s1", []byte(testPayload))
	if !bytes.Equal(got, want) {
		t.Fatalf("aot tenant output mismatch:\n got %q\nwant %q", got, want)
	}
	resp, err := http.Get("http://" + env.httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`cfgtag_aot_states{tenant="ahead"} `,
		`cfgtag_aot_classes{tenant="ahead"} `,
		`cfgtag_aot_table_bytes{tenant="ahead"} `,
		`cfgtag_aot_compile_seconds{tenant="ahead"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	// A DFA tenant that never minted an AOT backend must not emit the
	// compile gauges at all.
	if strings.Contains(text, `cfgtag_aot_states{tenant="alpha"}`) {
		t.Errorf("metrics leak aot gauges for non-aot tenant in:\n%s", text)
	}
}

func TestServeBadHandshake(t *testing.T) {
	env := startEnv(t, nil)
	conn, err := net.Dial("tcp", env.tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GARBAGE\n")
	out, _ := io.ReadAll(conn)
	if !strings.HasPrefix(string(out), "ERR! bad handshake") {
		t.Fatalf("got %q, want ERR! bad handshake", out)
	}
}

// TestServeQuotaOverNetwork is the per-tenant quota table: MaxStreams
// and BytesPerSec violations surface as clean TCP refusals and HTTP 429s
// while under-quota tenants are untouched.
func TestServeQuotaOverNetwork(t *testing.T) {
	env := startEnv(t, nil,
		tenantSpec{name: "tight", quota: cfgtag.QuotaConfig{MaxStreams: 2}},
		tenantSpec{name: "slow", quota: cfgtag.QuotaConfig{BytesPerSec: 8}},
		tenantSpec{name: "loose"},
	)
	want := oracleText(t, []byte(testPayload))

	t.Run("tcp-max-streams", func(t *testing.T) {
		// Hold two streams of "tight" open at their quota.
		mc := dialMux(t, env.tcpAddr, "tight")
		mc.open("held-1")
		mc.data("held-1", []byte("if "))
		mc.open("held-2")
		mc.data("held-2", []byte("if "))
		if err := mc.w.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			n, err := env.platform.LiveStreams("tight")
			return err == nil && n == 2
		})
		// A third stream is refused with a clean ERR line.
		got := tcpStream(t, env.tcpAddr, "tight", "third", []byte(testPayload))
		if string(got) != "ERR quota exceeded\n" {
			t.Fatalf("over-quota TCP stream: got %q", got)
		}
		// The under-quota tenant is unaffected.
		if got := tcpStream(t, env.tcpAddr, "loose", "fine", []byte(testPayload)); !bytes.Equal(got, want) {
			t.Fatalf("loose tenant affected by tight quota: %q", got)
		}
		// Releasing one held stream frees the slot.
		mc.closeStream("held-1")
		mc.closeStream("held-2")
		mc.finish()
		waitFor(t, func() bool {
			n, err := env.platform.LiveStreams("tight")
			return err == nil && n == 0
		})
		if got := tcpStream(t, env.tcpAddr, "tight", "fourth", []byte(testPayload)); !bytes.Equal(got, want) {
			t.Fatalf("post-release stream refused: %q", got)
		}
	})

	t.Run("http-max-streams", func(t *testing.T) {
		// A stream's slot is released just after its final line is written:
		// the client above can be back here before that.
		waitFor(t, func() bool {
			n, err := env.platform.LiveStreams("tight")
			return err == nil && n == 0
		})
		mc := dialMux(t, env.tcpAddr, "tight")
		mc.open("held-1")
		mc.data("held-1", []byte("if "))
		mc.open("held-2")
		mc.data("held-2", []byte("if "))
		if err := mc.w.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			n, err := env.platform.LiveStreams("tight")
			return err == nil && n == 2
		})
		code, _ := httpStream(t, env.httpAddr, "tight", "h-third", []byte(testPayload))
		if code != http.StatusTooManyRequests {
			t.Fatalf("over-quota POST: status %d, want 429", code)
		}
		if code, body := httpStream(t, env.httpAddr, "loose", "h-fine", []byte(testPayload)); code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("loose tenant affected: %d %q", code, body)
		}
		mc.closeStream("held-1")
		mc.closeStream("held-2")
		mc.finish()
	})

	t.Run("http-bytes-per-sec", func(t *testing.T) {
		// The one-second burst bucket holds 8 bytes; a payload past that
		// is rejected mid-body with 429.
		code, _ := httpStream(t, env.httpAddr, "slow", "h-big", bytes.Repeat([]byte("x"), 64))
		if code != http.StatusTooManyRequests {
			t.Fatalf("over-rate POST: status %d, want 429", code)
		}
	})

	t.Run("mux-quota-err-line", func(t *testing.T) {
		mc := dialMux(t, env.tcpAddr, "slow")
		mc.open("burst")
		mc.data("burst", bytes.Repeat([]byte("y"), 64))
		mc.closeStream("burst")
		out := mc.finish()
		if got := string(out["burst"]); !strings.Contains(got, "ERR quota exceeded") {
			t.Fatalf("mux over-rate stream: got %q", got)
		}
	})
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDrain exercises the drain state machine without load: refuse
// new conns, then close listeners.
func TestServeDrain(t *testing.T) {
	env := startEnv(t, nil)
	if err := env.srv.Shutdown(time.Second); err != nil {
		t.Fatalf("shutdown of idle server: %v", err)
	}
	if err := env.srv.Shutdown(time.Second); !errors.Is(err, serve.ErrServerClosed) {
		t.Fatalf("second shutdown: %v, want ErrServerClosed", err)
	}
	if _, err := net.Dial("tcp", env.tcpAddr); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeDrainTimeout pins the typed error: a client that never closes
// its stream forces the deadline, the stream is still flushed (its END
// line written) before sockets close, and Shutdown reports
// ErrDrainTimeout.
func TestServeDrainTimeout(t *testing.T) {
	env := startEnv(t, nil)
	conn, err := net.Dial("tcp", env.tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hs := serve.AppendHandshake(nil, serve.Handshake{Tenant: "alpha", Key: "stuck"})
	conn.Write(append(hs, []byte(testPayload)...))
	waitFor(t, func() bool { return env.srv.ActiveSessions() == 1 })

	var readOut []byte
	var readErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		readOut, readErr = io.ReadAll(conn)
	}()

	err = env.srv.Shutdown(200 * time.Millisecond)
	if !errors.Is(err, serve.ErrDrainTimeout) {
		t.Fatalf("shutdown: %v, want ErrDrainTimeout", err)
	}
	<-done
	if readErr != nil {
		t.Fatalf("client read: %v", readErr)
	}
	want := oracleText(t, []byte(testPayload))
	if !bytes.Equal(readOut, want) {
		t.Fatalf("force-flushed stream: got %q, want %q", readOut, want)
	}
}

// TestServeDeliverFanout checks the fan-out sink adapter sees every
// batch and that its errors feed the pipeline's retry machinery.
func TestServeDeliverFanout(t *testing.T) {
	var mu sync.Mutex
	var tags, eos int
	srv := serve.NewServer()
	srv.AddFanout(func(tenant string, b *cfgtag.TagBatch) error {
		mu.Lock()
		defer mu.Unlock()
		tags += len(b.Tags)
		if b.EOS {
			eos++
		}
		return nil
	})
	cfg := &cfgtag.PlatformConfig{Tenants: []cfgtag.TenantDef{{
		Name: "alpha", Grammar: testGrammar, Options: []string{"free-running-start"},
		Backend: "dfa", Shards: 1,
	}}}
	p, err := cfgtag.NewPlatform(cfg, srv.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	srv.Bind(p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{}))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second)

	out := tcpStream(t, ln.Addr().String(), "alpha", "s1", []byte(testPayload))
	nTagLines := bytes.Count(out, []byte("TAG "))
	mu.Lock()
	defer mu.Unlock()
	if tags != nTagLines || tags == 0 {
		t.Fatalf("fanout saw %d tags, client saw %d lines", tags, nTagLines)
	}
	if eos != 1 {
		t.Fatalf("fanout saw %d EOS batches, want 1", eos)
	}
}
