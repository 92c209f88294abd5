package serve_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/faultinject"
	"cfgtag/internal/runtime"
	"cfgtag/internal/serve"
)

// sessionWait bounds every wait of the session tests: a stream that gets
// no final line fails its row instead of hanging the suite.
const sessionWait = 10 * time.Second

// quarantineSpy is the server's core with a window on it: it reports the
// key of every Send or CloseStream the platform refused as quarantined.
type quarantineSpy struct {
	serve.Core
	keys chan string
}

func (q *quarantineSpy) Send(tenant, key string, p []byte) error {
	return q.note(key, q.Core.Send(tenant, key, p))
}

func (q *quarantineSpy) CloseStream(tenant, key string) error {
	return q.note(key, q.Core.CloseStream(tenant, key))
}

func (q *quarantineSpy) note(key string, err error) error {
	if errors.Is(err, cfgtag.ErrStreamQuarantined) {
		select {
		case q.keys <- key:
		default:
		}
	}
	return err
}

// wait returns once the core has refused key as quarantined.
func (q *quarantineSpy) wait(t *testing.T, key string) {
	t.Helper()
	timeout := time.After(sessionWait)
	for {
		select {
		case k := <-q.keys:
			if k == key {
				return
			}
		case <-timeout:
			t.Fatalf("%s: no quarantined refusal reached the core", key)
		}
	}
}

// faultHold holds the fault batch of one stream in a fan-out, so the
// stream's client can send again while its final line is on its way.
type faultHold struct {
	key     string
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *faultHold) free() { h.once.Do(func() { close(h.release) }) }

// sessionClient drives one stream over one input.
type sessionClient interface {
	write(p []byte)
	// end closes the stream and returns the HTTP status (0 on TCP) and
	// everything the server sent back for it, key prefixes stripped.
	end() (int, string)
}

// lineConn is a CFGTAG/1 connection whose response lines a reader
// goroutine hands over one at a time, so a test can wait for one.
type lineConn struct {
	t     *testing.T
	conn  net.Conn
	lines chan string
	got   []string
}

func dialLines(t *testing.T, addr string, hs serve.Handshake) *lineConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(sessionWait))
	// Buffered past any test stream's line count, so the reader never
	// blocks behind a test that has stopped reading.
	lc := &lineConn{t: t, conn: conn, lines: make(chan string, 64)}
	go func() {
		defer close(lc.lines)
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			lc.lines <- sc.Text()
		}
	}()
	lc.send(serve.AppendHandshake(nil, hs))
	return lc
}

func (lc *lineConn) send(p []byte) {
	lc.t.Helper()
	if _, err := lc.conn.Write(p); err != nil {
		lc.t.Fatal(err)
	}
}

func (lc *lineConn) frame(op serve.FrameOp, key string, p []byte) {
	lc.send(serve.AppendFrame(nil, serve.Frame{Op: op, Key: key, Payload: p}))
}

// await reads lines until want arrives.
func (lc *lineConn) await(want string) {
	lc.t.Helper()
	for line := range lc.lines {
		lc.got = append(lc.got, line)
		if line == want {
			return
		}
	}
	lc.t.Fatalf("connection ended without %q; got %q", want, lc.got)
}

// finish half-closes the connection and returns every line the server
// wrote before hanging up.
func (lc *lineConn) finish() []string {
	lc.t.Helper()
	lc.conn.(*net.TCPConn).CloseWrite()
	for line := range lc.lines {
		lc.got = append(lc.got, line)
	}
	return lc.got
}

// keyed returns the lines of key, its prefix stripped.
func keyed(lines []string, key string) string {
	var b strings.Builder
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, key+" "); ok {
			b.WriteString(rest + "\n")
		}
	}
	return b.String()
}

type muxClient struct {
	*lineConn
	key string
}

func (c muxClient) write(p []byte) { c.frame(serve.FrameData, c.key, p) }
func (c muxClient) end() (int, string) {
	c.frame(serve.FrameClose, c.key, nil)
	return 0, keyed(c.finish(), c.key)
}

type tcpClient struct{ *lineConn }

func (c tcpClient) write(p []byte) { c.send(p) }
func (c tcpClient) end() (int, string) {
	return 0, strings.Join(append(c.finish(), ""), "\n")
}

type httpClient struct {
	t    *testing.T
	body *io.PipeWriter
	resp chan *http.Response
	err  chan error
}

func (c *httpClient) write(p []byte) {
	if _, err := c.body.Write(p); err != nil {
		c.t.Fatal(err)
	}
}

func (c *httpClient) end() (int, string) {
	c.t.Helper()
	c.body.Close()
	select {
	case resp := <-c.resp:
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			c.t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	case err := <-c.err:
		c.t.Fatal(err)
	}
	return 0, ""
}

// openStream starts one stream of tenant under key over the named input.
func openStream(t *testing.T, env *testEnv, input, tenant, key string) sessionClient {
	t.Helper()
	switch input {
	case "mux":
		lc := dialLines(t, env.tcpAddr, serve.Handshake{Tenant: tenant, Mux: true})
		lc.frame(serve.FrameOpen, key, nil)
		return muxClient{lc, key}
	case "tcp":
		return tcpClient{dialLines(t, env.tcpAddr, serve.Handshake{Tenant: tenant, Key: key})}
	}
	pr, pw := io.Pipe()
	c := &httpClient{t: t, body: pw, resp: make(chan *http.Response, 1), err: make(chan error, 1)}
	client := &http.Client{Timeout: sessionWait}
	url := fmt.Sprintf("http://%s/v1/streams/%s/%s", env.httpAddr, tenant, key)
	go func() {
		resp, err := client.Post(url, "application/octet-stream", pr)
		if err != nil {
			c.err <- err
			return
		}
		c.resp <- resp
	}()
	return c
}

// faultLine reports whether out is exactly one line, the injected fault's
// ERR.
func faultLine(out string) bool {
	return strings.HasPrefix(out, "ERR ") && strings.Count(out, "\n") == 1 &&
		strings.Contains(out, faultinject.ErrInjected.Error())
}

// TestServeSessionEnd pins the session lifecycle: every stream gets exactly
// one final line (one response over HTTP) however its end races its
// client, and nothing of a stream reaches the core after that line.
//
//   - fault-held: the client sends again while a fan-out holds its fault
//     batch; the fault batch is still its one final line.
//   - reopen-bytes, reopen-empty: a key reopened while quarantined, with
//     bytes and without, is refused at once with "ERR quarantined" (409).
//   - evicted: an evicted MUX stream that sends again gets nothing more,
//     and its live neighbour keeps its tags.
//   - evicted-held: the same, but the stream sends again while a fan-out
//     holds its Evicted batch: the core refuses the key, so it cannot
//     come back to evict its neighbour.
//
// Refused then counts the reopen rows, once each.
func TestServeSessionEnd(t *testing.T) {
	var hold atomic.Pointer[faultHold]
	// Sized past every quarantined refusal of the test, so a row waiting
	// for its key finds it behind those of earlier rows.
	spy := &quarantineSpy{keys: make(chan string, 256)}
	cfg := &cfgtag.PlatformConfig{
		WrapFactory: func(f runtime.Factory) runtime.Factory {
			return faultinject.Factory(f, faultinject.Config{Triggers: true})
		},
	}
	env := startHookedEnv(t, cfg, envHooks{
		fanout: func(tenant string, b *cfgtag.TagBatch) error {
			if h := hold.Load(); h != nil && (b.Err != nil || b.Evicted) && b.Stream == h.key && hold.CompareAndSwap(h, nil) {
				close(h.held)
				<-h.release
			}
			return nil
		},
		core: func(c serve.Core) serve.Core { spy.Core = c; return spy },
	},
		tenantSpec{name: "alpha", quarantine: time.Hour},
		tenantSpec{name: "solo", shards: 1, maxStreams: 1})

	trigger := append(append([]byte{}, faultinject.TriggerError...), "if "...)
	cases := []struct {
		name    string
		refusal bool // counted once in Refused
		run     func(t *testing.T, input, key string)
	}{
		{"fault-held", false, func(t *testing.T, input, key string) {
			h := &faultHold{key: key, held: make(chan struct{}), release: make(chan struct{})}
			hold.Store(h)
			defer h.free()
			c := openStream(t, env, input, "alpha", key)
			c.write(trigger)
			select {
			case <-h.held:
			case <-time.After(sessionWait):
				t.Fatal("fault batch never reached the fan-out")
			}
			c.write([]byte("true then go"))
			spy.wait(t, key)
			h.free()
			code, out := c.end()
			if input == "http" && code != http.StatusOK {
				t.Errorf("status %d, want 200", code)
			}
			if !faultLine(out) {
				t.Errorf("got %q, want exactly the fault's ERR line", out)
			}
		}},
		{"reopen-bytes", true, func(t *testing.T, input, key string) {
			reopenQuarantined(t, env, input, key, []byte(testPayload))
		}},
		{"reopen-empty", true, func(t *testing.T, input, key string) {
			reopenQuarantined(t, env, input, key, nil)
		}},
	}
	refusals := 0
	for _, tc := range cases {
		for _, input := range []string{"mux", "tcp", "http"} {
			if tc.refusal {
				refusals++
			}
			t.Run(tc.name+"/"+input, func(t *testing.T) {
				tc.run(t, input, tc.name+"-"+input)
			})
		}
	}

	t.Run("evicted/mux", func(t *testing.T) {
		payload := []byte(testPayload)
		half := len(payload) / 2
		want := string(oracleText(t, payload))
		evictedWant := want[:strings.LastIndex(want[:len(want)-1], "\n")+1] + "ERR evicted\n"

		lc := dialLines(t, env.tcpAddr, serve.Handshake{Tenant: "solo", Mux: true})
		lc.frame(serve.FrameOpen, "a", nil)
		lc.frame(serve.FrameData, "a", payload)
		// One shard holding one stream: b's first bytes evict a.
		lc.frame(serve.FrameOpen, "b", nil)
		lc.frame(serve.FrameData, "b", payload[:half])
		lc.await("a ERR evicted")
		// After its final line a takes no more bytes: these must not
		// bring it back to evict b in turn.
		lc.frame(serve.FrameData, "a", payload)
		lc.frame(serve.FrameData, "b", payload[half:])
		lc.frame(serve.FrameClose, "b", nil)
		lc.frame(serve.FrameClose, "a", nil)
		lines := lc.finish()
		if got := keyed(lines, "a"); got != evictedWant {
			t.Errorf("evicted stream: got %q, want %q", got, evictedWant)
		}
		if got := keyed(lines, "b"); got != want {
			t.Errorf("neighbour: got %q, want %q", got, want)
		}
		f, err := env.platform.Faults("solo")
		if err != nil {
			t.Fatal(err)
		}
		if f.StreamsEvicted != 1 {
			t.Errorf("%d evictions, want 1", f.StreamsEvicted)
		}
	})

	t.Run("evicted-held/mux", func(t *testing.T) {
		payload := []byte(testPayload)
		half := len(payload) / 2
		want := string(oracleText(t, payload))
		evictedWant := want[:strings.LastIndex(want[:len(want)-1], "\n")+1] + "ERR evicted\n"
		f0, err := env.platform.Faults("solo")
		if err != nil {
			t.Fatal(err)
		}

		h := &faultHold{key: "a", held: make(chan struct{}), release: make(chan struct{})}
		hold.Store(h)
		defer h.free()
		lc := dialLines(t, env.tcpAddr, serve.Handshake{Tenant: "solo", Mux: true})
		lc.frame(serve.FrameOpen, "a", nil)
		lc.frame(serve.FrameData, "a", payload)
		lc.frame(serve.FrameOpen, "b", nil)
		lc.frame(serve.FrameData, "b", payload[:half]) // evicts a
		select {
		case <-h.held:
		case <-time.After(sessionWait):
			t.Fatal("a's Evicted batch never reached the fan-out")
		}
		// a's final batch is still in the fan-out: these bytes must not
		// re-create a, which would evict b in turn.
		lc.frame(serve.FrameData, "a", payload)
		spy.wait(t, "a")
		h.free()
		lc.frame(serve.FrameData, "b", payload[half:])
		lc.frame(serve.FrameClose, "b", nil)
		lc.frame(serve.FrameClose, "a", nil)
		lines := lc.finish()
		if got := keyed(lines, "a"); got != evictedWant {
			t.Errorf("evicted stream: got %q, want %q", got, evictedWant)
		}
		if got := keyed(lines, "b"); got != want {
			t.Errorf("neighbour: got %q, want %q", got, want)
		}
		f, err := env.platform.Faults("solo")
		if err != nil {
			t.Fatal(err)
		}
		if n := f.StreamsEvicted - f0.StreamsEvicted; n != 1 {
			t.Errorf("%d evictions, want 1", n)
		}
	})

	if got := env.srv.Refused(); got != int64(refusals) {
		t.Errorf("Refused = %d, want %d (one per refusal row)", got, refusals)
	}
}

// reopenQuarantined faults a stream under key, then opens key again while
// it is quarantined and sends payload (nil: no bytes) before closing. The
// reopened stream must be refused with one "ERR quarantined" line, or a
// 409, and end without waiting for an EOS that never comes.
func reopenQuarantined(t *testing.T, env *testEnv, input, key string, payload []byte) {
	t.Helper()
	c := openStream(t, env, input, "alpha", key)
	c.write(append(append([]byte{}, faultinject.TriggerError...), payload...))
	if _, out := c.end(); !faultLine(out) {
		t.Fatalf("faulted stream: got %q, want the fault's ERR line", out)
	}
	c = openStream(t, env, input, "alpha", key)
	if len(payload) > 0 {
		c.write(payload)
	}
	code, out := c.end()
	if input == "http" {
		if code != http.StatusConflict {
			t.Errorf("status %d (body %q), want 409", code, out)
		}
		return
	}
	if out != "ERR quarantined\n" {
		t.Errorf("got %q, want exactly ERR quarantined", out)
	}
}

// TestServeShutdownWithoutEOS: once a tenant's sink has failed for good no
// EOS batch reaches the server, and Shutdown must still return promptly —
// releasing the sessions left waiting for one before it joins the inputs
// whose handlers wait on them.
func TestServeShutdownWithoutEOS(t *testing.T) {
	for _, tc := range []struct {
		name    string
		eosOnly bool // the sink fails on the EOS batch, after the close
	}{
		{"sink-failed-before-close", false},
		{"eos-dropped", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failed := make(chan struct{})
			var once sync.Once
			env := startHookedEnv(t, nil, envHooks{fanout: func(tenant string, b *cfgtag.TagBatch) error {
				if tc.eosOnly && !b.EOS {
					return nil
				}
				once.Do(func() { close(failed) })
				return cfgtag.PermanentDeliverError(errors.New("sink gone"))
			}})
			awaitFailure := func() {
				select {
				case <-failed:
				case <-time.After(sessionWait):
					t.Fatal("the fan-out never failed the sink")
				}
			}
			lc := dialLines(t, env.tcpAddr, serve.Handshake{Tenant: "alpha", Mux: true})
			lc.frame(serve.FrameOpen, "k", nil)
			lc.frame(serve.FrameData, "k", []byte(testPayload))
			if !tc.eosOnly {
				awaitFailure()
			}
			lc.frame(serve.FrameClose, "k", nil)
			if tc.eosOnly {
				awaitFailure()
			}

			shut := make(chan error, 1)
			go func() { shut <- env.srv.Shutdown(time.Second) }()
			select {
			case <-shut:
			case <-time.After(5 * time.Second):
				t.Fatal("Shutdown still blocked after 5s")
			}
			if n := env.srv.ActiveSessions(); n != 0 {
				t.Errorf("%d sessions still active", n)
			}
		})
	}
}

// TestServeSessionRecycle reopens a key on one MUX connection as soon as
// the client has sent CLOSE, while a fan-out holds the old stream's EOS
// batch. Until that batch is out the old session stays registered, so
// every reopen is refused with "ERR duplicate stream" and its bytes are
// dropped; the refused sessions go back to the pool at their CLOSE. Once
// the old END line is out, the key opens as a fresh stream whose output
// is exact: a recycled session carries no state of its last stream, and
// no batch reaches one. Run it under -race -count=20.
func TestServeSessionRecycle(t *testing.T) {
	const key, refusals = "k", 3
	held, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	env := startHookedEnv(t, nil, envHooks{fanout: func(tenant string, b *cfgtag.TagBatch) error {
		if b.EOS && b.Stream == key && first.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
		return nil
	}})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // before the server's shutdown, which waits on the fan-out

	want := string(oracleText(t, []byte(testPayload)))
	end := want[strings.LastIndex(want[:len(want)-1], "\n")+1 : len(want)-1]
	cycle := func(lc *lineConn) {
		lc.frame(serve.FrameOpen, key, nil)
		lc.frame(serve.FrameData, key, []byte(testPayload))
		lc.frame(serve.FrameClose, key, nil)
	}

	lc := dialLines(t, env.tcpAddr, serve.Handshake{Tenant: "alpha", Mux: true})
	cycle(lc)
	select {
	case <-held:
	case <-time.After(sessionWait):
		t.Fatal("EOS batch never reached the fan-out")
	}
	for i := 0; i < refusals; i++ {
		cycle(lc)
		lc.await(key + " ERR duplicate stream")
	}
	free()
	lc.await(key + " " + end)
	cycle(lc)
	got := keyed(lc.finish(), key)

	// The refusals land inside the old stream's lines, ahead of the held
	// EOS batch's; without them the key's lines are two exact streams.
	errs := strings.Repeat("ERR duplicate stream\n", refusals)
	i := strings.Index(got, errs)
	if i < 0 || i > strings.Index(got, end) || got[:i]+got[i+len(errs):] != want+want {
		t.Fatalf("key %q lines:\n got %q\nwant two of %q, %d refusals before the first %q", key, got, want, refusals, end)
	}
	if n := env.srv.Refused(); n != refusals {
		t.Fatalf("Refused = %d, want %d", n, refusals)
	}
	waitFor(t, func() bool { return env.srv.HeldSessions() == 0 })
	if n := env.srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active", n)
	}
}
