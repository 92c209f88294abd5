package serve_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
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

// soakVariants are the distinct payloads driven through the soak; each
// stream carries one of them, so the serial oracle is computed once per
// variant rather than once per stream.
var soakVariants = [][]byte{
	[]byte("if true then go else stop"),
	[]byte("if false then stop else go"),
	[]byte("if true then if false then go else stop else go"),
	[]byte("go stop if true then go else stop go"),
}

// soakConn is a mux client whose responses are drained by a concurrent
// reader goroutine, so server-side batch writes never stall behind an
// unread socket while tens of thousands of streams are in flight.
type soakConn struct {
	conn       net.Conn
	w          *bufio.Writer
	out        map[string][]byte // written only by the reader goroutine
	readErr    error
	readerDone chan struct{}
}

func dialSoak(addr, tenant string) (*soakConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := &soakConn{
		conn:       conn,
		w:          bufio.NewWriterSize(conn, 64<<10),
		out:        make(map[string][]byte),
		readerDone: make(chan struct{}),
	}
	sc.w.Write(serve.AppendHandshake(nil, serve.Handshake{Tenant: tenant, Mux: true}))
	go sc.reader()
	return sc, nil
}

func (sc *soakConn) reader() {
	defer close(sc.readerDone)
	s := bufio.NewScanner(sc.conn)
	s.Buffer(make([]byte, 64<<10), 1<<20)
	for s.Scan() {
		line := s.Text()
		key, rest, ok := strings.Cut(line, " ")
		if !ok {
			sc.readErr = fmt.Errorf("unparseable response line %q", line)
			return
		}
		sc.out[key] = append(append(sc.out[key], rest...), '\n')
	}
	sc.readErr = s.Err()
}

func (sc *soakConn) open(key string) {
	sc.w.Write(serve.AppendFrame(nil, serve.Frame{Op: serve.FrameOpen, Key: key}))
}
func (sc *soakConn) data(key string, p []byte) {
	sc.w.Write(serve.AppendFrame(nil, serve.Frame{Op: serve.FrameData, Key: key, Payload: p}))
}
func (sc *soakConn) closeStream(key string) {
	sc.w.Write(serve.AppendFrame(nil, serve.Frame{Op: serve.FrameClose, Key: key}))
}

// finish flushes, half-closes, and joins the reader.
func (sc *soakConn) finish() error {
	if err := sc.w.Flush(); err != nil {
		return err
	}
	if tc, ok := sc.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	<-sc.readerDone
	sc.conn.Close()
	return sc.readErr
}

func soakWait(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("soak: %s not reached in %v", what, d)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricValue extracts one counter from the /metrics text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// soakFault returns the trigger marker for global stream index gi, or nil
// if the stream runs clean. Roughly 1% of mux streams are faulted,
// alternating injected errors and injected panics.
func soakFault(gi int) []byte {
	if gi%97 != 0 {
		return nil
	}
	if (gi/97)%2 == 0 {
		return faultinject.TriggerError
	}
	return faultinject.TriggerPanic
}

// soakEarly reports whether faulted stream gi sends its second half right
// behind the trigger, before the phase barrier: those bytes race the
// stream's fault batch, so the soak covers a stream fed while its final
// line is on its way. Half the faulted streams do.
func soakEarly(gi int) bool {
	return soakFault(gi) != nil && (gi/97/2)%2 == 0
}

// TestServeSoak drives 50k+ concurrent keyed streams (5k with -short)
// over real TCP mux, dedicated TCP and HTTP sockets against a platform
// with fault injection enabled, and asserts:
//
//   - every non-faulted stream's output is byte-identical to the serial
//     DFA oracle for its payload;
//   - every faulted stream's output is exactly one ERR line, also when
//     it sends again before its fault batch lands, and faults never leak
//     into neighbouring streams;
//   - /metrics totals reconcile exactly with the client-observed counts
//     (matches vs TAG lines, sessions opened vs streams driven).
func TestServeSoak(t *testing.T) {
	conns, perConn, tcpN, httpN := 100, 510, 200, 200
	if testing.Short() {
		conns, perConn, tcpN, httpN = 25, 200, 50, 50
	}
	tenants := []string{"t0", "t1", "t2", "t3"}
	cfg := &cfgtag.PlatformConfig{
		WrapFactory: func(f runtime.Factory) runtime.Factory {
			return faultinject.Factory(f, faultinject.Config{Triggers: true})
		},
	}
	specs := make([]tenantSpec, len(tenants))
	for i, name := range tenants {
		// Quarantine must outlive the soak: an expired quarantine would
		// let a faulted stream's late bytes re-create it as a phantom
		// stream and break the metrics reconciliation.
		specs[i] = tenantSpec{name: name, shards: 4, quarantine: 10 * time.Minute}
	}
	env := startEnv(t, cfg, specs...)

	eng, err := cfgtag.Compile("soak", testGrammar, cfgtag.FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([][]byte, len(soakVariants))
	tagsPer := make([]int, len(soakVariants))
	for i, p := range soakVariants {
		oracles[i] = oracleTextWith(t, eng, p)
		tagsPer[i] = bytes.Count(oracles[i], []byte("TAG "))
		if tagsPer[i] == 0 {
			t.Fatalf("variant %d produces no tags; soak would prove nothing", i)
		}
	}

	muxTotal := conns * perConn
	faulted := 0
	for gi := 0; gi < muxTotal; gi++ {
		if soakFault(gi) != nil {
			faulted++
		}
	}
	total := muxTotal + tcpN + httpN

	release := make(chan struct{})
	var phase1, wg sync.WaitGroup
	var clientTags atomic.Int64

	// Mux cohort: conns connections, perConn concurrent keyed streams
	// each. Phase 1 opens every stream and sends the first half of its
	// payload; phase 2 (after the barrier) finishes and closes them.
	scs := make([]*soakConn, conns)
	for c := 0; c < conns; c++ {
		phase1.Add(1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var once sync.Once
			sig := func() { once.Do(phase1.Done) }
			defer sig()
			sc, err := dialSoak(env.tcpAddr, tenants[c%len(tenants)])
			if err != nil {
				t.Errorf("conn %d: dial: %v", c, err)
				return
			}
			scs[c] = sc
			for i := 0; i < perConn; i++ {
				gi := c*perConn + i
				key := fmt.Sprintf("c%d-s%d", c, i)
				p := soakVariants[gi%len(soakVariants)]
				first := p[:len(p)/2]
				if trig := soakFault(gi); trig != nil {
					first = append(append([]byte{}, trig...), first...)
				}
				sc.open(key)
				sc.data(key, first)
				if soakEarly(gi) {
					sc.data(key, p[len(p)/2:])
				}
			}
			if err := sc.w.Flush(); err != nil {
				t.Errorf("conn %d: phase-1 flush: %v", c, err)
				return
			}
			sig()
			<-release
			for i := 0; i < perConn; i++ {
				gi := c*perConn + i
				key := fmt.Sprintf("c%d-s%d", c, i)
				p := soakVariants[gi%len(soakVariants)]
				if !soakEarly(gi) {
					sc.data(key, p[len(p)/2:])
				}
				sc.closeStream(key)
			}
			if err := sc.finish(); err != nil {
				t.Errorf("conn %d: %v", c, err)
			}
		}(c)
	}

	// Dedicated-TCP cohort: one connection per stream, held across the
	// barrier so they are concurrent with the mux cohort.
	for j := 0; j < tcpN; j++ {
		phase1.Add(1)
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var once sync.Once
			sig := func() { once.Do(phase1.Done) }
			defer sig()
			tenant := tenants[j%len(tenants)]
			p := soakVariants[j%len(soakVariants)]
			conn, err := net.Dial("tcp", env.tcpAddr)
			if err != nil {
				t.Errorf("tcp %d: dial: %v", j, err)
				return
			}
			defer conn.Close()
			hs := serve.AppendHandshake(nil, serve.Handshake{
				Tenant: tenant, Key: fmt.Sprintf("tcp-%d", j)})
			if _, err := conn.Write(append(hs, p[:len(p)/2]...)); err != nil {
				t.Errorf("tcp %d: write: %v", j, err)
				return
			}
			sig()
			<-release
			if _, err := conn.Write(p[len(p)/2:]); err != nil {
				t.Errorf("tcp %d: write: %v", j, err)
				return
			}
			conn.(*net.TCPConn).CloseWrite()
			out, err := io.ReadAll(conn)
			if err != nil {
				t.Errorf("tcp %d: read: %v", j, err)
				return
			}
			if !bytes.Equal(out, oracles[j%len(soakVariants)]) {
				t.Errorf("tcp %d: output mismatch:\n got %q\nwant %q",
					j, out, oracles[j%len(soakVariants)])
				return
			}
			clientTags.Add(int64(tagsPer[j%len(soakVariants)]))
		}(j)
	}

	// HTTP cohort: one chunked POST per stream, the body held open
	// across the barrier.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	for j := 0; j < httpN; j++ {
		phase1.Add(1)
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var once sync.Once
			sig := func() { once.Do(phase1.Done) }
			defer sig()
			tenant := tenants[j%len(tenants)]
			p := soakVariants[j%len(soakVariants)]
			pr, pw := io.Pipe()
			url := fmt.Sprintf("http://%s/v1/streams/%s/http-%d", env.httpAddr, tenant, j)
			go func() {
				pw.Write(p[:len(p)/2])
				sig()
				<-release
				pw.Write(p[len(p)/2:])
				pw.Close()
			}()
			resp, err := client.Post(url, "application/octet-stream", pr)
			if err != nil {
				t.Errorf("http %d: %v", j, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("http %d: status %d err %v", j, resp.StatusCode, err)
				return
			}
			if !bytes.Equal(body, oracles[j%len(soakVariants)]) {
				t.Errorf("http %d: output mismatch:\n got %q\nwant %q",
					j, body, oracles[j%len(soakVariants)])
				return
			}
			clientTags.Add(int64(tagsPer[j%len(soakVariants)]))
		}(j)
	}

	// Barrier: every cohort has opened all its streams and parked. Only
	// faulted mux streams may have ended (their ERR batch lands as soon
	// as a shard worker sees the trigger), so the concurrency floor is
	// everything else, live at one instant.
	phase1.Wait()
	floor := total - faulted
	soakWait(t, 5*time.Minute, fmt.Sprintf("%d concurrent sessions", floor),
		func() bool { return env.srv.ActiveSessions() >= floor })
	t.Logf("soak: %d sessions concurrently active (target floor %d, %d streams total)",
		env.srv.ActiveSessions(), floor, total)
	close(release)
	wg.Wait()

	// Every mux stream: faulted ones end in ERR, clean ones are
	// byte-identical to the oracle.
	for c := 0; c < conns; c++ {
		sc := scs[c]
		if sc == nil {
			continue // dial failed; already reported
		}
		if errOut, ok := sc.out["ERR!"]; ok {
			t.Errorf("conn %d: connection-level error: %q", c, errOut)
		}
		for i := 0; i < perConn; i++ {
			gi := c*perConn + i
			key := fmt.Sprintf("c%d-s%d", c, i)
			out := sc.out[key]
			if soakFault(gi) != nil {
				if !bytes.HasPrefix(out, []byte("ERR ")) || bytes.Count(out, []byte("\n")) != 1 {
					t.Errorf("faulted stream %s: got %q, want exactly one ERR line", key, out)
				}
				continue
			}
			want := oracles[gi%len(soakVariants)]
			if !bytes.Equal(out, want) {
				t.Errorf("stream %s: output mismatch:\n got %q\nwant %q", key, out, want)
				continue
			}
			clientTags.Add(int64(tagsPer[gi%len(soakVariants)]))
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Expected tag volume, computed independently of the wire.
	var wantTags int64
	for gi := 0; gi < muxTotal; gi++ {
		if soakFault(gi) == nil {
			wantTags += int64(tagsPer[gi%len(soakVariants)])
		}
	}
	for j := 0; j < tcpN; j++ {
		wantTags += int64(tagsPer[j%len(soakVariants)])
	}
	for j := 0; j < httpN; j++ {
		wantTags += int64(tagsPer[j%len(soakVariants)])
	}
	if got := clientTags.Load(); got != wantTags {
		t.Errorf("clients observed %d TAG lines, expected %d", got, wantTags)
	}

	// Reconcile /metrics against the client-observed counts.
	soakWait(t, time.Minute, "all sessions ended",
		func() bool { return env.srv.ActiveSessions() == 0 })
	resp, err := http.Get("http://" + env.httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	var matches, quarantined, panics int64
	for _, tn := range tenants {
		matches += metricValue(t, text, fmt.Sprintf("cfgtag_matches_total{tenant=%q}", tn))
		quarantined += metricValue(t, text, fmt.Sprintf("cfgtag_streams_quarantined_total{tenant=%q}", tn))
		panics += metricValue(t, text, fmt.Sprintf("cfgtag_panics_recovered_total{tenant=%q}", tn))
	}
	if matches != clientTags.Load() {
		t.Errorf("metrics report %d matches, clients saw %d TAG lines", matches, clientTags.Load())
	}
	if quarantined != int64(faulted) {
		t.Errorf("metrics report %d quarantined streams, injected %d faults", quarantined, faulted)
	}
	if panics == 0 {
		t.Error("metrics report no recovered panics; panic triggers did not fire")
	}
	if got := metricValue(t, text, "serve_sessions_opened_total"); got != int64(total) {
		t.Errorf("metrics report %d sessions opened, drove %d streams", got, total)
	}
	if got := metricValue(t, text, "serve_output_write_errors_total"); got != 0 {
		t.Errorf("metrics report %d output write errors, want 0", got)
	}
}

// TestServeDrainUnderLoad starts a shutdown while hundreds of streams are
// mid-flight and asserts none of their bytes are lost: every stream's
// output is still byte-identical to the oracle, new connections are
// refused during the drain, and Shutdown returns clean (no timeout).
func TestServeDrainUnderLoad(t *testing.T) {
	conns, perConn := 8, 50
	if testing.Short() {
		conns, perConn = 4, 25
	}
	env := startEnv(t, nil)
	want := oracleText(t, []byte(testPayload))
	payload := []byte(testPayload)
	half := len(payload) / 2

	release := make(chan struct{})
	var phase1, wg sync.WaitGroup
	scs := make([]*soakConn, conns)
	for c := 0; c < conns; c++ {
		phase1.Add(1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var once sync.Once
			sig := func() { once.Do(phase1.Done) }
			defer sig()
			sc, err := dialSoak(env.tcpAddr, "alpha")
			if err != nil {
				t.Errorf("conn %d: dial: %v", c, err)
				return
			}
			scs[c] = sc
			for i := 0; i < perConn; i++ {
				key := fmt.Sprintf("d%d-s%d", c, i)
				sc.open(key)
				sc.data(key, payload[:half])
			}
			if err := sc.w.Flush(); err != nil {
				t.Errorf("conn %d: flush: %v", c, err)
				return
			}
			sig()
			<-release
			for i := 0; i < perConn; i++ {
				key := fmt.Sprintf("d%d-s%d", c, i)
				sc.data(key, payload[half:])
				sc.closeStream(key)
			}
			if err := sc.finish(); err != nil {
				t.Errorf("conn %d: %v", c, err)
			}
		}(c)
	}
	phase1.Wait()
	soakWait(t, time.Minute, "all streams active",
		func() bool { return env.srv.ActiveSessions() == conns*perConn })

	// Start draining while every stream is mid-payload.
	shutRes := make(chan error, 1)
	go func() { shutRes <- env.srv.Shutdown(time.Minute) }()
	soakWait(t, time.Minute, "draining state", env.srv.Draining)

	// New connections are refused with a reason while the drain runs.
	if conn, err := net.Dial("tcp", env.tcpAddr); err == nil {
		out, _ := io.ReadAll(conn)
		conn.Close()
		if !bytes.Contains(out, []byte("draining")) {
			t.Errorf("connection during drain got %q, want draining refusal", out)
		}
	}

	// Release the in-flight clients; the drain must wait for them.
	close(release)
	wg.Wait()
	if err := <-shutRes; err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	for c := 0; c < conns; c++ {
		sc := scs[c]
		if sc == nil {
			continue
		}
		for i := 0; i < perConn; i++ {
			key := fmt.Sprintf("d%d-s%d", c, i)
			if out := sc.out[key]; !bytes.Equal(out, want) {
				t.Errorf("drained stream %s: got %q, want %q", key, out, want)
			}
		}
	}
	if n := env.srv.ActiveSessions(); n != 0 {
		t.Errorf("%d sessions survived the drain", n)
	}
}

// TestServeReloadUnderLoad reloads the tenant's grammar repeatedly while
// streams flow, including streams straddling each reload; every output
// stays byte-identical and the version set converges back to one. The
// reloads alternate two spellings of one grammar — a trailing newline
// apart — because a Reload with the running text publishes nothing.
func TestServeReloadUnderLoad(t *testing.T) {
	env := startEnv(t, nil)
	want := oracleText(t, []byte(testPayload))
	payload := []byte(testPayload)
	half := len(payload) / 2

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var streams atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("r%d-%d", w, i)
				out := tcpStream(t, env.tcpAddr, "alpha", key, payload)
				if !bytes.Equal(out, want) {
					t.Errorf("worker %d stream %d: got %q, want %q", w, i, out, want)
					return
				}
				streams.Add(1)
			}
		}(w)
	}

	const reloads = 5
	spellings := [2]string{testGrammar + "\n", testGrammar}
	for r := 0; r < reloads; r++ {
		// A stream that spans the reload: first half against the old
		// version, second half after the swap.
		mc := dialMux(t, env.tcpAddr, "alpha")
		mc.open("straddle")
		mc.data("straddle", payload[:half])
		if err := mc.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := env.platform.Reload("alpha", spellings[r%2]); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
		mc.data("straddle", payload[half:])
		mc.closeStream("straddle")
		out := mc.finish()
		if !bytes.Equal(out["straddle"], want) {
			t.Fatalf("straddling stream at reload %d: got %q, want %q",
				r, out["straddle"], want)
		}
	}
	close(stop)
	wg.Wait()
	if streams.Load() == 0 {
		t.Fatal("no background streams completed during reloads")
	}

	cur, err := env.platform.CurrentVersion("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if cur != 1+reloads {
		t.Fatalf("current version %d after %d reloads, want %d", cur, reloads, 1+reloads)
	}
	waitFor(t, func() bool {
		vs, err := env.platform.LiveVersions("alpha")
		return err == nil && len(vs) == 1 && vs[0] == cur
	})
}
