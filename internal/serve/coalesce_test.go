package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cfgtag"
)

// Write-back coalescing, driven deterministically: hand-built batches go
// straight into Server.Deliver, the way a sink worker calls it, against a
// connection that records every socket write.

// recConn is a net.Conn that keeps each Write as its own record, unless
// told to discard them.
type recConn struct {
	mu      sync.Mutex
	writes  [][]byte
	discard bool
}

func (c *recConn) Write(p []byte) (int, error) {
	if !c.discard {
		c.mu.Lock()
		c.writes = append(c.writes, append([]byte(nil), p...))
		c.mu.Unlock()
	}
	return len(p), nil
}

func (c *recConn) taken() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

func (c *recConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *recConn) Close() error                     { return nil }
func (c *recConn) LocalAddr() net.Addr              { return nil }
func (c *recConn) RemoteAddr() net.Addr             { return nil }
func (c *recConn) SetDeadline(time.Time) error      { return nil }
func (c *recConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

// muxSession opens one keyed stream of a multiplexed connection the way
// pumpMux does.
func muxSession(t *testing.T, s *Server, cw *connWriter, key string) {
	t.Helper()
	if _, err := s.OpenStream("t", key, key+" ", cw, nil, new(sync.WaitGroup)); err != nil {
		t.Fatal(err)
	}
}

func newRecWriter(s *Server) (*recConn, *connWriter) {
	c := &recConn{}
	return c, &connWriter{c: c, timeout: time.Minute, onSlow: s.CountSlowConsumer, onWrite: s.countWrite}
}

// tagBatch builds a batch of n tags for key.
func tagBatch(key string, n int, more bool) *cfgtag.TagBatch {
	b := &cfgtag.TagBatch{Stream: key, More: more}
	for i := 0; i < n; i++ {
		b.Tags = append(b.Tags, cfgtag.Match{Term: "STRING", Context: "methodName[1]", Index: i, End: int64(10 * i)})
	}
	return b
}

// TestServeCoalesceRun: ten batches with More set and one without leave as
// exactly one socket write holding all eleven in delivery order.
func TestServeCoalesceRun(t *testing.T) {
	s := NewServer()
	conn, cw := newRecWriter(s)
	muxSession(t, s, cw, "a")
	muxSession(t, s, cw, "b")

	var want []byte
	totals := map[string]*int{"a": new(int), "b": new(int)}
	for i := 0; i < 11; i++ {
		key := "ab"[i%2 : i%2+1]
		b := tagBatch(key, 1+i%3, i < 10)
		b.EOS = i >= 9 // both streams end inside the run
		want = b.AppendText(want, key+" ", totals[key])
		if err := s.Deliver("t", b); err != nil {
			t.Fatal(err)
		}
		if i < 10 {
			if w := conn.taken(); len(w) != 0 {
				t.Fatalf("batch %d with More set caused %d writes", i, len(w))
			}
		}
	}
	w := conn.taken()
	if len(w) != 1 {
		t.Fatalf("run of 11 batches left in %d writes, want 1", len(w))
	}
	if !bytes.Equal(w[0], want) {
		t.Fatalf("write differs from AppendText of the same batches:\n got %q\nwant %q", w[0], want)
	}
	if n := s.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active", n)
	}
	text := s.MetricsText()
	for _, line := range []string{"serve_output_writes_total 1", fmt.Sprintf("serve_output_bytes_total %d", len(want))} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestServeCoalesceMark: a run that never ends is written at the
// connFlushBytes mark, and never holds back more than the mark plus the
// batch that crossed it.
func TestServeCoalesceMark(t *testing.T) {
	s := NewServer()
	conn, cw := newRecWriter(s)
	muxSession(t, s, cw, "a")

	var want, got []byte
	total := 0
	batchLen := 0
	for i := 0; i < 400; i++ {
		b := tagBatch("a", 20, true)
		before := len(want)
		want = b.AppendText(want, "a ", &total)
		batchLen = len(want) - before
		if err := s.Deliver("t", b); err != nil {
			t.Fatal(err)
		}
		for _, w := range conn.taken() {
			if len(w) < connFlushBytes || len(w) >= connFlushBytes+batchLen {
				t.Fatalf("write of %d bytes, want [%d, %d)", len(w), connFlushBytes, connFlushBytes+batchLen)
			}
			got = append(got, w...)
		}
		if n := len(cw.buf); n >= connFlushBytes {
			t.Fatalf("%d bytes buffered after batch %d, want < %d", n, i, connFlushBytes)
		}
	}
	if len(got) < connFlushBytes {
		t.Fatalf("no write at the mark after %d rendered bytes", len(want))
	}
	got = append(got, cw.buf...)
	if !bytes.Equal(got, want) {
		t.Fatal("writes plus buffer differ from the rendered batches")
	}
}

// TestServeCoalesceCrossConn: the batch that ends a run flushes every
// connection the run dirtied, not only its own.
func TestServeCoalesceCrossConn(t *testing.T) {
	s := NewServer()
	connA, cwA := newRecWriter(s)
	connB, cwB := newRecWriter(s)
	muxSession(t, s, cwA, "a")
	muxSession(t, s, cwB, "b")

	a := tagBatch("a", 3, true)
	a.EOS = true
	if err := s.Deliver("t", a); err != nil {
		t.Fatal(err)
	}
	if w := connA.taken(); len(w) != 0 {
		t.Fatalf("A written before the run ended: %q", w)
	}
	if err := s.Deliver("t", tagBatch("b", 1, false)); err != nil {
		t.Fatal(err)
	}
	wa, wb := connA.taken(), connB.taken()
	if len(wa) != 1 || !bytes.HasSuffix(wa[0], []byte("a END 3\n")) {
		t.Fatalf("A's lines not on the wire when the run ended on B: %q", wa)
	}
	if len(wb) != 1 {
		t.Fatalf("B got %d writes, want 1", len(wb))
	}
	if len(s.waiting) != 0 || cwA.waiting {
		t.Fatalf("flush list not emptied: %d entries, A waiting=%v", len(s.waiting), cwA.waiting)
	}

	// A fan-out failing the last batch of a run must not strand A either.
	muxSession(t, s, cwA, "a2")
	if err := s.Deliver("t", tagBatch("a2", 1, true)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("fan-out down")
	s.AddFanout(func(string, *cfgtag.TagBatch) error { return boom })
	if err := s.Deliver("t", tagBatch("b", 1, false)); !errors.Is(err, boom) {
		t.Fatalf("Deliver = %v, want the fan-out error", err)
	}
	if wa := connA.taken(); len(wa) != 1 {
		t.Fatalf("A got %d writes after a failed run end, want 1", len(wa))
	}
}

// moreCore is a Core whose streams echo from inside Send and CloseStream
// with More set on every batch: a sink worker that always has more queued.
type moreCore struct{ s *Server }

func (c *moreCore) Close() error { return nil }
func (c *moreCore) Send(tenant, stream string, data []byte) error {
	return c.s.Deliver(tenant, tagBatch(stream, 1, true))
}
func (c *moreCore) CloseStream(tenant, stream string) error {
	b := tagBatch(stream, 0, true)
	b.EOS = true
	return c.s.Deliver(tenant, b)
}

// serveConn runs one connection handler over a loopback socket: the client
// sends wire, half-closes, and reads until the server hangs up.
func serveConn(t *testing.T, s *Server, wire []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		NewTCPInput(nil, TCPOptions{}).handle(s, server)
	}()
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	if err := client.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	<-handled
	return string(got)
}

// TestServeStreamEndBuffered: a STREAM connection whose EOS batch was
// rendered with More set still gets its END line before the server hangs
// up — the session is done at render time, the handler flushes.
func TestServeStreamEndBuffered(t *testing.T) {
	s := NewServer()
	s.Bind(&moreCore{s: s})
	wire := append(AppendHandshake(nil, Handshake{Tenant: "t", Key: "job"}), "payload"...)
	got := serveConn(t, s, wire)
	if want := "TAG 0 0 STRING methodName[1]\nEND 1\n"; got != want {
		t.Fatalf("client read %q before EOF, want %q", got, want)
	}
}

// TestServeWireOrderReaderLine: a line the reader goroutine writes itself
// goes out behind the TAG lines already buffered for the connection.
func TestServeWireOrderReaderLine(t *testing.T) {
	s := NewServer()
	s.Bind(&moreCore{s: s})
	wire := AppendHandshake(nil, Handshake{Tenant: "t", Mux: true})
	wire = AppendFrame(wire, Frame{Op: FrameOpen, Key: "a"})
	wire = AppendFrame(wire, Frame{Op: FrameData, Key: "a", Payload: []byte("x")})
	wire = AppendFrame(wire, Frame{Op: FrameData, Key: "b", Payload: []byte("x")})
	wire = AppendFrame(wire, Frame{Op: FrameClose, Key: "a"})
	got := serveConn(t, s, wire)
	if want := "a TAG 0 0 STRING methodName[1]\nb ERR not open\na END 1\n"; got != want {
		t.Fatalf("wire order:\n got %q\nwant %q", got, want)
	}
}

// TestServeDeferredFlushSlowConsumer: a deferred flush that misses its
// write deadline counts the slow consumer once, and the connection's next
// batch fails fast, taking the session dead.
func TestServeDeferredFlushSlowConsumer(t *testing.T) {
	client, server := net.Pipe() // nobody reads the client end
	defer client.Close()
	defer server.Close()
	s := NewServer()
	cw := &connWriter{c: server, timeout: 20 * time.Millisecond, onSlow: s.CountSlowConsumer, onWrite: s.countWrite}
	muxSession(t, s, cw, "a")
	_, cwB := newRecWriter(s)
	muxSession(t, s, cwB, "b")

	if err := s.Deliver("t", tagBatch("a", 2, true)); err != nil {
		t.Fatal(err)
	}
	if n := s.SlowConsumers(); n != 0 {
		t.Fatalf("slow consumers = %d before any write", n)
	}
	if err := s.Deliver("t", tagBatch("b", 1, false)); err != nil {
		t.Fatal(err)
	}
	if n := s.SlowConsumers(); n != 1 {
		t.Fatalf("slow consumers = %d after the deferred flush missed its deadline, want 1", n)
	}
	if len(cw.buf) != 0 {
		t.Fatalf("%d bytes still buffered for a dead connection", len(cw.buf))
	}

	start := time.Now()
	if err := s.Deliver("t", tagBatch("a", 2, false)); err != nil {
		t.Fatal(err) // output errors are absorbed
	}
	if waited := time.Since(start); waited > 10*time.Millisecond {
		t.Errorf("Deliver on a dead connection waited %v, want fail-fast", waited)
	}
	if n := s.writeErrors.Load(); n != 1 {
		t.Errorf("write errors = %d, want 1 (the session gone dead)", n)
	}
	if n := s.SlowConsumers(); n != 1 {
		t.Errorf("slow consumers = %d after the sticky failure, want still 1", n)
	}
	if len(cw.buf) != 0 {
		t.Errorf("a dead connection rendered %d bytes", len(cw.buf))
	}
}

// countOutput counts the batches it is handed.
type countOutput struct{ n int }

func (o *countOutput) Deliver(*cfgtag.TagBatch) error {
	o.n++
	return nil
}

// TestServeTaglessFanoutOnly: a tag-less batch that is not the EOS reaches
// every fan-out, with More set or not, but not the session's output.
func TestServeTaglessFanoutOnly(t *testing.T) {
	s := NewServer()
	fanned := 0
	s.AddFanout(func(tenant string, b *cfgtag.TagBatch) error {
		if tenant == "t" && b.Stream == "a" {
			fanned++
		}
		return nil
	})
	out := &countOutput{}
	if _, err := s.OpenStream("t", "a", "", nil, out, new(sync.WaitGroup)); err != nil {
		t.Fatal(err)
	}
	for _, more := range []bool{true, false} {
		if err := s.Deliver("t", tagBatch("a", 0, more)); err != nil {
			t.Fatal(err)
		}
	}
	if fanned != 2 || out.n != 0 {
		t.Fatalf("tag-less batches: fan-out saw %d, output %d; want 2 and 0", fanned, out.n)
	}
	if err := s.Deliver("t", tagBatch("a", 1, false)); err != nil {
		t.Fatal(err)
	}
	if fanned != 3 || out.n != 1 {
		t.Fatalf("tagged batch: fan-out saw %d, output %d; want 3 and 1", fanned, out.n)
	}
}

// TestServeTaglessRunEnd: a tag-less batch that ends a sink run still
// flushes the lines another connection buffered earlier in the run.
func TestServeTaglessRunEnd(t *testing.T) {
	s := NewServer()
	connA, cwA := newRecWriter(s)
	connB, cwB := newRecWriter(s)
	muxSession(t, s, cwA, "a")
	muxSession(t, s, cwB, "b")

	a := tagBatch("a", 2, true)
	want := a.AppendText(nil, "a ", new(int))
	if err := s.Deliver("t", a); err != nil {
		t.Fatal(err)
	}
	if w := connA.taken(); len(w) != 0 {
		t.Fatalf("A written before the run ended: %q", w)
	}
	if err := s.Deliver("t", tagBatch("b", 0, false)); err != nil {
		t.Fatal(err)
	}
	if wa := connA.taken(); len(wa) != 1 || !bytes.Equal(wa[0], want) {
		t.Fatalf("A's lines after a tag-less run end: %q, want one write %q", wa, want)
	}
	if wb := connB.taken(); len(wb) != 0 {
		t.Fatalf("B's tag-less batch wrote %q", wb)
	}
	if len(s.waiting) != 0 || cwA.waiting {
		t.Fatalf("flush list not emptied: %d entries, A waiting=%v", len(s.waiting), cwA.waiting)
	}
}

// TestServeTaglessEOS: a tag-less EOS batch still renders END with the
// stream's tag count and ends the session, which goes back to the pool
// once its input lets go of it.
func TestServeTaglessEOS(t *testing.T) {
	s := NewServer()
	conn, cw := newRecWriter(s)
	var ended sync.WaitGroup
	ss, err := s.OpenStream("t", "a", "a ", cw, nil, &ended)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 0, 1} {
		if err := s.Deliver("t", tagBatch("a", n, true)); err != nil {
			t.Fatal(err)
		}
	}
	eos := tagBatch("a", 0, false)
	eos.EOS = true
	if err := s.Deliver("t", eos); err != nil {
		t.Fatal(err)
	}
	w := conn.taken()
	if len(w) != 1 || !bytes.HasSuffix(w[0], []byte("a END 3\n")) {
		t.Fatalf("writes after a tag-less EOS: %q, want one ending %q", w, "a END 3\n")
	}
	done := make(chan struct{})
	go func() { ended.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("session not ended after its EOS batch")
	}
	if n := s.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active", n)
	}
	s.letGo(ss)
	if n := s.held.Load(); n != 0 {
		t.Fatalf("%d sessions checked out after the input let go", n)
	}
}

// TestServeTaglessDeadConn: once a connection's write has failed, each of
// its sessions is counted in writeErrors on its next batch that renders,
// not on a tag-less one.
func TestServeTaglessDeadConn(t *testing.T) {
	client, server := net.Pipe()
	client.Close() // every write to server fails
	defer server.Close()
	s := NewServer()
	cw := &connWriter{c: server, timeout: time.Minute, onSlow: s.CountSlowConsumer, onWrite: s.countWrite}
	muxSession(t, s, cw, "a")
	muxSession(t, s, cw, "b")

	steps := []struct {
		key  string
		tags int
		want int64
	}{
		{"a", 1, 1}, // the failed write mutes a
		{"b", 0, 1}, // renders nothing: b not counted yet
		{"b", 0, 1},
		{"b", 1, 2}, // b's next rendering batch finds the connection dead
		{"a", 1, 2}, // a is muted already
	}
	for i, st := range steps {
		if err := s.Deliver("t", tagBatch(st.key, st.tags, false)); err != nil {
			t.Fatal(err)
		}
		if n := s.writeErrors.Load(); n != st.want {
			t.Fatalf("step %d (%s, %d tags): write errors = %d, want %d", i, st.key, st.tags, n, st.want)
		}
	}
}
