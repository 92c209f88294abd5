package serve

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cfgtag"
)

// syncCore ends a stream inside CloseStream — its EOS batch is delivered
// before the call returns — except for the one key it is told to hold,
// whose EOS the test delivers itself.
type syncCore struct {
	s    *Server
	hold string
}

func (c *syncCore) Send(tenant, stream string, data []byte) error { return nil }
func (c *syncCore) Close() error                                  { return nil }
func (c *syncCore) CloseStream(tenant, stream string) error {
	if stream == c.hold {
		return nil
	}
	return c.s.Deliver(tenant, &cfgtag.TagBatch{Stream: stream, EOS: true})
}

// TestMuxPendingStaysBounded serves 12 000 streams on one MUX connection.
// The per-connection set of closed-but-unconfirmed sessions must not grow
// with the streams served, a session still waiting for its final line
// must survive every sweep, and the connection must stay up until that
// line is written.
func TestMuxPendingStaysBounded(t *testing.T) {
	const streams = 12000
	s := NewServer()
	core := &syncCore{s: s, hold: "held"}
	s.Bind(core)

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

	pending := &muxPending{}
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		defer server.Close()
		fr := NewFrameReader(server)
		if _, err := fr.ReadHandshake(); err != nil {
			t.Error(err)
			return
		}
		cw := &connWriter{c: server, timeout: time.Minute}
		NewTCPInput(nil, TCPOptions{}).pumpMux(s, fr, cw, "t", pending)
	}()

	var mu sync.Mutex
	ended := make(map[string]bool)
	read := make(chan struct{})
	go func() {
		defer close(read)
		sc := bufio.NewScanner(client)
		for sc.Scan() {
			key, rest, _ := strings.Cut(sc.Text(), " ")
			if rest != "END 0" {
				t.Errorf("unexpected line %q", sc.Text())
			}
			mu.Lock()
			ended[key] = true
			mu.Unlock()
		}
	}()

	wire := AppendHandshake(nil, Handshake{Tenant: "t", Mux: true})
	wire = AppendFrame(wire, Frame{Op: FrameOpen, Key: "held"})
	wire = AppendFrame(wire, Frame{Op: FrameClose, Key: "held"})
	for i := 0; i < streams; i++ {
		key := fmt.Sprintf("k%d", i)
		wire = AppendFrame(wire, Frame{Op: FrameOpen, Key: key})
		wire = AppendFrame(wire, Frame{Op: FrameData, Key: key, Payload: []byte("payload")})
		wire = AppendFrame(wire, Frame{Op: FrameClose, Key: key})
	}
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	// Every frame is parsed; only the held stream's final line is missing.
	waitUntil(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(ended) == streams })
	if n := s.ActiveSessions(); n != 1 {
		t.Fatalf("%d sessions active, want only the held one", n)
	}

	// Hanging up must not end the connection while a final line is owed.
	if err := client.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pumped:
		t.Fatal("pumpMux returned before the held stream's final line")
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.Deliver("t", &cfgtag.TagBatch{Stream: "held", EOS: true}); err != nil {
		t.Fatal(err)
	}
	<-pumped
	<-read
	if !ended["held"] {
		t.Fatal("connection closed without the held stream's final line")
	}

	// cap is the set's high-water mark: the sweep filters in place.
	if c := cap(pending.sess); c > 256 {
		t.Fatalf("pending set grew to %d sessions over %d streams, want it bounded", c, streams)
	}
	if n := s.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active", n)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
