package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag"
)

// TCPOptions tunes one TCP listener.
type TCPOptions struct {
	// Tenant fixes the listener's tenant; required in Raw mode, ignored
	// otherwise (protocol connections name their tenant in the
	// handshake).
	Tenant string
	// Raw skips the wire protocol entirely: each connection is one
	// stream of Tenant, keyed by remote address, fed until EOF — the
	// xmlrouter-compatible mode.
	Raw bool
	// NoEcho suppresses writing tag events back to the client (used
	// when a fan-out routes the batches elsewhere, as xmlrouter's does).
	NoEcho bool
	// WriteTimeout bounds each write back to a client (0 = 30s); a
	// client that stops reading is dropped, never the pipeline.
	WriteTimeout time.Duration
}

func (o TCPOptions) writeTimeout() time.Duration {
	if o.WriteTimeout <= 0 {
		return 30 * time.Second
	}
	return o.WriteTimeout
}

// TCPInput accepts TCP connections carrying either raw single-stream
// payloads or the CFGTAG/1 protocol (dedicated STREAM connections and
// key-multiplexed MUX connections).
type TCPInput struct {
	ln  net.Listener
	opt TCPOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	rawSeq atomic.Int64
}

// NewTCPInput wraps an already-listening socket.
func NewTCPInput(ln net.Listener, opt TCPOptions) *TCPInput {
	return &TCPInput{ln: ln, opt: opt, conns: make(map[net.Conn]struct{})}
}

// Addr reports the listener address.
func (t *TCPInput) Addr() net.Addr { return t.ln.Addr() }

// Serve runs the accept loop until Close.
func (t *TCPInput) Serve(s *Server) error {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.Draining() {
			// Refuse, but tell the client why before hanging up (unless
			// the listener speaks a raw protocol with no write-backs).
			if !t.opt.NoEcho {
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				io.WriteString(conn, "ERR! draining\n")
			}
			conn.Close()
			s.CountRefusal()
			continue
		}
		if !t.track(conn) {
			conn.Close()
			return nil
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.untrack(conn)
			t.handle(s, conn)
		}()
	}
}

func (t *TCPInput) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *TCPInput) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// Close stops accepting, closes every live connection and joins the
// handlers. The server calls it in the last shutdown stage, after every
// session's final output line has been delivered.
func (t *TCPInput) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// connWriter serializes writes back to one connection with a per-write
// deadline and a sticky error: after the first failure every write fails
// fast, so a dead client costs nothing further. A write that misses its
// deadline is wrapped as ErrSlowConsumer and reported through onSlow —
// dropping a reader that stalled, not one that hung up, is a shedding
// decision worth counting separately.
//
// Everything bound for the connection goes through buf, in lock order:
// the streams' outputs append rendered batches and flush at the end of a
// sink run (see render), the reader goroutine's own lines go out
// behind whatever is buffered, so lock order is wire order.
type connWriter struct {
	mu      sync.Mutex
	c       net.Conn
	timeout time.Duration
	onSlow  func()
	onWrite func(n int) // counts one socket write of n bytes; may be nil
	err     error
	buf     []byte // rendered lines not yet written
	waiting bool   // on the server's flush list (see Server.flushLater)
}

// Write sends p behind whatever is buffered, in the same socket write.
func (cw *connWriter) Write(p []byte) (int, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.buf = append(cw.buf, p...)
	if err := cw.flushLocked(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// flush writes out what the connection's streams have buffered. A failure
// is not returned: it is sticky, and fails the connection's next batch.
func (cw *connWriter) flush() {
	cw.mu.Lock()
	cw.flushLocked()
	cw.mu.Unlock()
}

// flushLocked empties buf with one socket write; mu must be held. The
// write deadline is armed here, when the bytes leave, and the buffer is
// empty afterwards whatever the outcome: after an error nothing more is
// written, the sticky error fails every later call fast.
func (cw *connWriter) flushLocked() error {
	if len(cw.buf) == 0 {
		return nil
	}
	err := cw.writeLocked(cw.buf)
	if cap(cw.buf) > maxConnBuf {
		cw.buf = nil
	} else {
		cw.buf = cw.buf[:0]
	}
	return err
}

func (cw *connWriter) writeLocked(p []byte) error {
	if cw.err != nil {
		return cw.err
	}
	cw.c.SetWriteDeadline(time.Now().Add(cw.timeout))
	n, err := cw.c.Write(p)
	if cw.onWrite != nil {
		cw.onWrite(n)
	}
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			err = fmt.Errorf("%w: %v", ErrSlowConsumer, err)
			if cw.onSlow != nil {
				cw.onSlow()
			}
		}
		cw.err = err
	}
	return err
}

func (cw *connWriter) line(s string) { cw.Write(append([]byte(s), '\n')) }

// maxConnBuf bounds the buffer a connection keeps between flushes: one
// huge batch must not pin its rendering for the connection's life.
const maxConnBuf = 1 << 20

// connFlushBytes is the mark at which a connection's buffer is written
// although the sink run that fills it has not ended: it bounds what a
// long run holds back to one socket write's worth plus one batch.
const connFlushBytes = 32 << 10

// render writes one stream's tag batch back over the connection, behind
// prefix, adding its tags to the stream's running count. A batch is
// rendered into the connection's one buffer under the write lock; the
// buffer is written when the delivering sink worker's run ends (the batch
// has More unset) or it reaches connFlushBytes, so the batches a worker
// delivers back to back share a socket write and the streams of a
// multiplexed connection interleave at run granularity. Until then the
// connection waits on the server's flush list, which the batch ending the
// run empties — whichever connection that batch belongs to.
func (cw *connWriter) render(s *Server, b *cfgtag.TagBatch, prefix string, tags *int) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	// Checked before rendering: a dead connection costs nothing, and its
	// sessions go dead on their next batch.
	if cw.err != nil {
		return cw.err
	}
	cw.buf = b.AppendText(cw.buf, prefix, tags)
	if !b.More || len(cw.buf) >= connFlushBytes {
		return cw.flushLocked()
	}
	if !cw.waiting {
		cw.waiting = true
		s.flushLater(cw)
	}
	return nil
}

func (t *TCPInput) handle(s *Server, conn net.Conn) {
	defer conn.Close()
	cw := &connWriter{c: conn, timeout: t.opt.writeTimeout(), onSlow: s.CountSlowConsumer, onWrite: s.countWrite}
	// A session ends once its final line is rendered, which can be
	// before the sink run that carries it ends: write what is buffered
	// before hanging up.
	defer cw.flush()
	if t.opt.Raw {
		key := fmt.Sprintf("%s#%d", conn.RemoteAddr(), t.rawSeq.Add(1))
		t.pumpStream(s, conn, cw, t.opt.Tenant, key)
		return
	}
	fr := NewFrameReader(conn)
	hs, err := fr.ReadHandshake()
	if err != nil {
		cw.line("ERR! bad handshake")
		s.CountRefusal()
		return
	}
	if hs.Mux {
		t.pumpMux(s, fr, cw, hs.Tenant)
		return
	}
	t.pumpStream(s, fr.r, cw, hs.Tenant, hs.Key)
}

// echo is the connection a stream's lines render into: none with NoEcho.
func (t *TCPInput) echo(cw *connWriter) *connWriter {
	if t.opt.NoEcho {
		return nil
	}
	return cw
}

// pumpStream drives one dedicated-stream connection: register the
// session, pump bytes into it until EOF and wait for its final output
// line before hanging up. NoEcho keeps the session silent.
func (t *TCPInput) pumpStream(s *Server, r io.Reader, cw *connWriter, tenant, key string) {
	var ended sync.WaitGroup
	sess, err := s.OpenStream(tenant, key, "", t.echo(cw), nil, &ended)
	if err == nil {
		err = s.pump(sess, r)
	}
	s.letGo(sess)
	if err != nil {
		t.refuse(cw, "", err)
		return
	}
	// Wait for the final line to land before the socket closes. Server
	// shutdown ends every session once the core is closed, so this wait
	// always terminates.
	ended.Wait()
}

// refuse writes a stream's refusal as its final line.
func (t *TCPInput) refuse(cw *connWriter, prefix string, err error) {
	if !t.opt.NoEcho {
		cw.line(prefix + "ERR " + errText(err))
	}
}

// pumpMux drives one multiplexed connection: OPEN/DATA/CLOSE frames for
// many keyed streams, responses interleaved per batch with a "<key> "
// prefix. A key stays open until the client's CLOSE, after its final line
// too. On EOF every still-open stream is closed, and the connection stays
// up until each stream's final line is on its way out: one counter, ended,
// holds every stream the connection opened whose final line is to come.
func (t *TCPInput) pumpMux(s *Server, fr *FrameReader, cw *connWriter, tenant string) {
	var ended sync.WaitGroup
	open := make(map[string]*session)
	for {
		// ss is the session open holds for f.Key, nil if the key is not
		// open; prefix is f.Key and a space.
		f, ss, prefix, err := fr.readFrame(open)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				cw.line("ERR! " + err.Error())
			}
			break
		}
		switch {
		case f.Op == FrameOpen && ss != nil:
			t.refuse(cw, prefix, ErrDuplicateStream)
			s.CountRefusal()
		case f.Op == FrameOpen:
			if ss, err = s.OpenStream(tenant, f.Key, prefix, t.echo(cw), nil, &ended); err != nil {
				t.refuse(cw, prefix, err)
			}
			open[f.Key] = ss
		case ss == nil:
			cw.line(prefix + "ERR not open")
		case f.Op == FrameData:
			if err := s.send(ss, f.Payload); err != nil {
				t.refuse(cw, prefix, err)
			}
		case f.Op == FrameClose:
			delete(open, f.Key)
			if err := s.closeSession(ss); err != nil {
				t.refuse(cw, prefix, err)
			}
			s.letGo(ss)
		}
	}
	// Client is gone (or spoke garbage): close whatever it left open so
	// no stream leaks, then wait for every final line to go out.
	for _, ss := range open {
		if err := s.closeSession(ss); err != nil {
			t.refuse(cw, ss.prefix, err)
		}
		s.letGo(ss)
	}
	ended.Wait()
}
