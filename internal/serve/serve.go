package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag"
)

// Core is what the server serves: the multi-tenant Send/CloseStream
// surface of a cfgtag.Platform (which implements it directly), or any
// adapter with the same semantics — Send routes one chunk of a keyed
// stream, CloseStream ends it, and Close flushes every open stream and
// delivers its final (EOS) batch before returning. Send must not retain
// data: on a multiplexed connection it aliases the connection's read
// buffer, which the next frame overwrites.
type Core interface {
	Send(tenant, stream string, data []byte) error
	CloseStream(tenant, stream string) error
	Close() error
}

// Stats is the optional observability surface behind /metrics;
// *cfgtag.Platform implements it directly.
type Stats interface {
	Tenants() []string
	Metrics(tenant string) (cfgtag.BackendCounters, int, error)
	Faults(tenant string) (cfgtag.FaultStats, error)
	LiveVersions(tenant string) ([]int, error)
}

// Output receives one network stream's tag batches, in stream order; the
// batch with EOS set is the last, and a tag-less batch before it renders
// nothing, so it is not handed over. Deliver must not retain the batch.
// Output errors are absorbed by the server (counted, the output is
// dropped) rather than propagated into the pipeline's retry machinery —
// a client that stopped reading must not stall or fail a tenant.
type Output interface {
	Deliver(b *cfgtag.TagBatch) error
}

// TenantSink observes every delivered batch of every tenant — the
// fan-out hook for mirroring tag events into logs, brokers or test
// recorders. Unlike Output errors, a TenantSink error propagates into
// the pipeline's sink retry: retried with backoff, then failing the
// tenant's pipeline permanently.
type TenantSink func(tenant string, b *cfgtag.TagBatch) error

// ErrDrainTimeout is returned by Shutdown when live sessions were still
// open at the deadline; the remaining streams were then force-flushed
// through Core.Close (their EOS batches still delivered) before
// listeners closed. Test with errors.Is.
var ErrDrainTimeout = errors.New("serve: drain deadline exceeded")

// ErrDraining rejects new connections and new streams while the server
// drains. Test with errors.Is.
var ErrDraining = errors.New("serve: draining")

// ErrServerClosed is returned by operations on a server that has fully
// shut down. Test with errors.Is.
var ErrServerClosed = errors.New("serve: server closed")

// ErrDuplicateStream rejects opening a (tenant, key) session that is
// already open on the server. Test with errors.Is.
var ErrDuplicateStream = errors.New("serve: duplicate stream")

// ErrSlowConsumer marks a write back to a client that missed its write
// deadline: the client stopped reading faster than the server tags, so
// its output is dropped (the session goes dead) while the pipeline keeps
// flowing. Test with errors.Is against the connWriter's sticky error.
var ErrSlowConsumer = errors.New("serve: slow consumer")

// StreamInput is a pluggable stream source: an accept loop feeding the
// server's Core. Serve blocks until the input is closed; the server
// calls Close during the final shutdown stage, after every session's
// EOS batch has been delivered.
type StreamInput interface {
	Serve(s *Server) error
	Close() error
}

// Server states.
const (
	stateRunning int32 = iota
	stateDraining
	stateClosed
)

type sessKey struct{ tenant, key string }

// session is one network stream and the state that decides what the
// server does with its next bytes (see Server.refuse).
type session struct {
	tenant string
	key    string
	out    Output
	// done is closed once the stream has ended: its final batch is
	// rendered (a connection may still buffer the line; its handler
	// writes it out before hanging up), or no EOS batch will come.
	done chan struct{}

	sent bool // the core accepted a chunk or the close (feeding goroutine only)
	// final is set once the final line is written or on its way, by the
	// feeding goroutine or the EOS batch: the session takes no more bytes.
	final atomic.Bool

	// mu orders the output's batches against a refusal line; it is held
	// across Output.Deliver, so nothing renders after that line.
	mu    sync.Mutex
	muted bool // the output renders nothing more (refused, or its write failed)
}

// Server multiplexes stream inputs onto a Core and routes delivered tag
// batches back to each stream's Output. All methods are safe for
// concurrent use.
type Server struct {
	core  Core
	stats Stats

	state atomic.Int32

	mu       sync.Mutex
	sessions map[sessKey]*session
	drained  chan struct{} // non-nil while draining; closed at 0 sessions

	fanouts []TenantSink
	inputs  []StreamInput
	inputWG sync.WaitGroup

	shutdownMu sync.Mutex // serializes Shutdown

	// counters surfaced in /metrics
	opened        atomic.Int64 // sessions ever opened
	ended         atomic.Int64 // sessions fully ended
	refused       atomic.Int64 // conns/streams refused (draining, dup, quota…)
	writeErrors   atomic.Int64 // output writes dropped on client error
	slowConsumers atomic.Int64 // sessions gone dead on a write deadline
	outWrites     atomic.Int64 // socket writes back to clients
	outBytes      atomic.Int64 // bytes those writes carried

	// flushMu guards waiting: the connections holding rendered lines of a
	// sink run that has not ended. A leaf lock — held for a list operation
	// only, never across a write — because Deliver is shared by every
	// tenant's sink workers.
	flushMu sync.Mutex
	waiting []*connWriter
}

// NewServer returns a server with no inputs bound yet; call Bind, then
// AddInput/AddFanout/SetStats, then Start.
func NewServer() *Server {
	return &Server{sessions: make(map[sessKey]*session)}
}

// Bind attaches the core the inputs feed. It must be called before
// Start. Binding after construction (rather than at it) breaks the
// construction cycle with cfgtag.NewPlatform, whose deliver callback is
// the server's Deliver method.
func (s *Server) Bind(core Core) { s.core = core }

// SetStats attaches the /metrics data source.
func (s *Server) SetStats(st Stats) { s.stats = st }

// AddFanout registers an extra sink observing every delivered batch.
func (s *Server) AddFanout(fn TenantSink) { s.fanouts = append(s.fanouts, fn) }

// AddInput registers a stream input; Start runs its accept loop.
func (s *Server) AddInput(in StreamInput) { s.inputs = append(s.inputs, in) }

// Start launches every registered input's accept loop.
func (s *Server) Start() error {
	if s.core == nil {
		return errors.New("serve: Start before Bind")
	}
	for _, in := range s.inputs {
		in := in
		s.inputWG.Add(1)
		go func() {
			defer s.inputWG.Done()
			in.Serve(s)
		}()
	}
	return nil
}

// Draining reports whether the server has left the running state.
func (s *Server) Draining() bool { return s.state.Load() != stateRunning }

// ActiveSessions reports the number of open network streams.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Refused counts connections and streams turned away: draining,
// duplicate keys, and every Send or CloseStream refusal but a fault.
func (s *Server) Refused() int64 { return s.refused.Load() }

// CountRefusal lets inputs record a refusal they handled themselves.
func (s *Server) CountRefusal() { s.refused.Add(1) }

// CountSlowConsumer records a client write that missed its deadline.
func (s *Server) CountSlowConsumer() { s.slowConsumers.Add(1) }

// countWrite records one socket write back to a client.
func (s *Server) countWrite(n int) {
	s.outWrites.Add(1)
	s.outBytes.Add(int64(n))
}

// SlowConsumers counts sessions whose output went dead on a missed write
// deadline.
func (s *Server) SlowConsumers() int64 { return s.slowConsumers.Load() }

// OpenStream registers a live network stream and its output. It fails
// with ErrDraining once drain has begun and ErrDuplicateStream when the
// (tenant, key) session is already open; the session it returns then has
// already ended, and takes no bytes. A registered session ends when its
// EOS batch flows through Deliver, or when send or closeSession refuses it
// before the core took any of it.
func (s *Server) OpenStream(tenant, key string, out Output) (*session, error) {
	sk := sessKey{tenant, key}
	ss := &session{tenant: tenant, key: key, out: out, done: make(chan struct{})}
	s.mu.Lock()
	// Checked under mu — Shutdown flips the state under the same lock,
	// so no session can register after the drain waiter is armed.
	var err error
	if s.state.Load() != stateRunning {
		err = ErrDraining
	} else if _, ok := s.sessions[sk]; ok {
		err = fmt.Errorf("%w: %s/%s", ErrDuplicateStream, tenant, key)
	} else {
		s.sessions[sk] = ss
	}
	s.mu.Unlock()
	if err != nil {
		s.refused.Add(1)
		ss.final.Store(true)
		close(ss.done)
		return ss, err
	}
	s.opened.Add(1)
	return ss, nil
}

// send feeds one chunk of the session's stream to the core. A non-nil
// error is a refusal the input renders at once as the session's final
// line (or HTTP status). After the final line, and while one is on its
// way, the bytes are dropped and send returns nil.
func (s *Server) send(ss *session, p []byte) error {
	if ss.final.Load() {
		return nil
	}
	if err := s.core.Send(ss.tenant, ss.key, p); err != nil {
		return s.refuse(ss, err, false)
	}
	ss.sent = true
	return nil
}

// closeSession ends the client's side of the session's stream; its EOS
// batch brings the final line. An error is rendered like send's, and a
// session past its final line ends silently.
func (s *Server) closeSession(ss *session) error {
	if ss.final.Load() {
		return nil
	}
	if err := s.core.CloseStream(ss.tenant, ss.key); err != nil {
		return s.refuse(ss, err, true)
	}
	ss.sent = true
	return nil
}

// pump feeds r to the session until r ends, then closes it; its error is
// send's or closeSession's.
func (s *Server) pump(ss *session, r io.Reader) error {
	buf := make([]byte, 32<<10)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := s.send(ss, buf[:n]); err != nil {
				return err
			}
		}
		if rerr != nil {
			return s.closeSession(ss)
		}
	}
}

// refuse is the one rule for a Send or CloseStream (closing) error. It
// returns the error when the input must render it as the final line now.
//   - The core holds nothing of the stream (a reopened quarantined key,
//     say): the refusal is the final line, and the session ends.
//   - The stream faulted: its own fault batch is the final line.
//   - Otherwise the refusal is the final line unless the EOS batch was
//     rendered first, and the output renders nothing after it. The
//     session stays registered until its EOS batch, so no batch of the
//     stream can reach a reopened key; it ends now if none can come.
func (s *Server) refuse(ss *session, err error, closing bool) error {
	if !ss.sent {
		ss.final.Store(true)
		s.refused.Add(1)
		s.release(ss)
		return err
	}
	if errors.Is(err, cfgtag.ErrStreamQuarantined) {
		ss.final.Store(true)
		return nil
	}
	ss.mu.Lock()
	ss.muted = true
	ended := ss.final.Swap(true) // only the EOS batch sets it first
	ss.mu.Unlock()
	if ended {
		return nil
	}
	s.refused.Add(1)
	noEOS := closing
	if !closing {
		cerr := s.core.CloseStream(ss.tenant, ss.key)
		noEOS = cerr != nil && !errors.Is(cerr, cfgtag.ErrStreamQuarantined)
	}
	if noEOS {
		s.release(ss)
	}
	return err
}

// refusals classifies a refusal once for both inputs: the first row
// whose sentinels match gives the reason of a CFGTAG/1 ERR line and the
// HTTP status. Overload, budget exhaustion and quota are transient
// server-side pressure: the client should back off and retry. It sits
// beside refuse: the inputs render, refuse decides when.
var refusals = []struct {
	errs   []error
	text   string
	status int
}{
	{[]error{cfgtag.ErrOverloaded}, "overloaded", http.StatusTooManyRequests},
	{[]error{cfgtag.ErrResourceExhausted}, "resource exhausted", http.StatusTooManyRequests},
	{[]error{cfgtag.ErrQuotaExceeded}, "quota exceeded", http.StatusTooManyRequests},
	{[]error{cfgtag.ErrUnknownTenant}, "unknown tenant", http.StatusNotFound},
	{[]error{ErrDraining}, "draining", http.StatusServiceUnavailable},
	{[]error{ErrDuplicateStream}, "duplicate stream", http.StatusConflict},
	{[]error{cfgtag.ErrStreamQuarantined}, "quarantined", http.StatusConflict},
	{[]error{cfgtag.ErrPlatformClosed, cfgtag.ErrPipelineClosed}, "shutting down", http.StatusServiceUnavailable},
}

// refusal returns err's row of refusals: its ERR reason and HTTP status.
func refusal(err error) (string, int) {
	for _, r := range refusals {
		for _, e := range r.errs {
			if errors.Is(err, e) {
				return r.text, r.status
			}
		}
	}
	return "error", http.StatusInternalServerError
}

// errText renders a refusal as the reason of a CFGTAG/1 ERR line.
func errText(err error) string {
	text, _ := refusal(err)
	return text
}

// httpStatus renders a refusal as an HTTP status.
func httpStatus(err error) int {
	_, status := refusal(err)
	return status
}

// release ends a session that no EOS batch will end. Idempotent.
func (s *Server) release(ss *session) {
	s.mu.Lock()
	took := s.dropLocked(ss)
	s.mu.Unlock()
	if took {
		close(ss.done)
	}
}

// dropLocked unregisters ss if it is still registered, reporting whether
// it was, and signals the drain waiter when the last session goes; the
// caller closes ss.done.
func (s *Server) dropLocked(ss *session) bool {
	sk := sessKey{ss.tenant, ss.key}
	if s.sessions[sk] != ss {
		return false
	}
	delete(s.sessions, sk)
	s.ended.Add(1)
	if len(s.sessions) == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
	return true
}

// Deliver is the Core's deliver callback: it fans the batch out to the
// registered TenantSinks (whose errors propagate, feeding the pipeline's
// sink retry) and writes it to the stream's session output
// (whose errors are absorbed — the client is gone, the pipeline is not).
// On EOS the session is ended and its done channel closed.
//
// Connection outputs buffer while b.More is set; the batch that ends a
// sink worker's run (More unset) flushes every connection waiting on the
// server, its own or not, and does so even when a fan-out fails it.
//
// Each fan-out gets its own shallow copy of b, and the session key, EOS
// and More are read before any runs: a fan-out that rewrites its batch
// cannot reroute, drop or hold open the session's output.
// A tag-less batch other than the EOS renders nothing: it returns after
// the fan-outs, touching no session, and its More unset still flushes.
func (s *Server) Deliver(tenant string, b *cfgtag.TagBatch) error {
	sk, eos := sessKey{tenant, b.Stream}, b.EOS
	if !b.More {
		defer s.flushWaiting()
	}
	if len(s.fanouts) > 0 {
		c := new(cfgtag.TagBatch)
		for _, fn := range s.fanouts {
			*c = *b
			if err := fn(tenant, c); err != nil {
				return err
			}
		}
	}
	if !eos && len(b.Tags) == 0 {
		return nil
	}
	s.mu.Lock()
	ss := s.sessions[sk]
	if ss != nil && eos {
		s.dropLocked(ss)
	}
	s.mu.Unlock()
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	if eos {
		// Before the line leaves: a client that has read it finds the
		// session taking no more bytes.
		ss.final.Store(true)
	}
	if ss.out != nil && !ss.muted {
		if err := ss.out.Deliver(b); err != nil {
			ss.muted = true
			s.writeErrors.Add(1)
		}
	}
	ss.mu.Unlock()
	if eos {
		close(ss.done)
	}
	return nil
}

// flushLater puts a connection that buffered a batch with More set on the
// flush list; the connection's waiting flag keeps it to one entry.
func (s *Server) flushLater(cw *connWriter) {
	s.flushMu.Lock()
	s.waiting = append(s.waiting, cw)
	s.flushMu.Unlock()
}

// flushWaiting writes out every connection on the flush list. Entries are
// taken one at a time, so concurrent callers share the list and a caller
// stuck behind a slow consumer holds back that one connection only.
// Flushing a connection another sink worker is still filling is harmless:
// its lines only leave early.
func (s *Server) flushWaiting() {
	for {
		s.flushMu.Lock()
		n := len(s.waiting)
		if n == 0 {
			s.flushMu.Unlock()
			return
		}
		cw := s.waiting[n-1]
		s.waiting[n-1] = nil
		s.waiting = s.waiting[:n-1]
		s.flushMu.Unlock()

		cw.mu.Lock()
		cw.waiting = false
		cw.flushLocked() // a failure is sticky: the connection's next batch sees it
		cw.mu.Unlock()
	}
}

// Shutdown drains the server: stop accepting new connections and
// streams, wait up to timeout for live sessions to end on their own,
// then close the Core — flushing every remaining stream and delivering
// its EOS batch — and finally close the listeners. It returns
// ErrDrainTimeout (after still completing the shutdown) when sessions
// were force-flushed, ErrServerClosed on a repeat call, and otherwise
// the Core's close error.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.shutdownMu.Lock()
	defer s.shutdownMu.Unlock()
	if s.state.Load() == stateClosed {
		return ErrServerClosed
	}

	// Stage 1: refuse new work. Inputs consult Draining per connection
	// and OpenStream rejects, so existing sessions keep flowing.
	s.mu.Lock()
	var drained chan struct{}
	if len(s.sessions) > 0 {
		drained = make(chan struct{})
		s.drained = drained
	}
	s.state.Store(stateDraining)
	s.mu.Unlock()

	// Stage 2: wait for live sessions to finish naturally.
	var timedOut bool
	if drained != nil {
		if timeout <= 0 {
			<-drained
		} else {
			t := time.NewTimer(timeout)
			select {
			case <-drained:
				t.Stop()
			case <-t.C:
				timedOut = true
			}
		}
	}

	// Stage 3: close the core. Pipeline close semantics flush every
	// still-open stream and deliver its EOS batch — through Deliver and
	// the session outputs — before returning, so even a timed-out drain
	// puts a final END/ERR line on every client before the sockets go.
	var closeErr error
	if s.core != nil {
		closeErr = s.core.Close()
	}

	// Once the core is closed no EOS batch is still coming: a session
	// still registered has no route to its end (its batches were dropped
	// with a failed sink, say). Release its waiters before joining the
	// inputs, whose handlers may be waiting on it.
	s.mu.Lock()
	for _, ss := range s.sessions {
		s.dropLocked(ss)
		close(ss.done)
	}
	s.mu.Unlock()

	// Stage 4: close listeners and connections, join the accept loops.
	s.state.Store(stateClosed)
	for _, in := range s.inputs {
		in.Close()
	}
	s.inputWG.Wait()

	if timedOut {
		return ErrDrainTimeout
	}
	return closeErr
}
