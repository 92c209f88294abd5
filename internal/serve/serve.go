package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag"
)

// Core is what the server serves: the multi-tenant Send/CloseStream
// surface of a cfgtag.Platform (which implements it directly), or any
// adapter with the same semantics — Send routes one chunk of a keyed
// stream, CloseStream ends it, and Close flushes every open stream and
// delivers its final (EOS) batch before returning.
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
// batch with EOS set is the last. Deliver must not retain the batch.
// Output errors are absorbed by the server (counted, the output is
// dropped) rather than propagated into the pipeline's retry machinery —
// a client that stopped reading must not stall or dead-letter a tenant.
type Output interface {
	Deliver(b *cfgtag.TagBatch) error
}

// TenantSink observes every delivered batch of every tenant — the
// fan-out hook for mirroring tag events into logs, brokers or test
// recorders. Unlike Output errors, a TenantSink error propagates into
// the pipeline's sink retry/dead-letter machinery.
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

// session is one live network stream: its output and its completion
// signal, closed when the stream's EOS batch has been delivered (or the
// session aborted before admission).
type session struct {
	tenant string
	key    string
	out    Output
	dead   bool // output write failed; keep consuming, stop writing
	done   chan struct{}
}

// Done is closed once the session's stream has fully ended — its EOS
// batch delivered and rendered into the output. A connection output may
// still hold the line in its buffer; the connection's handler writes the
// buffer out before it hangs up.
func (ss *session) Done() <-chan struct{} { return ss.done }

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

// Core returns the bound core (for input implementations).
func (s *Server) Core() Core { return s.core }

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

// Refused counts connections and streams turned away (draining,
// duplicate keys, quota rejections surfaced by inputs via CountRefusal).
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
// (tenant, key) session is already open. The session must be ended —
// normally by the EOS batch flowing through Deliver, or explicitly with
// EndStream on paths where no EOS will ever arrive (admission failures).
func (s *Server) OpenStream(tenant, key string, out Output) (*session, error) {
	sk := sessKey{tenant, key}
	ss := &session{tenant: tenant, key: key, out: out, done: make(chan struct{})}
	s.mu.Lock()
	// Checked under mu — Shutdown flips the state under the same lock,
	// so no session can register after the drain waiter is armed.
	if s.state.Load() != stateRunning {
		s.mu.Unlock()
		s.refused.Add(1)
		return nil, ErrDraining
	}
	if _, ok := s.sessions[sk]; ok {
		s.mu.Unlock()
		s.refused.Add(1)
		return nil, fmt.Errorf("%w: %s/%s", ErrDuplicateStream, tenant, key)
	}
	s.sessions[sk] = ss
	s.mu.Unlock()
	s.opened.Add(1)
	return ss, nil
}

// EndStream ends a session that will never see an EOS batch: one whose
// Send or CloseStream failed, a refusal at admission included.
// Idempotent; unknown sessions are ignored.
func (s *Server) EndStream(tenant, key string) {
	s.mu.Lock()
	ss := s.takeSessionLocked(sessKey{tenant, key})
	s.mu.Unlock()
	if ss != nil {
		close(ss.done)
	}
}

// takeSessionLocked removes and returns the session (nil if absent) and
// signals the drain waiter when the last one goes.
func (s *Server) takeSessionLocked(sk sessKey) *session {
	ss, ok := s.sessions[sk]
	if !ok {
		return nil
	}
	delete(s.sessions, sk)
	s.ended.Add(1)
	if len(s.sessions) == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
	return ss
}

// Deliver is the Core's deliver callback: it fans the batch out to the
// registered TenantSinks (whose errors propagate, feeding the pipeline's
// retry/DLQ machinery) and writes it to the stream's session output
// (whose errors are absorbed — the client is gone, the pipeline is not).
// On EOS the session is ended and its Done channel closed.
//
// Connection outputs buffer while b.More is set; the batch that ends a
// sink worker's run (More unset) flushes every connection waiting on the
// server, its own or not, and does so even when a fan-out fails it.
//
// Each fan-out gets its own shallow copy of b, and the session key, EOS
// and More are read before any runs: a fan-out that rewrites its batch
// cannot reroute, drop or hold open the session's output.
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
	s.mu.Lock()
	ss := s.sessions[sk]
	if ss != nil && eos {
		s.takeSessionLocked(sk)
	}
	s.mu.Unlock()
	if ss == nil {
		return nil
	}
	if ss.out != nil && !ss.dead {
		if err := ss.out.Deliver(b); err != nil {
			ss.dead = true
			s.writeErrors.Add(1)
		}
	}
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

	// Stage 4: close listeners and connections, join the accept loops.
	s.state.Store(stateClosed)
	for _, in := range s.inputs {
		in.Close()
	}
	s.inputWG.Wait()

	// Any session still registered had no EOS route at all (e.g. its
	// core was closed out from under it); release its waiters.
	s.mu.Lock()
	for sk := range s.sessions {
		if ss := s.takeSessionLocked(sk); ss != nil {
			close(ss.done)
		}
	}
	s.mu.Unlock()

	if timedOut {
		return ErrDrainTimeout
	}
	return closeErr
}
