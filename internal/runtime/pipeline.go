package runtime

import (
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag/internal/stream"
)

// ErrClosed is returned by Send, CloseStream and a second Close once the
// pipeline has been closed. The rejection is clean: a Send racing Close
// either enqueues fully (its batch is flushed and delivered before Close
// returns) or fails with ErrClosed — bytes are never partially accepted
// and never silently dropped.
var ErrClosed = errors.New("runtime: pipeline is closed")

// ErrQuarantined is returned by Send and CloseStream while a stream key is
// quarantined: its backend previously failed or panicked, and repeat
// traffic is rejected at the front door — cheaply, without re-creating a
// backend — until the quarantine TTL expires. Test with errors.Is.
var ErrQuarantined = errors.New("runtime: stream is quarantined")

// ErrBackendPanic wraps a panic recovered from a Backend's Feed or Close.
// The panicking stream's final batch carries it in Batch.Err with EOS set;
// the process survives. Test with errors.Is.
var ErrBackendPanic = errors.New("runtime: backend panicked")

// ErrSinkPanic wraps a panic recovered from Sink.Deliver. It is treated
// like a Deliver error: retried, then dead-lettered or escalated to a
// permanent sink failure. Test with errors.Is.
var ErrSinkPanic = errors.New("runtime: sink panicked")

// ErrOverloaded is returned by Send in shed mode (Config.SendTimeout != 0)
// when the target shard's queue stayed full past the timeout. The chunk is
// not accepted — bytes are never partially enqueued — and surviving
// streams are untouched: the caller decides whether to retry, back off, or
// end the stream. Test with errors.Is.
var ErrOverloaded = errors.New("runtime: pipeline overloaded")

// ErrResourceExhausted marks a stream stopped by a resource budget: the
// per-stream pending-match bound (Limits) or a tenant memory budget
// (Quota.MemBudgetBytes). A budgeted stream ends with an error-carrying EOS
// batch and its key is quarantined like any other backend fault. Test with
// errors.Is.
var ErrResourceExhausted = errors.New("runtime: resource budget exhausted")

// ErrBackendStalled marks a backend call (Feed or Close) the watchdog
// caught running past Config.FeedDeadline. Go code cannot be interrupted,
// so the verdict lands when the call finally returns: the stream ends with
// an error-carrying EOS batch and its key is quarantined. A call that
// never returns is still counted in FaultStats.WatchdogTrips. Test with
// errors.Is.
var ErrBackendStalled = errors.New("runtime: backend stalled")

// ErrBreakerOpen is the error a batch is dead-lettered with while a sink
// worker's circuit breaker is open (see Config.BreakerThreshold). Test
// with errors.Is.
var ErrBreakerOpen = errors.New("runtime: sink circuit breaker open")

// DefaultQuarantine is the stream-quarantine TTL used when Config leaves
// Quarantine zero.
const DefaultQuarantine = 30 * time.Second

// DefaultBatchBytes is the per-shard coalescing target used when
// Config.BatchBytes is zero.
const DefaultBatchBytes = 64 << 10

// maxPooledBufCap bounds chunk-arena retention in the unit pool: one huge
// chunk must not pin a multi-megabyte allocation for the pipeline's
// lifetime, so a larger arena is dropped for the GC when its unit is
// recycled.
const maxPooledBufCap = 1 << 20

// maxPooledTagCap bounds tag-buffer retention the same way, per unit: it
// is sized so the buffer of a full dense unit (64 KiB of XML-RPC confirm
// ~8 000 tags) survives recycling — a tighter, batch-sized bound would
// drop and regrow the buffer on every dense unit.
const maxPooledTagCap = 32768

// matchBytes is the size of one stream.Match (two words), for memory
// accounting.
const matchBytes = 16

// sinkBackoffCap caps the exponential Deliver-retry backoff.
const sinkBackoffCap = 250 * time.Millisecond

// DefaultBreakerCooldown is how long an open sink circuit breaker sheds
// before its half-open probe when Config.BreakerCooldown is zero.
const DefaultBreakerCooldown = time.Second

// Batch is one unit of Sink delivery: the chunk of stream bytes a shard
// just processed and the detections it confirmed. Offsets in Tags are
// absolute within the stream identified by Key. A Batch is a slot of a
// pooled dispatch unit: the *Batch itself, like Data and Tags, is valid
// only until Deliver (or DeadLetter) returns, and a later batch may be
// delivered at the same address.
type Batch struct {
	// Key identifies the stream the chunk belongs to.
	Key string
	// Shard is the shard that owns the stream.
	Shard int
	// Data is the chunk's bytes. The backing storage is a pooled arena
	// shared with the other batches of one dispatch unit: it is valid
	// only until Deliver returns.
	Data []byte
	// Tags are the detections confirmed by this chunk (and, on EOS, the
	// final flush), in input order with absolute End offsets. The slice is
	// this batch's window (len == cap) into the unit's shared tag buffer,
	// pooled like Data: valid only until Deliver returns (copy to retain).
	Tags []stream.Match
	// EOS marks the stream's final batch. Besides CloseStream, a stream
	// ends when its backend errors or panics (Err is set), when it is
	// evicted (Evicted is set), or on pipeline Close.
	EOS bool
	// Evicted marks a synthetic EOS batch flushed because the stream was
	// the least-recently-active one on a shard at its MaxStreams cap.
	Evicted bool
	// Err carries the backend's Close error on EOS (nil from the served
	// table). A failed or panicking Feed also ends the stream,
	// reporting here with EOS set.
	Err error
	// Version identifies the backend factory version that produced this
	// batch's tags (see SwapFactory); the batch is delivered through that
	// version's sink.
	Version int
	// More is set by the delivering sink worker, just before Deliver: the
	// worker already holds another batch it will deliver right after this
	// one. A sink that buffers its output may keep buffering while More is
	// set; a batch with More unset ends the worker's run — its queue was
	// empty — and is the cue to flush. The last batch a worker delivers
	// before Close returns always has More unset.
	More bool

	// ver is the factory version that tagged the batch: its sink delivers
	// the batch, and an EOS batch releases the stream's binding to it once
	// delivered.
	ver *factoryVersion
	// tagEnd is where the batch's window into its unit's tag buffer ends
	// (it starts where the previous batch's ends); emit turns the marks
	// into Tags once the buffer has stopped growing.
	tagEnd int
}

// Sink consumes completed tag batches. Each factory version has its own
// (see SwapFactory): a batch is delivered through the sink of the version
// that tagged it, and Close is called once, when that version retires or,
// for the current version, at Pipeline.Close. With the default single sink
// worker, Deliver is called from one goroutine; with Config.SinkWorkers >
// 1 the shards are partitioned across workers and the Sink must be safe
// for concurrent Deliver calls. Either way batches of one stream arrive in
// order on one goroutine. Deliver must not retain b, b.Data or b.Tags past
// the call (copy what it keeps): all three are recycled when it returns
// nil, and b keeps its address only across the retries of one delivery. A
// Deliver error or panic is retried with backoff (see Config); wrap an
// error with PermanentError to fail the pipeline immediately instead.
type Sink interface {
	Deliver(b *Batch) error
	Close() error
}

// SinkFunc adapts a function to the Sink interface (with a no-op Close).
type SinkFunc func(b *Batch) error

// Deliver calls f.
func (f SinkFunc) Deliver(b *Batch) error { return f(b) }

// Close is a no-op.
func (SinkFunc) Close() error { return nil }

// permanentError marks a Deliver error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// PermanentError marks err as a permanent sink failure: Deliver errors
// wrapped by it are not retried — the pipeline records the failure at
// once and Send starts returning it.
func PermanentError(err error) error { return &permanentError{err: err} }

func isPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Config tunes a Pipeline.
type Config struct {
	// Shards is the number of tagging shards (0 = GOMAXPROCS). Each
	// shard runs one goroutine owning the Backends of the streams
	// dispatched to it.
	Shards int
	// Queue is each shard's input queue capacity, in message batches
	// (0 = 64). Send blocks when the target shard's queue is full —
	// natural backpressure.
	Queue int
	// Factory creates the per-stream Backend (required).
	Factory Factory
	// Metrics receives the pipeline's counters: bytes, matches, recovery
	// events, collisions, cache stats, the queue-depth high-water mark and
	// the fault-tolerance events of every shard. NewPipeline allocates one
	// when it is nil.
	Metrics *MetricCounters
	// MaxStreams caps the live streams per shard (0 = unlimited). When a
	// new stream would push a shard past the cap, the shard's least-
	// recently-active stream is evicted: its backend is flushed and
	// closed, and its final batch is delivered with EOS and Evicted set.
	MaxStreams int
	// Quarantine is the TTL a stream key stays poisoned after its
	// backend errors or panics; Send and CloseStream reject the key with
	// ErrQuarantined until it expires. 0 selects DefaultQuarantine; a
	// negative value disables quarantining.
	Quarantine time.Duration
	// BatchBytes is the per-shard dispatch-coalescing target: Send copies
	// chunks into a pooled arena and hands the shard one batch when the
	// arena reaches this size or when the shard's queue is empty (a shard
	// that drains its queue takes the pending batch itself). 0 selects
	// DefaultBatchBytes; a negative value disables coalescing (every Send
	// dispatches immediately).
	BatchBytes int
	// SinkWorkers is the number of sink-delivery goroutines (0 or 1 = a
	// single worker, the safe default). With more than one, shards are
	// partitioned across workers — batches of one stream always stay on
	// one worker, in order — and the Sink must be safe for concurrent
	// Deliver calls. Capped at Shards.
	SinkWorkers int
	// SinkAttempts is the number of Deliver attempts per batch,
	// including the first (0 = 3; 1 disables retry). Retries back off
	// exponentially from SinkBackoff with jitter, capped at 250ms.
	SinkAttempts int
	// SinkBackoff is the base delay before the first Deliver retry
	// (0 = 1ms).
	SinkBackoff time.Duration
	// DeadLetter, when set, receives each batch whose Deliver attempts
	// were exhausted on a transient error; the pipeline then carries on
	// with the next batch. When nil, an exhausted batch escalates to a
	// permanent sink failure instead. Like Deliver, the hook must not
	// retain b, b.Data or b.Tags past the call. It runs on the delivering
	// sink worker.
	DeadLetter func(b *Batch, err error)
	// SendTimeout selects the overload policy at dispatch. 0 (the
	// default) keeps the blocking behavior: Send waits while the target
	// shard's queue is full. Non-zero enables admission control: a Send
	// that finds the queue full is shed with ErrOverloaded — immediately
	// when SendTimeout is negative, or after waiting up to SendTimeout for
	// the queue to drain when positive. CloseStream always blocks
	// regardless, so streams can always close.
	SendTimeout time.Duration
	// FeedDeadline arms the backend watchdog: a Feed or Close call
	// running past this deadline counts a watchdog trip, and when it
	// finally returns, its stream ends with an ErrBackendStalled EOS
	// batch and a quarantined key. 0 disables the watchdog.
	FeedDeadline time.Duration
	// BreakerThreshold is the number of consecutive exhausted deliveries
	// (all SinkAttempts failed) that open a sink worker's circuit
	// breaker: while open, the worker stops calling Deliver and sheds
	// batches straight to DeadLetter with ErrBreakerOpen; after
	// BreakerCooldown one half-open probe decides whether to close it.
	// 0 disables the breaker; enabling it requires DeadLetter.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before the
	// half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Mem, when set, aggregates the pipeline's estimated memory: dispatch
	// units checked out of the pool charge it with their arena and their
	// tag buffer, and a factory built with the same gauge in its Limits
	// charges what its streams share (the table's states). Send enforces
	// Quota.MemBudgetBytes against it.
	Mem *MemGauge
	// Quota is the admission quota Send checks before enqueueing (see
	// Quota); the zero value is unlimited. CloseStream is never refused by
	// it.
	Quota Quota
}

// Pipeline is the sharded runtime: messages enter via Send, are coalesced
// into per-shard batches, dispatched to a shard by stream key, flow
// through that stream's Backend, and the resulting tag batches are
// delivered to the Sink by the sink workers. Send/CloseStream are safe for
// concurrent use.
//
// The pipeline is fault-isolating: a Backend panic is recovered and
// converted into an error-carrying EOS batch, the offending stream key is
// quarantined for Config.Quarantine, and Sink failures are retried before
// they become fatal. Only a permanent sink failure (see PermanentError and
// Config.DeadLetter) stops delivery; it is observable through Err and
// returned by subsequent Sends.
type Pipeline struct {
	cfg     Config
	m       *MetricCounters // cfg.Metrics, never nil
	shards  []*shard
	sinkChs []chan *unit

	// Config.Quota trackers, each nil while its limit is unlimited.
	bucket *tokenBucket
	live   *liveSet

	units sync.Pool // *unit, recycled after its last Deliver

	shardWG sync.WaitGroup
	sinkWG  sync.WaitGroup
	wdWG    sync.WaitGroup
	wdStop  chan struct{} // closed by Close to stop the watchdog

	// stateMu guards closed; dispatch holds the read side across its
	// enqueue so Close never closes a channel with a send in flight.
	stateMu sync.RWMutex
	closed  bool

	// verMu guards the factory-version registry: the current version,
	// per-version stream counts and retirement (see version.go).
	verMu     sync.Mutex
	curVer    *factoryVersion
	liveVers  map[int]*factoryVersion
	nextVerID int

	// sinkErr is the first permanent sink failure, published once.
	sinkErr atomic.Pointer[error]
	// closeErr is the first Sink.Close error of any version, published once.
	closeErr atomic.Pointer[error]
}

// msgRef is one message inside a unit: a window into the unit's arena plus
// the stream-end flag.
type msgRef struct {
	key string
	off int
	n   int
	eos bool
}

// unit is the one pooled object that travels Send → shard → sink worker →
// pool. enqueue coalesces chunks into data and msgs; the shard completes
// the unit in place, appending one Batch per message (plus eviction
// flushes) and letting the backends append their detections to tags; the
// sink worker delivers &batches[i] in order and returns the unit to the
// pool with its arena and tag buffer still attached. Tags travel the way
// bytes do: a batch owns a window of the shared buffer, so a chunk that
// confirms nothing costs no match storage.
type unit struct {
	data    []byte
	msgs    []msgRef
	batches []Batch
	tags    []stream.Match
	// charged is what the unit currently holds on Config.Mem: the
	// capacities of data and tags, in bytes.
	charged int64
	// fed counts the bytes of the unit's accepted Feeds; emit adds it to
	// the metrics once per unit.
	fed int64
}

// streamEntry is one live stream on a shard: its Backend plus its position
// in the shard's recency list (front = most recently active). ver is the
// factory version the stream bound at creation; it is released after the
// stream's final batch is delivered.
type streamEntry struct {
	key string
	b   Backend
	el  *list.Element
	ver *factoryVersion
}

// shard owns the streams hashed to it: one Backend per live stream key,
// kept in recency order for MaxStreams eviction, plus the quarantine table
// consulted by dispatch before accepting the key's traffic, plus the
// pending dispatch batch Sends coalesce into.
type shard struct {
	id      int
	in      chan *unit
	streams map[string]*streamEntry
	lru     *list.List // of *streamEntry
	p       *Pipeline

	pendMu sync.Mutex
	pend   *unit
	space  sync.Cond // on pendMu: a queue slot freed or pend taken (see flushPendLocked)

	// drainSig is pulsed (non-blockingly) by run() after each batch it
	// drains, waking one shed-mode Send waiting out its SendTimeout.
	drainSig chan struct{}

	quarMu sync.Mutex
	quar   map[string]time.Time // key -> quarantine expiry
	quarN  atomic.Int32         // entries in quar (lock-free fast path)
	reaper *time.Timer          // sweeps quar; armed while it is non-empty

	// Watchdog in-flight record, armed only when FeedDeadline > 0: when
	// the backend call running on this shard's goroutine started, if any.
	wdMu    sync.Mutex
	wdStart time.Time // zero = no call in flight
	wdFired bool      // the trip for this call is already counted
}

// NewPipeline starts the shard and sink-worker goroutines, plus the
// watchdog when FeedDeadline is set. Close releases them. Version 1 is
// cfg.Factory delivering through sink.
func NewPipeline(cfg Config, sink Sink) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Factory == nil {
		return nil, &ConfigError{Field: "Factory", Value: nil, Reason: "a backend factory is required"}
	}
	if sink == nil {
		return nil, fmt.Errorf("runtime: sink is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = goruntime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &MetricCounters{}
	}
	if cfg.Quota.MemBudgetBytes > 0 && cfg.Mem == nil {
		cfg.Mem = &MemGauge{}
	}
	// Defaults resolve in place. The two negative switches stay negative:
	// Quarantine < 0 fails every "> 0" check, and BatchBytes < 0 is a
	// target every arena has reached, so each message flushes alone.
	if cfg.Quarantine == 0 {
		cfg.Quarantine = DefaultQuarantine
	}
	if cfg.BatchBytes == 0 {
		cfg.BatchBytes = DefaultBatchBytes
	}
	if cfg.SinkAttempts <= 0 {
		cfg.SinkAttempts = 3
	}
	if cfg.SinkBackoff <= 0 {
		cfg.SinkBackoff = time.Millisecond
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	p := &Pipeline{cfg: cfg, m: cfg.Metrics, wdStop: make(chan struct{})}
	if cfg.Quota.BytesPerSec > 0 {
		p.bucket = newTokenBucket(cfg.Quota.BytesPerSec)
	}
	if cfg.Quota.MaxStreams > 0 {
		p.live = &liveSet{max: cfg.Quota.MaxStreams, keys: make(map[string]struct{})}
	}
	p.units.New = func() any { return new(unit) }

	// SwapFactory publishes version 1's successors.
	p.nextVerID = 1
	p.curVer = &factoryVersion{id: 1, factory: cfg.Factory, sink: sink}
	p.liveVers = map[int]*factoryVersion{1: p.curVer}

	for w := 0; w < min(max(cfg.SinkWorkers, 1), cfg.Shards); w++ {
		ch := make(chan *unit, cfg.Queue)
		p.sinkChs = append(p.sinkChs, ch)
		p.sinkWG.Add(1)
		go p.sinkWorker(ch, w, 0x5eed5eed^int64(w)*0x9e3779b9)
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			id:       i,
			in:       make(chan *unit, cfg.Queue),
			streams:  make(map[string]*streamEntry),
			lru:      list.New(),
			quar:     make(map[string]time.Time),
			drainSig: make(chan struct{}, 1),
			p:        p,
		}
		s.space.L = &s.pendMu
		p.shards = append(p.shards, s)
		p.shardWG.Add(1)
		go s.run()
	}
	if cfg.FeedDeadline > 0 {
		p.wdWG.Add(1)
		go p.watchdog()
	}
	return p, nil
}

// Shards reports the pipeline width.
func (p *Pipeline) Shards() int { return len(p.shards) }

// Send dispatches one chunk of the stream identified by key. The data is
// copied into a pooled arena, so the caller may reuse it immediately.
// Chunks coalesce into per-shard batches that flush when full or when the
// shard's queue is empty; an accepted chunk is always delivered, even if
// Close follows immediately. Send blocks while the target shard's queue
// is full. After Close it fails with ErrClosed and the chunk is not
// accepted; a quarantined key fails with ErrQuarantined, and after a
// permanent sink failure every Send fails with that failure.
// Chunks accepted before a stream's backend faulted but not yet processed
// are discarded (the stream already received its error-carrying EOS
// batch).
func (p *Pipeline) Send(key string, data []byte) error {
	return p.dispatch(key, data, false)
}

// CloseStream ends one stream: its Backend is flushed and closed, and the
// final batch reaches the Sink with EOS set. After Close it fails with
// ErrClosed (Close already flushed every open stream); a quarantined key
// fails with ErrQuarantined (its EOS batch was already delivered when the
// backend faulted).
func (p *Pipeline) CloseStream(key string) error {
	return p.dispatch(key, nil, true)
}

// Err reports the first permanent sink failure, nil while the sink is
// healthy. Once set it never changes, Send and CloseStream return it, and
// subsequent batches are dropped (after buffer recycling) rather than
// delivered.
func (p *Pipeline) Err() error {
	if e := p.sinkErr.Load(); e != nil {
		return *e
	}
	return nil
}

func (p *Pipeline) dispatch(key string, data []byte, eos bool) error {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if err := p.Err(); err != nil {
		return err
	}
	s := p.shards[p.shardFor(key)]
	if p.cfg.Quarantine > 0 && s.poisoned(key) {
		return fmt.Errorf("%w: %q", ErrQuarantined, key)
	}
	var added bool
	var err error
	if !eos {
		if added, err = p.admitQuota(key, len(data)); err != nil {
			return err
		}
		if p.cfg.SendTimeout != 0 {
			err = s.admit(key)
		}
	}
	if err == nil {
		err = s.enqueue(key, data, eos)
	}
	if err != nil {
		if added {
			// Refused after the quota took a slot: give it back.
			p.live.release(key)
		}
		return err
	}
	p.m.maxQueue.Max(int64(len(s.in)))
	return nil
}

// admit is shed-mode admission control: a Send that finds the shard queue
// full is rejected with ErrOverloaded — immediately when SendTimeout < 0,
// or after waiting up to SendTimeout for the shard to free a slot. The
// depth reads are racy by design; the enqueue-level flush guard is the
// exact arbiter.
func (s *shard) admit(key string) error {
	p := s.p
	if len(s.in) < cap(s.in) {
		return nil
	}
	if p.cfg.SendTimeout > 0 {
		timer := time.NewTimer(p.cfg.SendTimeout)
		defer timer.Stop()
		for {
			select {
			case <-s.drainSig:
				if len(s.in) < cap(s.in) {
					return nil
				}
			case <-timer.C:
				return s.shed(key)
			}
		}
	}
	return s.shed(key)
}

// shed records one rejected Send and returns its typed error.
func (s *shard) shed(key string) error {
	s.p.m.shed.Add(1)
	return fmt.Errorf("%w: shard %d queue full (%q rejected)", ErrOverloaded, s.id, key)
}

// enqueue appends one message to the shard's pending batch, flushing it
// when the arena target is reached, when coalescing is off, or when the
// shard queue is empty (nothing would be gained by waiting: the shard is
// starved, so latency wins over amortization). That last rule is the
// invariant the shard relies on (see next): whenever pendMu is released
// with a pending message, a unit is queued in front of it.
//
// In shed mode (SendTimeout != 0) the flushes are non-blocking: when the
// full arena cannot be handed off because the queue is full, the message
// is shed with ErrOverloaded *before* being appended — bytes are never
// partially accepted — and an already-complete pending batch simply stays
// pending until the shard drains its queue and takes it. EOS messages
// always take the blocking path so streams can always close.
func (s *shard) enqueue(key string, data []byte, eos bool) error {
	p := s.p
	canBlock := p.cfg.SendTimeout == 0 || eos
	s.pendMu.Lock()
	// A chunk that does not fit the pending arena hands it off first. A
	// blocking flush may wait, letting other senders move the arena and
	// start the next one, so look again until the chunk fits.
	for u := s.pend; u != nil && len(u.data) > 0 && len(u.data)+len(data) > cap(u.data); u = s.pend {
		if !s.flushPendLocked(canBlock) {
			s.pendMu.Unlock()
			return s.shed(key)
		}
	}
	if s.pend == nil {
		s.pend = p.getUnit()
	}
	u := s.pend
	if len(data) > 0 {
		if len(data) > cap(u.data) {
			// Only an empty arena can be too small (the flush above saw to
			// that): a fresh unit has none, a recycled one may have been
			// sized for smaller chunks.
			u.data = make([]byte, 0, max(p.cfg.BatchBytes, len(data)))
			p.settle(u)
		}
		off := len(u.data)
		u.data = append(u.data, data...)
		u.msgs = append(u.msgs, msgRef{key: key, off: off, n: len(data), eos: eos})
	} else {
		u.msgs = append(u.msgs, msgRef{key: key, eos: eos})
	}
	if len(u.data) >= p.cfg.BatchBytes || len(s.in) == 0 {
		s.flushPendLocked(canBlock)
	}
	s.pendMu.Unlock()
	return nil
}

// flushPendLocked hands the pending batch to the shard goroutine; pendMu
// must be held. Every send into s.in happens here, under pendMu, and none
// blocks: with block set, a full queue makes the flush wait on space,
// which releases pendMu until the shard frees a slot or takes the batch
// itself, and the wait ends once the batch is out, whoever moved it. So
// the shard can always take pendMu. Without block a full queue leaves the
// batch pending and reports false.
func (s *shard) flushPendLocked(block bool) bool {
	for u := s.pend; u != nil && u == s.pend && len(u.msgs) > 0; s.space.Wait() {
		select {
		case s.in <- u:
			s.pend = nil
			return true
		default:
		}
		if !block {
			return false
		}
	}
	return true
}

// shardFor hashes the stream key onto a shard (inline FNV-1a, allocation
// free).
func (p *Pipeline) shardFor(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(len(p.shards)))
}

// Close flushes the pending dispatch batches and every open stream
// (delivering its EOS batch, which retires every superseded version),
// stops the shards and the sink workers, and closes the current version's
// sink last. It returns the permanent sink failure if there is one, and
// otherwise the first Sink.Close error of any version. A second Close
// fails with ErrClosed.
func (p *Pipeline) Close() error {
	p.stateMu.Lock()
	if p.closed {
		p.stateMu.Unlock()
		return fmt.Errorf("runtime: pipeline already closed: %w", ErrClosed)
	}
	p.closed = true
	p.stateMu.Unlock()

	// No Send can append anymore (closed is set), so the residual batches
	// are stable; flush them before closing the shard channels.
	for _, s := range p.shards {
		s.pendMu.Lock()
		s.flushPendLocked(true)
		s.pendMu.Unlock()
		close(s.in)
	}
	p.shardWG.Wait()
	close(p.wdStop)
	p.wdWG.Wait()
	for _, s := range p.shards {
		s.quarMu.Lock()
		if s.reaper != nil {
			s.reaper.Stop()
		}
		s.quarMu.Unlock()
	}
	for _, ch := range p.sinkChs {
		close(ch)
	}
	p.sinkWG.Wait()

	p.closeSink(p.curVer)
	if err := p.Err(); err != nil {
		return err
	}
	if e := p.closeErr.Load(); e != nil {
		return *e
	}
	return nil
}

// getUnit checks a unit out of the pool. The memory gauge tracks
// checked-out units — arena and tag buffer together, so a tenant's budget
// sees its tags as well as its bytes: charged here, kept current by settle
// when either buffer is replaced, discharged in putUnit. Idle pool
// capacity is bounded by the two retention caps and not counted.
func (p *Pipeline) getUnit() *unit {
	u := p.units.Get().(*unit)
	p.settle(u)
	return u
}

// settle brings the unit's memory-gauge charge up to date with the
// capacities it holds now.
func (p *Pipeline) settle(u *unit) {
	if now := int64(cap(u.data)) + matchBytes*int64(cap(u.tags)); now != u.charged {
		p.cfg.Mem.Add(now - u.charged)
		u.charged = now
	}
}

// putUnit returns a unit to the pool once nothing references its batches:
// the charge is released, every reference the slots hold is dropped, and a
// buffer past its retention cap goes to the GC instead of the pool.
func (p *Pipeline) putUnit(u *unit) {
	p.cfg.Mem.Add(-u.charged)
	u.charged, u.fed = 0, 0
	clear(u.msgs)
	clear(u.batches)
	u.msgs, u.batches = u.msgs[:0], u.batches[:0]
	u.data, u.tags = u.data[:0], u.tags[:0]
	if cap(u.data) > maxPooledBufCap {
		u.data = nil
	}
	if cap(u.tags) > maxPooledTagCap {
		u.tags = nil
	}
	p.units.Put(u)
}

// poisoned reports whether key is quarantined: in the table and not yet
// expired (the reaper deletes expired entries). Called from dispatch (any
// goroutine) and the shard goroutine; the atomic counter keeps the
// healthy path lock-free.
func (s *shard) poisoned(key string) bool {
	if s.quarN.Load() == 0 {
		return false
	}
	s.quarMu.Lock()
	until, ok := s.quar[key]
	s.quarMu.Unlock()
	return ok && !time.Now().After(until)
}

// poison quarantines key for the configured TTL (no-op when disabled).
// The insert that makes the table non-empty arms the reaper, which then
// sweeps it once per TTL until it is empty again: a churn of unique
// faulted keys holds the table at the keys of the last two TTLs instead
// of growing it forever.
func (s *shard) poison(key string) {
	if s.p.cfg.Quarantine <= 0 {
		return
	}
	s.quarMu.Lock()
	if len(s.quar) == 0 {
		if s.reaper == nil {
			s.reaper = time.AfterFunc(s.p.cfg.Quarantine, s.reap)
		} else {
			s.reaper.Reset(s.p.cfg.Quarantine)
		}
	}
	if _, ok := s.quar[key]; !ok {
		s.quarN.Add(1)
	}
	s.quar[key] = time.Now().Add(s.p.cfg.Quarantine)
	s.quarMu.Unlock()
	s.p.m.quarantined.Add(1)
}

// reap is the reaper's callback: it deletes the expired entries and
// re-arms itself one TTL out while any remain.
func (s *shard) reap() {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	now := time.Now()
	for k, until := range s.quar {
		if now.After(until) {
			delete(s.quar, k)
			s.quarN.Add(-1)
		}
	}
	if len(s.quar) > 0 {
		s.reaper.Reset(s.p.cfg.Quarantine)
	}
}

// run is the shard loop: per-stream Backend lifecycle and batch emission.
// Each unit is completed in place — one Batch per message, detections
// appended to the unit's tag buffer — and handed on to its sink worker.
// When the input channel closes (pipeline Close), still-open streams are
// flushed with synthetic EOS batches so sinks always see stream ends.
func (s *shard) run() {
	defer s.p.shardWG.Done()
	for u := s.next(); u != nil; u = s.next() {
		for i := range u.msgs {
			m := &u.msgs[i]
			var data []byte
			if m.n > 0 {
				data = u.data[m.off : m.off+m.n]
			}
			s.process(m.key, data, m.eos, u)
		}
		s.emit(u)
		// Wake one shed-mode Send waiting on admission: a queue slot just
		// freed up.
		select {
		case s.drainSig <- struct{}{}:
		default:
		}
	}
	u := s.p.getUnit()
	for _, e := range s.streams {
		s.end(u, e, nil, nil, false)
	}
	s.emit(u)
}

// next returns the shard's next unit, nil once Close has closed the
// queue. The shard is work-conserving: when its queue is empty it takes
// the pending unit itself, so a partial batch never waits for a timer.
// Going to sleep on an empty queue strands nothing: enqueue flushes
// whenever the queue is empty, so a message left pending always has a
// unit queued in front of it, after which the shard looks again. Every
// return frees a queue slot or takes the pending unit, either of which
// may end a flush waiting on space.
func (s *shard) next() *unit {
	defer s.space.Broadcast()
	for {
		select {
		case u := <-s.in:
			return u
		default:
		}
		s.pendMu.Lock()
		u, idle := s.pend, len(s.in) == 0
		if idle && u != nil && len(u.msgs) > 0 {
			s.pend = nil
		} else {
			u = nil
		}
		s.pendMu.Unlock()
		if u != nil {
			return u
		}
		if idle {
			return <-s.in
		}
	}
}

// call makes one guarded, timed backend call — Feed of data, or Close
// when data is nil — appending what it confirms to the unit's tag buffer.
// The buffer is reassigned only when the call returns: after a panic the
// unit keeps what it held before, and the panic becomes an error wrapping
// ErrBackendPanic, so a hostile stream cannot take the process down. With
// the watchdog armed the call runs under the shard's in-flight record. Go
// code cannot be interrupted, so a call that outran FeedDeadline gets its
// ErrBackendStalled verdict when it returns; one that never returns is
// still counted by the watchdog. A Feed the backend accepts counts its
// bytes on the unit.
func (s *shard) call(e *streamEntry, data []byte, u *unit) (err error) {
	p := s.p
	origin := "Feed"
	if data == nil {
		origin = "Close"
	}
	if p.cfg.FeedDeadline > 0 {
		s.wdMu.Lock()
		s.wdStart, s.wdFired = time.Now(), false
		s.wdMu.Unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			p.m.panics.Add(1)
			err = fmt.Errorf("%w (in %s): %v", ErrBackendPanic, origin, r)
		}
		if p.cfg.FeedDeadline <= 0 {
			return
		}
		s.wdMu.Lock()
		elapsed, fired := time.Since(s.wdStart), s.wdFired
		s.wdStart = time.Time{}
		s.wdMu.Unlock()
		if elapsed > p.cfg.FeedDeadline {
			if !fired {
				// The call outran the deadline between watchdog ticks; it
				// still counts exactly once per overdue call.
				p.m.watchdogTrips.Add(1)
			}
			if err == nil {
				err = fmt.Errorf("%w: %s on %q took %v (deadline %v)", ErrBackendStalled, origin, e.key, elapsed, p.cfg.FeedDeadline)
			}
		}
	}()
	if data == nil {
		u.tags, err = e.b.Close(u.tags)
	} else if u.tags, err = e.b.Feed(data, u.tags); err == nil {
		u.fed += int64(len(data))
	}
	return err
}

// watchdog is the pipeline's stall detector: it scans every shard's
// in-flight backend call on a fraction of FeedDeadline and counts a trip
// (once per call) when one is overdue. The verdict on the stream lands in
// call when the call returns.
func (p *Pipeline) watchdog() {
	defer p.wdWG.Done()
	t := time.NewTicker(max(p.cfg.FeedDeadline/4, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-p.wdStop:
			return
		case <-t.C:
		}
		now := time.Now()
		for _, s := range p.shards {
			s.wdMu.Lock()
			if !s.wdStart.IsZero() && !s.wdFired && now.Sub(s.wdStart) > p.cfg.FeedDeadline {
				s.wdFired = true
				p.m.watchdogTrips.Add(1)
			}
			s.wdMu.Unlock()
		}
	}
}

// end retires a stream with its final batch, whichever way it ends: on
// CloseStream, on a Feed or factory fault (err), on eviction (evicted),
// and in the flush at pipeline Close. A stream with a backend gets one
// last call, to Close; what it flushes is kept unless a Feed fault ended
// the stream, whose backend state is suspect. The stream leaves the shard
// (its backend's counters fold into the metrics: a backend is minted per
// stream, so they cover its whole life), and its EOS batch carries the
// fault or the Close error plus the factory-version binding, which the
// sink worker releases after delivery. Quarantine and the end counters are
// decided here only.
func (s *shard) end(u *unit, e *streamEntry, data []byte, err error, evicted bool) {
	b := Batch{Key: e.key, Shard: s.id, Data: data, EOS: true, Evicted: evicted, Err: err, Version: e.ver.id, ver: e.ver}
	if e.b != nil {
		n := len(u.tags)
		if cerr := s.call(e, nil, u); err != nil {
			u.tags = u.tags[:n]
		} else {
			b.Err = cerr
		}
		delete(s.streams, e.key)
		s.lru.Remove(e.el)
		s.p.m.addStream(e.b.Counters())
	}
	if faulted(err, b.Err) {
		s.poison(e.key)
	}
	if evicted {
		s.p.m.evicted.Add(1)
	}
	if errors.Is(b.Err, ErrResourceExhausted) {
		s.p.m.resExhausted.Add(1)
	}
	b.tagEnd = len(u.tags)
	u.batches = append(u.batches, b)
}

// faulted is the quarantine predicate. A stream ended by a Feed or
// factory error (feedErr) faulted, and so did one whose Close panicked,
// tripped a budget or stalled. A plain Close error is the backend's
// verdict on its input, and eviction is the pipeline's own choice:
// neither is a fault.
func faulted(feedErr, err error) bool {
	return feedErr != nil || errors.Is(err, ErrBackendPanic) ||
		errors.Is(err, ErrResourceExhausted) || errors.Is(err, ErrBackendStalled)
}

func (s *shard) process(key string, data []byte, eos bool, u *unit) {
	if s.p.cfg.Quarantine > 0 && s.poisoned(key) {
		// The stream already received its error-carrying EOS batch when
		// it was poisoned; queued leftovers are discarded cheaply (their
		// bytes are recycled with the unit).
		return
	}
	e, ok := s.streams[key]
	if !ok {
		// Evict only for streams that will actually persist: a pure
		// close of an unknown key creates and immediately retires its
		// backend, so it must not push a live stream out.
		if max := s.p.cfg.MaxStreams; max > 0 && !eos && len(s.streams) >= max {
			s.end(u, s.lru.Back().Value.(*streamEntry), nil, nil, true)
		}
		// The stream binds the factory version current at creation and
		// keeps it for life; a concurrent SwapFactory only affects
		// streams created after it.
		e = &streamEntry{key: key, ver: s.p.acquireVersion()}
		b, err := e.ver.factory()
		if err != nil {
			s.end(u, e, nil, err, false)
			return
		}
		e.b = b
		e.el = s.lru.PushFront(e)
		s.streams[key] = e
	} else {
		s.lru.MoveToFront(e.el)
	}
	var err error
	if len(data) > 0 {
		err = s.call(e, data, u)
	}
	if err != nil || eos {
		// A failed, panicking, budget-tripped or stalled Feed ends the
		// stream too; the batch keeps the matches its Feed returned.
		s.end(u, e, data, err, false)
		return
	}
	u.batches = append(u.batches, Batch{Key: key, Shard: s.id, Data: data, Version: e.ver.id, ver: e.ver, tagEnd: len(u.tags)})
}

// emit hands one completed unit to the sink worker owning this shard.
// Stream-to-shard and shard-to-worker assignments are both static, so
// batches of one stream always land on one worker, in order. The tag
// windows are cut here, after the unit's last append, because a backend
// may have regrown the buffer mid-unit: only now does every window point
// into the final array, so a queued unit keeps alive exactly the one array
// the gauge is charged for and none it outgrew. Each window is capped at
// its own length, so a sink that appends to its Tags reallocates instead
// of writing into its neighbor's. Matches and fed bytes are counted here
// too, once per unit and before any of its batches is delivered: the
// buffer now holds exactly the tags its batches carry, a faulted stream's
// truncated Close flush excluded.
func (s *shard) emit(u *unit) {
	if len(u.batches) == 0 {
		s.p.putUnit(u)
		return
	}
	s.p.m.matches.Add(int64(len(u.tags)))
	s.p.m.bytes.Add(u.fed)
	lo := 0
	for i := range u.batches {
		b := &u.batches[i]
		if b.tagEnd > lo {
			b.Tags = u.tags[lo:b.tagEnd:b.tagEnd]
		}
		lo = b.tagEnd
	}
	s.p.settle(u)
	s.p.sinkChs[s.id%len(s.p.sinkChs)] <- u
}

// sinkWorker drains one delivery queue and recycles each unit after its
// last batch.
// Delivery is resilient: transient errors (and panics) retry with capped
// exponential backoff and jitter; exhausted batches go to the DeadLetter
// hook when one is configured, otherwise — like errors marked with
// PermanentError — they fail the sink permanently and further batches are
// dropped.
func (p *Pipeline) sinkWorker(ch chan *unit, worker int, seed int64) {
	defer p.sinkWG.Done()
	rng := rand.New(rand.NewSource(seed)) // backoff jitter only
	var br *breaker
	if p.cfg.BreakerThreshold > 0 {
		br = &breaker{p: p, worker: worker}
	}
	for u := range ch {
		for i := range u.batches {
			b := &u.batches[i]
			if p.Err() == nil {
				// The len(ch) read races with the shards, in the harmless
				// direction only: a non-empty queue guarantees another batch
				// (emit never queues an empty unit), whose own More is
				// evaluated again, so every run ends on a batch without it.
				b.More = i+1 < len(u.batches) || len(ch) > 0
				p.deliver(b, rng, br)
			}
			if b.EOS {
				// The stream's final batch is out (delivered,
				// dead-lettered, or dropped on a failed sink): release its
				// factory-version binding, possibly retiring the version.
				// Never earlier — per-version resources must outlive every
				// batch that references them. Its Quota.MaxStreams slot
				// frees here too.
				p.releaseVersion(b.ver)
				if p.live != nil {
					p.live.release(b.Key)
				}
			}
		}
		p.putUnit(u)
	}
	if br != nil && br.open {
		// The worker is gone, and its open breaker with it.
		p.m.breakerOpen.Add(-1)
	}
}

func (p *Pipeline) deliver(b *Batch, rng *rand.Rand, br *breaker) {
	attempts := p.cfg.SinkAttempts
	if br != nil && br.open {
		if time.Now().Before(br.openUntil) {
			br.shed(b)
			return
		}
		// Half-open: the same loop with one probe attempt. Success closes
		// the breaker (the batch is delivered); a transient failure
		// restarts the cooldown and sheds.
		attempts = 1
	}
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			p.m.sinkRetries.Add(1)
			time.Sleep(p.backoff(attempt-1, rng))
		}
		if err = p.deliverOnce(b); err == nil {
			if br != nil {
				br.success()
			}
			return
		}
		if isPermanent(err) {
			p.failSink(err)
			return
		}
	}
	if br != nil && br.open {
		br.openUntil = time.Now().Add(p.cfg.BreakerCooldown)
		br.shed(b)
		return
	}
	if p.cfg.DeadLetter != nil {
		p.m.deadLetters.Add(1)
		p.cfg.DeadLetter(b, err)
		if br != nil {
			br.failure()
		}
		return
	}
	p.failSink(err)
}

// breaker is one sink worker's circuit breaker over the retry/backoff
// layer: BreakerThreshold consecutive exhausted deliveries open it, shed
// batches go straight to DeadLetter with ErrBreakerOpen while it is open,
// and after BreakerCooldown a single half-open probe decides whether it
// closes. It lives on one worker goroutine, so no locking.
type breaker struct {
	p         *Pipeline
	worker    int
	consec    int // consecutive exhausted deliveries
	open      bool
	openUntil time.Time
}

// success resets the failure streak, closing the breaker after a
// successful half-open probe.
func (br *breaker) success() {
	br.consec = 0
	if br.open {
		br.open = false
		br.p.m.breakerOpen.Add(-1)
	}
}

// failure records one exhausted delivery, opening the breaker at the
// threshold.
func (br *breaker) failure() {
	br.consec++
	if !br.open && br.consec >= br.p.cfg.BreakerThreshold {
		br.open = true
		br.openUntil = time.Now().Add(br.p.cfg.BreakerCooldown)
		br.p.m.breakerOpens.Add(1)
		br.p.m.breakerOpen.Add(1)
	}
}

// shed hands one batch to DeadLetter without touching the sink.
// DeadLetter is guaranteed non-nil (Validate requires it with the
// breaker).
func (br *breaker) shed(b *Batch) {
	br.p.m.breakerSheds.Add(1)
	br.p.cfg.DeadLetter(b, fmt.Errorf("%w: worker %d", ErrBreakerOpen, br.worker))
}

// deliverOnce delivers b through its version's sink, shielding the
// pipeline from a panicking Sink.
func (p *Pipeline) deliverOnce(b *Batch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.m.panics.Add(1)
			err = fmt.Errorf("%w: %v", ErrSinkPanic, r)
		}
	}()
	return b.ver.sink.Deliver(b)
}

// backoff computes the sleep before the retry-th retry: exponential from
// SinkBackoff, capped, with ±50% jitter to decorrelate retry storms.
func (p *Pipeline) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.cfg.SinkBackoff << (retry - 1)
	if d > sinkBackoffCap || d <= 0 {
		d = sinkBackoffCap
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// failSink records the first permanent sink failure.
func (p *Pipeline) failSink(err error) {
	p.sinkErr.CompareAndSwap(nil, &err)
}
