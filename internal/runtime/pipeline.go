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
// when the target shard's queue sat at the ShedHighWater mark past the
// timeout. The chunk is not accepted — bytes are never partially enqueued
// — and surviving streams are untouched: the caller decides whether to
// retry, back off, or end the stream. Test with errors.Is.
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

// DefaultBatchIdle is the idle-flush deadline used when Config.BatchIdle
// is zero: a partially filled batch never waits longer than this before it
// is pushed to its shard.
const DefaultBatchIdle = time.Millisecond

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

// quarSweepMin floors the amortized quarantine-sweep threshold so tiny
// maps are not swept on every insert.
const quarSweepMin = 16

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
	// FSA kinds). A failed or panicking Feed also ends the stream,
	// reporting here with EOS set.
	Err error
	// Version identifies the backend factory version that produced this
	// batch's tags (see SwapFactory). Spec-dependent sinks use it to
	// decode tags with the grammar generation the stream is actually
	// running, across zero-downtime reloads.
	Version int
	// More is set by the delivering sink worker, just before Deliver: the
	// worker already holds another batch it will deliver right after this
	// one. A sink that buffers its output may keep buffering while More is
	// set; a batch with More unset ends the worker's run — its queue was
	// empty — and is the cue to flush. The last batch a worker delivers
	// before Close returns always has More unset.
	More bool

	// ver releases the stream's factory-version binding after this final
	// batch is delivered; set only on EOS batches of streams that bound a
	// version.
	ver *factoryVersion
	// tagEnd is where the batch's window into its unit's tag buffer ends
	// (it starts where the previous batch's ends); emit turns the marks
	// into Tags once the buffer has stopped growing.
	tagEnd int
}

// Sink consumes completed tag batches. With the default single sink
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
	// VersionRetired, when set, is called with each backend-factory
	// version retired after a SwapFactory: the version is no longer
	// current and its last stream's final batch has been delivered, so
	// resources the factory closed over are safe to tear down. It runs on
	// the goroutine that retired the version.
	VersionRetired func(version int)
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
	// arena reaches this size, when the shard goes idle, or after
	// BatchIdle. 0 selects DefaultBatchBytes; a negative value disables
	// coalescing (every Send dispatches immediately).
	BatchBytes int
	// BatchIdle bounds how long a partially filled dispatch batch may
	// wait before being flushed to its shard (0 = DefaultBatchIdle).
	BatchIdle time.Duration
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
	// that finds the queue at the ShedHighWater mark is shed with
	// ErrOverloaded — immediately when SendTimeout is negative, or after
	// waiting up to SendTimeout for the queue to drain when positive.
	// CloseStream always blocks regardless, so streams can always close.
	SendTimeout time.Duration
	// ShedHighWater is the queue depth (in coalesced batches) at which
	// shed-mode Sends are rejected. 0 — or anything past Queue — means
	// the full queue capacity: shed only when no slot is free. Meaningful
	// only when SendTimeout != 0.
	ShedHighWater int
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
	// charges what its streams share (the table's states).
	// Registry.Send enforces Quota.MemBudgetBytes against it.
	Mem *MemGauge
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
	sink    Sink
	shards  []*shard
	sinkChs []chan *unit

	quarTTL      time.Duration
	quarSweep    time.Duration
	batchBytes   int
	batchIdle    time.Duration
	sinkAttempts int
	sinkBackoff  time.Duration

	sendTimeout  time.Duration
	highWater    int
	feedDeadline time.Duration
	brThreshold  int
	brCooldown   time.Duration

	units sync.Pool // *unit, recycled after its last Deliver

	shardWG sync.WaitGroup
	sinkWG  sync.WaitGroup
	flushWG sync.WaitGroup

	flushStop chan struct{}

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
	pendAt time.Time // when the pending batch got its first message

	// drainSig is pulsed (non-blockingly) by run() after each batch it
	// drains, waking one shed-mode Send waiting out its SendTimeout.
	drainSig chan struct{}

	quarMu   sync.Mutex
	quar     map[string]time.Time // key -> quarantine expiry
	quarN    atomic.Int32         // live entries in quar (lock-free fast path)
	quarHigh int                  // map size that triggers the next amortized sweep

	// Watchdog in-flight record, armed only when FeedDeadline > 0: when
	// the backend call running on this shard's goroutine started, if any.
	wdMu    sync.Mutex
	wdStart time.Time // zero = no call in flight
	wdFired bool      // the trip for this call is already counted
}

// NewPipeline starts the shard, sink-worker and idle-flusher goroutines.
// Close releases them.
func NewPipeline(cfg Config, sink Sink) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
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
	p := &Pipeline{
		cfg:          cfg,
		m:            cfg.Metrics,
		sink:         sink,
		quarTTL:      cfg.Quarantine,
		batchBytes:   cfg.BatchBytes,
		batchIdle:    cfg.BatchIdle,
		sinkAttempts: cfg.SinkAttempts,
		sinkBackoff:  cfg.SinkBackoff,
		flushStop:    make(chan struct{}),
	}
	if p.quarTTL == 0 {
		p.quarTTL = DefaultQuarantine
	} else if p.quarTTL < 0 {
		p.quarTTL = 0
	}
	if p.batchBytes == 0 {
		p.batchBytes = DefaultBatchBytes
	} else if p.batchBytes < 0 {
		p.batchBytes = 0 // coalescing disabled: flush every message
	}
	if p.batchIdle <= 0 {
		p.batchIdle = DefaultBatchIdle
	}
	if p.sinkAttempts <= 0 {
		p.sinkAttempts = 3
	}
	if p.sinkBackoff <= 0 {
		p.sinkBackoff = time.Millisecond
	}
	p.sendTimeout = cfg.SendTimeout
	p.highWater = cfg.ShedHighWater
	if p.highWater <= 0 || p.highWater > cfg.Queue {
		p.highWater = cfg.Queue
	}
	p.feedDeadline = cfg.FeedDeadline
	p.brThreshold = cfg.BreakerThreshold
	p.brCooldown = cfg.BreakerCooldown
	if p.brCooldown <= 0 {
		p.brCooldown = DefaultBreakerCooldown
	}
	// Dead quarantine entries are reaped well before they could double
	// the map again, but never so often that sweeping competes with
	// dispatch.
	p.quarSweep = p.quarTTL / 2
	if p.quarSweep < 50*time.Millisecond {
		p.quarSweep = 50 * time.Millisecond
	}
	p.units.New = func() any { return new(unit) }

	// Version 1 is the construction-time factory; SwapFactory publishes
	// successors.
	p.nextVerID = 1
	p.curVer = &factoryVersion{id: 1, factory: cfg.Factory}
	p.liveVers = map[int]*factoryVersion{1: p.curVer}

	workers := cfg.SinkWorkers
	if workers <= 0 {
		workers = 1
	}
	if workers > cfg.Shards {
		workers = cfg.Shards
	}
	for w := 0; w < workers; w++ {
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
		p.shards = append(p.shards, s)
		p.shardWG.Add(1)
		go s.run()
	}
	p.flushWG.Add(1)
	go p.idleFlusher()
	if p.feedDeadline > 0 {
		p.flushWG.Add(1)
		go p.watchdog()
	}
	return p, nil
}

// Shards reports the pipeline width.
func (p *Pipeline) Shards() int { return len(p.shards) }

// Send dispatches one chunk of the stream identified by key. The data is
// copied into a pooled arena, so the caller may reuse it immediately.
// Chunks coalesce into per-shard batches that flush when full, when the
// shard goes idle, or after Config.BatchIdle; an accepted chunk is always
// delivered, even if Close follows immediately. Send blocks while the
// target shard's queue is full. After Close it fails with ErrClosed and
// the chunk is not accepted; a quarantined key fails with ErrQuarantined,
// and after a permanent sink failure every Send fails with that failure.
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
	if p.quarTTL > 0 && s.poisoned(key) {
		return fmt.Errorf("%w: %q", ErrQuarantined, key)
	}
	if p.sendTimeout != 0 && !eos {
		if err := s.admit(key); err != nil {
			return err
		}
	}
	if err := s.enqueue(key, data, eos); err != nil {
		return err
	}
	p.m.maxQueue.Max(int64(len(s.in)))
	return nil
}

// admit is shed-mode admission control: a Send that finds the shard queue
// at the high watermark is rejected with ErrOverloaded — immediately when
// SendTimeout < 0, or after waiting up to SendTimeout for the shard to
// drain below the mark. The depth reads are racy by design; the
// enqueue-level flush guard is the exact arbiter.
func (s *shard) admit(key string) error {
	p := s.p
	if len(s.in) < p.highWater {
		return nil
	}
	if p.sendTimeout > 0 {
		timer := time.NewTimer(p.sendTimeout)
		defer timer.Stop()
		for {
			select {
			case <-s.drainSig:
				if len(s.in) < p.highWater {
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
	return fmt.Errorf("%w: shard %d queue at high watermark (%q rejected)", ErrOverloaded, s.id, key)
}

// enqueue appends one message to the shard's pending batch, flushing it
// when the arena target is reached, when coalescing is off, or when the
// shard queue is empty (nothing would be gained by waiting: the shard is
// starved, so latency wins over amortization).
//
// In shed mode (SendTimeout != 0) the flushes are non-blocking: when the
// full arena cannot be handed off because the queue is full, the message
// is shed with ErrOverloaded *before* being appended — bytes are never
// partially accepted — and an already-complete pending batch simply stays
// pending until a later enqueue, the idle flusher, or Close moves it. EOS
// messages always take the blocking path so streams can always close.
func (s *shard) enqueue(key string, data []byte, eos bool) error {
	p := s.p
	canBlock := p.sendTimeout == 0 || eos
	s.pendMu.Lock()
	if s.pend == nil {
		s.pend = p.getUnit()
	}
	u := s.pend
	if len(data) > 0 {
		if len(u.data) > 0 && len(u.data)+len(data) > cap(u.data) {
			if !s.flushPendLocked(canBlock) {
				s.pendMu.Unlock()
				return s.shed(key)
			}
			s.pend = p.getUnit()
			u = s.pend
		}
		if len(data) > cap(u.data) {
			// Only an empty arena can be too small (the flush above saw to
			// that): a fresh unit has none, a recycled one may have been
			// sized for smaller chunks.
			u.data = make([]byte, 0, max(p.batchBytes, len(data)))
			p.settle(u)
		}
		off := len(u.data)
		u.data = append(u.data, data...)
		u.msgs = append(u.msgs, msgRef{key: key, off: off, n: len(data), eos: eos})
	} else {
		u.msgs = append(u.msgs, msgRef{key: key, eos: eos})
	}
	if len(u.msgs) == 1 {
		s.pendAt = time.Now()
	}
	if p.batchBytes == 0 || len(u.data) >= p.batchBytes || len(s.in) == 0 {
		s.flushPendLocked(canBlock)
	}
	s.pendMu.Unlock()
	return nil
}

// flushPendLocked hands the pending batch to the shard goroutine; pendMu
// must be held. With block set the channel send may wait under
// backpressure — the shard keeps draining, so progress is guaranteed.
// Without it a full queue leaves the batch pending and reports false.
// Every send into s.in happens here, under pendMu.
func (s *shard) flushPendLocked(block bool) bool {
	u := s.pend
	if u == nil || len(u.msgs) == 0 {
		return true
	}
	if block {
		s.pend = nil
		s.in <- u
		return true
	}
	select {
	case s.in <- u:
		s.pend = nil
		return true
	default:
		return false
	}
}

// idleFlusher bounds batching latency: every BatchIdle tick it pushes any
// pending batch older than the deadline to its shard. It doubles as the
// periodic quarantine sweeper (every quarSweep), so dead entries are
// reaped even when dispatch goes quiet. It exits as soon as the pipeline
// closes (Close flushes the remaining batches itself).
func (p *Pipeline) idleFlusher() {
	defer p.flushWG.Done()
	t := time.NewTicker(p.batchIdle)
	defer t.Stop()
	lastSweep := time.Now()
	for {
		select {
		case <-p.flushStop:
			return
		case <-t.C:
		}
		p.stateMu.RLock()
		if p.closed {
			p.stateMu.RUnlock()
			return
		}
		for _, s := range p.shards {
			s.pendMu.Lock()
			if s.pend != nil && len(s.pend.msgs) > 0 && time.Since(s.pendAt) >= p.batchIdle {
				// In shed mode the idle flush must not block either: a
				// stuck queue keeps the batch pending (its messages were
				// accepted; they move as soon as the shard drains).
				s.flushPendLocked(p.sendTimeout == 0)
			}
			s.pendMu.Unlock()
		}
		if p.quarTTL > 0 && time.Since(lastSweep) >= p.quarSweep {
			lastSweep = time.Now()
			for _, s := range p.shards {
				s.sweepQuarantine(lastSweep)
			}
		}
		p.stateMu.RUnlock()
	}
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
// (delivering its EOS batch), stops the shards and the sink workers,
// closes the Sink, and returns the first Sink error. A second Close fails
// with ErrClosed.
func (p *Pipeline) Close() error {
	p.stateMu.Lock()
	if p.closed {
		p.stateMu.Unlock()
		return fmt.Errorf("runtime: pipeline already closed: %w", ErrClosed)
	}
	p.closed = true
	p.stateMu.Unlock()

	close(p.flushStop)
	p.flushWG.Wait()
	// No Send can append anymore (closed is set), so the residual batches
	// are stable; flush them before closing the shard channels.
	for _, s := range p.shards {
		s.pendMu.Lock()
		s.flushPendLocked(true)
		s.pendMu.Unlock()
	}
	for _, s := range p.shards {
		close(s.in)
	}
	p.shardWG.Wait()
	for _, ch := range p.sinkChs {
		close(ch)
	}
	p.sinkWG.Wait()

	cerr := p.sink.Close()
	err := p.Err()
	if err == nil {
		err = cerr
	}
	return err
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
	u.charged = 0
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

// poisoned reports whether key is quarantined, lazily expiring stale
// entries. Called from dispatch (any goroutine) and the shard goroutine;
// the atomic counter keeps the healthy path lock-free.
func (s *shard) poisoned(key string) bool {
	if s.quarN.Load() == 0 {
		return false
	}
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	until, ok := s.quar[key]
	if !ok {
		return false
	}
	if time.Now().After(until) {
		delete(s.quar, key)
		s.quarN.Add(-1)
		return false
	}
	return true
}

// poison quarantines key for the configured TTL (no-op when disabled).
// Inserts are where the map grows, so they amortize the sweep: once the
// map doubles past the size left by the previous sweep, expired entries
// are reaped before inserting — a churn of unique faulted keys holds the
// map at O(live entries) instead of growing it forever.
func (s *shard) poison(key string) {
	if s.p.quarTTL <= 0 {
		return
	}
	now := time.Now()
	s.quarMu.Lock()
	if len(s.quar) >= s.quarHigh {
		s.sweepLocked(now)
		s.quarHigh = 2*len(s.quar) + quarSweepMin
	}
	if _, ok := s.quar[key]; !ok {
		s.quarN.Add(1)
	}
	s.quar[key] = now.Add(s.p.quarTTL)
	s.quarMu.Unlock()
	s.p.m.quarantined.Add(1)
}

// sweepQuarantine reaps expired quarantine entries (the periodic path;
// see poison for the amortized one).
func (s *shard) sweepQuarantine(now time.Time) {
	if s.quarN.Load() == 0 {
		return
	}
	s.quarMu.Lock()
	s.sweepLocked(now)
	s.quarHigh = 2*len(s.quar) + quarSweepMin
	s.quarMu.Unlock()
}

// sweepLocked deletes every expired entry; quarMu must be held.
func (s *shard) sweepLocked(now time.Time) {
	for k, until := range s.quar {
		if now.After(until) {
			delete(s.quar, k)
			s.quarN.Add(-1)
		}
	}
}

// run is the shard loop: per-stream Backend lifecycle and batch emission.
// Each unit is completed in place — one Batch per message, detections
// appended to the unit's tag buffer — and handed on to its sink worker.
// When the input channel closes (pipeline Close), still-open streams are
// flushed with synthetic EOS batches so sinks always see stream ends.
func (s *shard) run() {
	defer s.p.shardWG.Done()
	for u := range s.in {
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
	for key := range s.streams {
		s.process(key, nil, true, u)
	}
	s.emit(u)
}

// guard invokes one backend call, converting a panic into an error
// wrapping ErrBackendPanic so a hostile stream cannot take the process
// down.
func (s *shard) guard(origin string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.p.m.panics.Add(1)
			err = fmt.Errorf("%w (in %s): %v", ErrBackendPanic, origin, r)
		}
	}()
	return fn()
}

// guardTimed wraps guard with the watchdog's in-flight record: while fn
// runs, the watchdog goroutine can see how long it has been running and
// count a trip once it is overdue. Go code cannot be interrupted, so a
// stalled call is converted into an ErrBackendStalled verdict when it
// finally returns; a call that never returns is still counted.
func (s *shard) guardTimed(key, origin string, fn func() error) error {
	p := s.p
	if p.feedDeadline <= 0 {
		return s.guard(origin, fn)
	}
	s.wdMu.Lock()
	s.wdStart, s.wdFired = time.Now(), false
	s.wdMu.Unlock()
	err := s.guard(origin, fn)
	s.wdMu.Lock()
	elapsed := time.Since(s.wdStart)
	fired := s.wdFired
	s.wdStart = time.Time{}
	s.wdMu.Unlock()
	if elapsed > p.feedDeadline {
		if !fired {
			// The call outran the deadline between watchdog ticks; it
			// still counts exactly once per overdue call.
			p.m.watchdogTrips.Add(1)
		}
		if err == nil {
			err = fmt.Errorf("%w: %s on %q took %v (deadline %v)", ErrBackendStalled, origin, key, elapsed, p.feedDeadline)
		}
	}
	return err
}

// watchdog is the pipeline's stall detector: it scans every shard's
// in-flight backend call on a fraction of FeedDeadline and counts a trip
// (once per call) when one is overdue. The verdict on the stream lands in
// guardTimed when the call returns.
func (p *Pipeline) watchdog() {
	defer p.flushWG.Done()
	tick := p.feedDeadline / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.flushStop:
			return
		case <-t.C:
		}
		now := time.Now()
		for _, s := range p.shards {
			s.wdMu.Lock()
			if !s.wdStart.IsZero() && !s.wdFired && now.Sub(s.wdStart) > p.feedDeadline {
				s.wdFired = true
				p.m.watchdogTrips.Add(1)
			}
			s.wdMu.Unlock()
		}
	}
}

// remove forgets a stream's backend and recency entry, folding the
// backend's recoveries, collisions and cache stats into the metrics: a
// backend is minted per stream, so its counters cover its whole life.
func (s *shard) remove(e *streamEntry) {
	delete(s.streams, e.key)
	s.lru.Remove(e.el)
	s.p.m.addStream(e.b.Counters())
}

// feed and closeBackend run one guarded backend call that appends its
// detections to the unit's tag buffer. The buffer is reassigned only when
// the call returns: after a panic the unit keeps what it held before. A
// Feed the backend accepts counts its bytes.
func (s *shard) feed(e *streamEntry, data []byte, u *unit) error {
	return s.guardTimed(e.key, "Feed", func() (err error) {
		if u.tags, err = e.b.Feed(data, u.tags); err == nil {
			s.p.m.bytes.Add(int64(len(data)))
		}
		return err
	})
}

func (s *shard) closeBackend(e *streamEntry, u *unit) error {
	return s.guardTimed(e.key, "Close", func() (err error) {
		u.tags, err = e.b.Close(u.tags)
		return err
	})
}

// evictOldest flushes the least-recently-active stream to make room under
// the MaxStreams cap: its backend is closed and its final matches are
// delivered in a synthetic EOS batch marked Evicted.
func (s *shard) evictOldest(u *unit) {
	el := s.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*streamEntry)
	batch := Batch{Key: e.key, Shard: s.id, EOS: true, Evicted: true, Version: e.ver.id, ver: e.ver}
	batch.Err = s.closeBackend(e, u)
	s.remove(e)
	s.p.m.evicted.Add(1)
	s.append(u, batch)
}

// append records the finished batch on the unit — everything appended to
// the tag buffer since the previous batch is its window — noting
// resource-budget verdicts on the way: every batch a shard produces goes
// through here, so ResourceExhausted counts exactly once per
// budget-tripped stream.
func (s *shard) append(u *unit, batch Batch) {
	if batch.Err != nil && errors.Is(batch.Err, ErrResourceExhausted) {
		s.p.m.resExhausted.Add(1)
	}
	batch.tagEnd = len(u.tags)
	u.batches = append(u.batches, batch)
}

func (s *shard) process(key string, data []byte, eos bool, u *unit) {
	if s.p.quarTTL > 0 && s.poisoned(key) {
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
			s.evictOldest(u)
		}
		// The stream binds the factory version current at creation and
		// keeps it for life; a concurrent SwapFactory only affects
		// streams created after it.
		ver := s.p.acquireVersion()
		b, err := ver.factory()
		if err != nil {
			s.p.releaseVersion(ver)
			s.poison(key)
			s.append(u, Batch{Key: key, Shard: s.id, EOS: true, Err: err, Version: ver.id})
			return
		}
		e = &streamEntry{key: key, b: b, ver: ver}
		e.el = s.lru.PushFront(e)
		s.streams[key] = e
	} else {
		s.lru.MoveToFront(e.el)
	}

	batch := Batch{Key: key, Shard: s.id, Data: data, EOS: eos, Version: e.ver.id}
	if len(data) > 0 {
		batch.Err = s.feed(e, data, u)
	}
	if batch.Err != nil && !eos {
		// A failed, panicking, budget-tripped or stalled Feed ends the
		// stream: the backend's state is suspect, so it is retired, the
		// key is poisoned, and the error batch doubles as the stream's
		// EOS. Matches the Feed returned before the fault are still
		// delivered (best effort); what its Close flushes is not.
		batch.EOS = true
		batch.ver = e.ver
		n := len(u.tags)
		s.guard("Close", func() (err error) {
			u.tags, err = e.b.Close(u.tags)
			return err
		})
		u.tags = u.tags[:n]
		s.remove(e)
		s.poison(key)
		s.append(u, batch)
		return
	}
	if eos {
		if cerr := s.closeBackend(e, u); batch.Err == nil {
			batch.Err = cerr
		}
		s.remove(e)
		batch.ver = e.ver
		if batch.Err != nil && (errors.Is(batch.Err, ErrResourceExhausted) || errors.Is(batch.Err, ErrBackendStalled)) {
			// A budget or a stall can land at Close too; quarantine the
			// key like a Feed fault so the adversarial input cannot
			// immediately re-open.
			s.poison(key)
		}
	}
	s.append(u, batch)
}

// emit hands one completed unit to the sink worker owning this shard.
// Stream-to-shard and shard-to-worker assignments are both static, so
// batches of one stream always land on one worker, in order. The tag
// windows are cut here, after the unit's last append, because a backend
// may have regrown the buffer mid-unit: only now does every window point
// into the final array, so a queued unit keeps alive exactly the one array
// the gauge is charged for and none it outgrew. Each window is capped at
// its own length, so a sink that appends to its Tags reallocates instead
// of writing into its neighbor's. Matches are counted here too, once per
// unit: the buffer now holds exactly the tags its batches carry, a faulted
// stream's truncated Close flush excluded.
func (s *shard) emit(u *unit) {
	if len(u.batches) == 0 {
		s.p.putUnit(u)
		return
	}
	s.p.m.matches.Add(int64(len(u.tags)))
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
	if p.brThreshold > 0 {
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
			if b.ver != nil {
				// The stream's final batch is out (delivered,
				// dead-lettered, or dropped on a failed sink): release its
				// factory-version binding, possibly retiring the version.
				// Never earlier — per-version resources must outlive every
				// batch that references them.
				p.releaseVersion(b.ver)
				b.ver = nil
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
	if br != nil && br.open {
		if time.Now().Before(br.openUntil) {
			br.shed(b)
			return
		}
		// Half-open: one probe attempt, no retries. Success closes the
		// breaker (the batch is delivered); a transient failure restarts
		// the cooldown and sheds.
		err := p.deliverOnce(b)
		if err == nil {
			br.success()
			return
		}
		if isPermanent(err) {
			p.failSink(err)
			return
		}
		br.openUntil = time.Now().Add(p.brCooldown)
		br.shed(b)
		return
	}
	var err error
	for attempt := 1; attempt <= p.sinkAttempts; attempt++ {
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
	if !br.open && br.consec >= br.p.brThreshold {
		br.open = true
		br.openUntil = time.Now().Add(br.p.brCooldown)
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

// deliverOnce shields the pipeline from a panicking Sink.
func (p *Pipeline) deliverOnce(b *Batch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.m.panics.Add(1)
			err = fmt.Errorf("%w: %v", ErrSinkPanic, r)
		}
	}()
	return p.sink.Deliver(b)
}

// backoff computes the sleep before the retry-th retry: exponential from
// SinkBackoff, capped, with ±50% jitter to decorrelate retry storms.
func (p *Pipeline) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.sinkBackoff << (retry - 1)
	if d > sinkBackoffCap || d <= 0 {
		d = sinkBackoffCap
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// failSink records the first permanent sink failure.
func (p *Pipeline) failSink(err error) {
	p.sinkErr.CompareAndSwap(nil, &err)
}
