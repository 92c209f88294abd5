// Package runtime puts the repo's execution forms — the served table (the
// bit-parallel engine determinized on demand) and four references: the
// bit-parallel NFA itself, the gate-level simulation, the LL(1)
// predictive-parser baseline and the Earley exact-language oracle — behind
// one streaming Backend contract with one constructor (NewFactory), and
// runs the served table at scale in a sharded pipeline (Source → N tagger
// shards → Sink) in the style of stream processors like Benthos.
//
// A Backend recognizes one stream. All forms emit stream.Match events
// with absolute offsets, so they are interchangeable and differentially
// testable (see Conformance). The FSA forms accept the documented superset
// of the grammar; the parser and Earley references accept the grammar
// exactly and report the difference as a Close error.
package runtime

import (
	"errors"
	"sync/atomic"
	"time"

	"cfgtag/internal/stream"
)

// errClosed reports a Feed after Close, mirroring stream.Tagger's Write
// guard across all backends.
var errClosed = errors.New("runtime: Feed after Close")

// Backend is the uniform streaming contract over one input stream.
// Implementations are not safe for concurrent use; the pipeline gives each
// stream its own Backend.
//
// Detections are returned append-style, the way the hardware drives a tag
// bus it does not own: Feed and Close append what they confirm to out and
// return the extended slice, like the built-in append. The caller owns the
// buffer before and after the call and the backend keeps no reference to
// it, so one buffer can take the detections of many streams in turn (the
// pipeline's dispatch unit) and a call that confirms nothing costs no
// match storage. out may be nil.
type Backend interface {
	// Reset rewinds to stream start for reuse.
	Reset()
	// Feed consumes the next chunk of stream bytes, appending the
	// detections it confirms to out. Chunking is arbitrary: detections
	// never depend on Feed boundaries. On error the returned slice still
	// carries what was confirmed before the fault.
	Feed(p []byte, out []stream.Match) ([]stream.Match, error)
	// Close ends the stream, appending any pending detection to out.
	// Backends that recognize the grammar exactly (parser, earley)
	// report non-conforming input here and append nothing; the FSA forms
	// always return a nil error.
	Close(out []stream.Match) ([]stream.Match, error)
	// Counters reports lifetime totals since Reset.
	Counters() Counters
}

// Counters aggregates a Backend's per-stream totals.
type Counters struct {
	// Bytes fed so far.
	Bytes int64
	// Matches confirmed so far.
	Matches int64
	// Recoveries counts section 5.2 error-recovery events (nonzero only
	// when the spec was compiled with a Recover option).
	Recoveries int64
	// Collisions counts residual runtime index collisions (see
	// stream.Tagger.Collisions).
	Collisions int64
	// CacheHits, CacheMisses and CacheResets describe the served kinds'
	// lazily filled table (zero on the reference backends). They span the
	// backend's lifetime rather than the last Reset: the table is
	// deliberately kept warm across streams, so its counters outlive them.
	CacheHits   int64
	CacheMisses int64
	CacheResets int64
}

// Hooks is the metrics surface threaded through the backends and the
// pipeline. Nil hooks (or nil fields) cost nothing. Hook functions must be
// safe for concurrent use when shared across pipeline shards; the
// per-event arguments identify the source.
type Hooks struct {
	// Bytes observes every chunk fed to a backend.
	Bytes func(shard int, n int)
	// Matches observes confirmed detections, as a count: each backend
	// reports what a Feed confirmed once when it returns, and what the
	// end-of-stream flush confirmed once per Close. Nothing runs per tag.
	Matches func(shard int, n int)
	// Recovery observes each section 5.2 recovery event.
	Recovery func(shard int, pos int64)
	// Collision observes each runtime index collision.
	Collision func(shard int, pos int64, a, b int)
	// QueueDepth observes a shard's input queue depth at each enqueue.
	QueueDepth func(shard int, depth int)
	// CacheStats observes the table's fills: each table backend reports the
	// hits (bytes served by filled cells), misses (bytes whose cell it
	// computed) and epoch resets accrued since its previous report, once
	// per stream Close. The reference backends never call it.
	CacheStats func(shard int, hits, misses, resets int64)
	// PanicRecovered observes every panic the pipeline recovers; origin
	// names the guarded call ("Feed", "Close" or "Deliver").
	PanicRecovered func(shard int, origin string)
	// Quarantined observes each stream key poisoned after a backend
	// error or panic.
	Quarantined func(shard int, key string)
	// Evicted observes each stream flushed by the MaxStreams idle-LRU
	// eviction.
	Evicted func(shard int, key string)
	// SinkRetry observes each Deliver retry (attempt counts retries, so
	// the first retry is 1) with the error that caused it.
	SinkRetry func(attempt int, err error)
	// DeadLetter observes each batch handed to Config.DeadLetter after
	// its Deliver attempts were exhausted.
	DeadLetter func(key string, err error)
	// VersionRetired observes each backend-factory version retired after a
	// SwapFactory: the version is no longer current and its last stream's
	// final batch has been delivered, so resources the factory closed over
	// are safe to tear down.
	VersionRetired func(version int)
	// Overloaded observes each Send shed by admission control (shed mode,
	// see Config.SendTimeout): the chunk was rejected with ErrOverloaded
	// and nothing was enqueued.
	Overloaded func(shard int, key string)
	// Watchdog observes each backend call (Feed or Close) caught running
	// past Config.FeedDeadline, exactly once per overdue call, with the
	// elapsed time at detection.
	Watchdog func(shard int, key, origin string, elapsed time.Duration)
	// ResourceExhausted observes each stream ended by a resource budget
	// (its EOS batch carries an error wrapping ErrResourceExhausted),
	// exactly once per stream.
	ResourceExhausted func(shard int, key string)
	// Breaker observes sink circuit-breaker state flips: open=true when a
	// worker's breaker trips, open=false when a half-open probe closes
	// it. Half-open probing itself is not a flip.
	Breaker func(worker int, open bool)
	// BreakerShed observes each batch shed to DeadLetter while a worker's
	// breaker is open.
	BreakerShed func(worker int, key string)
}

func (h *Hooks) bytes(shard, n int) {
	if h != nil && h.Bytes != nil {
		h.Bytes(shard, n)
	}
}

func (h *Hooks) matches(shard, n int) {
	if n > 0 && h != nil && h.Matches != nil {
		h.Matches(shard, n)
	}
}

func (h *Hooks) recovery(shard int, pos int64) {
	if h != nil && h.Recovery != nil {
		h.Recovery(shard, pos)
	}
}

func (h *Hooks) collision(shard int, pos int64, a, b int) {
	if h != nil && h.Collision != nil {
		h.Collision(shard, pos, a, b)
	}
}

func (h *Hooks) cacheStats(shard int, hits, misses, resets int64) {
	if h != nil && h.CacheStats != nil {
		h.CacheStats(shard, hits, misses, resets)
	}
}

func (h *Hooks) queueDepth(shard, depth int) {
	if h != nil && h.QueueDepth != nil {
		h.QueueDepth(shard, depth)
	}
}

func (h *Hooks) panicRecovered(shard int, origin string) {
	if h != nil && h.PanicRecovered != nil {
		h.PanicRecovered(shard, origin)
	}
}

func (h *Hooks) quarantined(shard int, key string) {
	if h != nil && h.Quarantined != nil {
		h.Quarantined(shard, key)
	}
}

func (h *Hooks) evicted(shard int, key string) {
	if h != nil && h.Evicted != nil {
		h.Evicted(shard, key)
	}
}

func (h *Hooks) sinkRetry(attempt int, err error) {
	if h != nil && h.SinkRetry != nil {
		h.SinkRetry(attempt, err)
	}
}

func (h *Hooks) deadLetter(key string, err error) {
	if h != nil && h.DeadLetter != nil {
		h.DeadLetter(key, err)
	}
}

func (h *Hooks) versionRetired(version int) {
	if h != nil && h.VersionRetired != nil {
		h.VersionRetired(version)
	}
}

func (h *Hooks) overloaded(shard int, key string) {
	if h != nil && h.Overloaded != nil {
		h.Overloaded(shard, key)
	}
}

func (h *Hooks) watchdog(shard int, key, origin string, elapsed time.Duration) {
	if h != nil && h.Watchdog != nil {
		h.Watchdog(shard, key, origin, elapsed)
	}
}

func (h *Hooks) resourceExhausted(shard int, key string) {
	if h != nil && h.ResourceExhausted != nil {
		h.ResourceExhausted(shard, key)
	}
}

func (h *Hooks) breaker(worker int, open bool) {
	if h != nil && h.Breaker != nil {
		h.Breaker(worker, open)
	}
}

func (h *Hooks) breakerShed(worker int, key string) {
	if h != nil && h.BreakerShed != nil {
		h.BreakerShed(worker, key)
	}
}

// Factory creates one Backend per stream; NewFactory builds one. shard
// identifies the pipeline shard the backend will live on (0 for standalone
// use) and is forwarded to the hooks; h may be nil.
type Factory func(shard int, h *Hooks) (Backend, error)

// MetricCounters is a ready-made atomic Hooks target: plug Observe into a
// pipeline or backend and read the totals concurrently.
type MetricCounters struct {
	bytes       atomicInt64
	matches     atomicInt64
	recoveries  atomicInt64
	collisions  atomicInt64
	cacheHits   atomicInt64
	cacheMisses atomicInt64
	cacheResets atomicInt64
	maxQueue    atomicInt64

	panics      atomicInt64
	quarantined atomicInt64
	evicted     atomicInt64
	sinkRetries atomicInt64
	deadLetters atomicInt64

	shed          atomicInt64
	watchdogTrips atomicInt64
	resExhausted  atomicInt64
	breakerOpens  atomicInt64
	breakerSheds  atomicInt64
	breakerOpen   atomicInt64 // gauge: workers currently open
}

// Hooks returns a Hooks wiring every event into the counters.
func (c *MetricCounters) Hooks() *Hooks {
	return &Hooks{
		Bytes:     func(_ int, n int) { c.bytes.Add(int64(n)) },
		Matches:   func(_ int, n int) { c.matches.Add(int64(n)) },
		Recovery:  func(int, int64) { c.recoveries.Add(1) },
		Collision: func(int, int64, int, int) { c.collisions.Add(1) },
		QueueDepth: func(_ int, depth int) {
			c.maxQueue.Max(int64(depth))
		},
		CacheStats: func(_ int, hits, misses, resets int64) {
			c.cacheHits.Add(hits)
			c.cacheMisses.Add(misses)
			c.cacheResets.Add(resets)
		},
		PanicRecovered:    func(int, string) { c.panics.Add(1) },
		Quarantined:       func(int, string) { c.quarantined.Add(1) },
		Evicted:           func(int, string) { c.evicted.Add(1) },
		SinkRetry:         func(int, error) { c.sinkRetries.Add(1) },
		DeadLetter:        func(string, error) { c.deadLetters.Add(1) },
		Overloaded:        func(int, string) { c.shed.Add(1) },
		Watchdog:          func(int, string, string, time.Duration) { c.watchdogTrips.Add(1) },
		ResourceExhausted: func(int, string) { c.resExhausted.Add(1) },
		Breaker: func(_ int, open bool) {
			if open {
				c.breakerOpens.Add(1)
				c.breakerOpen.Add(1)
			} else {
				c.breakerOpen.Add(-1)
			}
		},
		BreakerShed: func(int, string) { c.breakerSheds.Add(1) },
	}
}

// FaultStats aggregates the pipeline's fault-tolerance and overload
// counters: panics recovered (backend or sink), streams quarantined after
// a fault, streams evicted under the MaxStreams cap, sink Deliver
// retries, batches dead-lettered after exhausting their retries, Sends
// shed by admission control, watchdog trips on overdue backend calls,
// streams ended by resource budgets, sink circuit-breaker opens (flips to
// open; BreakerOpenWorkers gauges how many are open now) and batches shed
// while a breaker was open.
type FaultStats struct {
	PanicsRecovered    int64
	StreamsQuarantined int64
	StreamsEvicted     int64
	SinkRetries        int64
	DeadLetters        int64

	SendsShed          int64
	WatchdogTrips      int64
	ResourceExhausted  int64
	BreakerOpens       int64
	BreakerSheds       int64
	BreakerOpenWorkers int64
}

// Faults returns the current fault-tolerance totals.
func (c *MetricCounters) Faults() FaultStats {
	return FaultStats{
		PanicsRecovered:    c.panics.Load(),
		StreamsQuarantined: c.quarantined.Load(),
		StreamsEvicted:     c.evicted.Load(),
		SinkRetries:        c.sinkRetries.Load(),
		DeadLetters:        c.deadLetters.Load(),
		SendsShed:          c.shed.Load(),
		WatchdogTrips:      c.watchdogTrips.Load(),
		ResourceExhausted:  c.resExhausted.Load(),
		BreakerOpens:       c.breakerOpens.Load(),
		BreakerSheds:       c.breakerSheds.Load(),
		BreakerOpenWorkers: c.breakerOpen.Load(),
	}
}

// Snapshot returns the current totals. MaxQueueDepth is the high-water
// mark across all shards since construction.
func (c *MetricCounters) Snapshot() (counters Counters, maxQueueDepth int) {
	return Counters{
		Bytes:       c.bytes.Load(),
		Matches:     c.matches.Load(),
		Recoveries:  c.recoveries.Load(),
		Collisions:  c.collisions.Load(),
		CacheHits:   c.cacheHits.Load(),
		CacheMisses: c.cacheMisses.Load(),
		CacheResets: c.cacheResets.Load(),
	}, int(c.maxQueue.Load())
}

// atomicInt64 adds a monotonic Max to the standard atomic counter.
type atomicInt64 struct{ v atomic.Int64 }

func (a *atomicInt64) Add(n int64) { a.v.Add(n) }
func (a *atomicInt64) Load() int64 { return a.v.Load() }

func (a *atomicInt64) Max(n int64) {
	for {
		cur := a.v.Load()
		if n <= cur || a.v.CompareAndSwap(cur, n) {
			return
		}
	}
}
