// Package runtime serves the paper's stack-less automaton: it puts the
// grammar's table — the bit-parallel engine determinized on demand —
// behind one streaming Backend contract with one constructor
// (NewFactory), and runs it at scale in a sharded pipeline (Source → N
// tagger shards → Sink) in the style of stream processors like Benthos.
//
// A Backend recognizes one stream and emits stream.Match events with
// absolute offsets. The references the table is measured against — the
// NFA, the netlist, the LL(1) parser and the Earley oracle — implement
// the same contract in package oracle, which imports this one; nothing
// here can name them.
package runtime

import (
	"sync/atomic"

	"cfgtag/internal/stream"
)

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
	// Backends that recognize the grammar exactly (the parser and Earley
	// references) report non-conforming input here and append nothing;
	// the table always returns a nil error.
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
	// CacheHits, CacheMisses and CacheResets describe the served
	// lazily filled table (zero on the reference backends). They span the
	// backend's lifetime rather than the last Reset: the table is
	// deliberately kept warm across streams, so its counters outlive them.
	CacheHits   int64
	CacheMisses int64
	CacheResets int64
}

// Factory creates one Backend per stream; NewFactory builds one. A
// factory is called concurrently from the pipeline's shard goroutines.
type Factory func() (Backend, error)

// MetricCounters holds a pipeline's observability totals: the pipeline
// adds to them where each event happens (Config.Metrics), and every
// reader is safe to call concurrently. Bytes count successful Feeds;
// Matches count the tags of batches handed to the sink; recoveries,
// collisions and the table's cache stats are folded in from
// Backend.Counters when a stream ends. The zero value is ready.
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

// addStream folds one ended stream's backend totals into the counters.
// Bytes and matches are not taken from it: the pipeline counts those as
// they pass.
func (c *MetricCounters) addStream(b Counters) {
	if b.Recoveries|b.Collisions != 0 {
		c.recoveries.Add(b.Recoveries)
		c.collisions.Add(b.Collisions)
	}
	if b.CacheHits|b.CacheMisses|b.CacheResets != 0 {
		c.cacheHits.Add(b.CacheHits)
		c.cacheMisses.Add(b.CacheMisses)
		c.cacheResets.Add(b.CacheResets)
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
