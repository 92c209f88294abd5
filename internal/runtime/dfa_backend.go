package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// dfaBackend adapts the lazy-DFA compiled engine — the cached
// determinization of the bit-parallel NFA — to the Backend contract. It is
// the highest-throughput software path: identical detections to the stream
// backend, served from hash-consed transition outcomes instead of per-byte
// bitset recomputation.
type dfaBackend struct {
	d       *stream.DFA
	shard   int
	hooks   *Hooks
	lim     Limits
	out     []stream.Match // the caller's buffer, held only during a call
	bytes   int64
	matches int64

	// Cache-stat deltas already reported to the hooks (the cache, and its
	// lifetime counters, survive Reset by design — warm caches are the
	// point).
	repHits, repMisses, repResets int64
}

// DFAFactory returns a Factory producing lazy-DFA engines. The spec is
// compiled once and every Backend executes against one shared transition
// cache bounded by maxStates states (0 = stream.DefaultDFAMaxStates):
// determinization is paid once per factory, not once per stream, and
// late-arriving streams run warm from their first byte. On overflow the
// cache resets wholesale and rebuilds from live traffic, so the path
// degrades to NFA speed, never to unbounded memory.
func DFAFactory(spec *core.Spec, maxStates int) Factory {
	return DFAFactoryConfig(spec, stream.DFAConfig{MaxStates: maxStates})
}

// DFAFactoryConfig is DFAFactory with the full stream.DFAConfig exposed,
// notably NoAccel for differential runs against the skip-ahead path.
func DFAFactoryConfig(spec *core.Spec, cfg stream.DFAConfig) Factory {
	return DFAFactoryLimits(spec, cfg, Limits{})
}

// DFAFactoryLimits is DFAFactoryConfig with per-stream resource bounds:
// MaxPendingMatches bounds the matches one Feed may confirm (error
// wrapping ErrResourceExhausted on trip), and Limits.Mem — unless the
// DFAConfig already carries a MemDelta — observes the shared transition
// cache's estimated footprint, so tenant memory budgets see cache growth.
func DFAFactoryLimits(spec *core.Spec, cfg stream.DFAConfig, lim Limits) Factory {
	if cfg.MemDelta == nil {
		cfg.MemDelta = lim.Mem.Delta()
	}
	cache := stream.NewDFACache(spec, cfg)
	return func(shard int, h *Hooks) (Backend, error) {
		d := cache.NewDFA()
		b := &dfaBackend{d: d, shard: shard, hooks: h, lim: lim}
		d.OnMatch = func(m stream.Match) {
			b.out = append(b.out, m)
			b.matches++
		}
		d.OnError = func(pos int64) { b.hooks.recovery(b.shard, pos) }
		d.OnCollision = func(pos int64, x, y int) { b.hooks.collision(b.shard, pos, x, y) }
		return b, nil
	}
}

func (b *dfaBackend) Reset() {
	b.d.Reset()
	b.bytes = 0
	b.matches = 0
}

func (b *dfaBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	n, err := b.d.Write(p)
	out, b.out = b.out, nil
	b.bytes += int64(n)
	b.hooks.bytes(b.shard, n)
	b.hooks.matches(b.shard, int(b.matches-before))
	if err == nil {
		err = b.lim.checkPending(int(b.matches - before))
	}
	return out, err
}

func (b *dfaBackend) Close(out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	err := b.d.Close()
	out, b.out = b.out, nil
	b.hooks.matches(b.shard, int(b.matches-before))
	hits, misses, resets := b.d.CacheStats()
	if dh, dm, dr := hits-b.repHits, misses-b.repMisses, resets-b.repResets; dh|dm|dr != 0 {
		b.hooks.cacheStats(b.shard, dh, dm, dr)
		b.repHits, b.repMisses, b.repResets = hits, misses, resets
	}
	return out, err
}

// CacheStates reports the number of DFA states currently cached;
// MaxStates the configured bound. Exposed for the conformance harness's
// cache-bound assertion.
func (b *dfaBackend) CacheStates() int { return b.d.CacheStates() }
func (b *dfaBackend) MaxStates() int   { return b.d.MaxStates() }

func (b *dfaBackend) Counters() Counters {
	hits, misses, resets := b.d.CacheStats()
	return Counters{
		Bytes:      b.bytes,
		Matches:    b.matches,
		Recoveries: b.d.Errors,
		Collisions: b.d.Collisions,
		// Cache totals span the backend's lifetime, not the last Reset:
		// the transition cache is deliberately kept warm across streams.
		CacheHits:   hits,
		CacheMisses: misses,
		CacheResets: resets,
	}
}
