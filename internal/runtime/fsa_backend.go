package runtime

import (
	"cfgtag/internal/aot"
	"cfgtag/internal/stream"
)

// fsaEngine is what every execution of the stack-less automaton offers the
// adapter: stream.Tagger (the bit-parallel NFA, the software stand-in for
// the 1-byte-per-cycle hardware), stream.DFA (its lazily determinized,
// cached compilation), aot.Runner (the same determinization run to
// closure offline, executed from flat tables) and gateEngine (the
// cycle-accurate netlist). Detections, recoveries and collisions leave
// through the callbacks bind wires.
type fsaEngine interface {
	Write(p []byte) (int, error)
	Close() error
	Reset()
}

// fsaBackend adapts any fsaEngine to the Backend contract. The four kinds
// differ only in the engine minted per stream and in two read-only
// extras: the dfa kind reports its shared transition cache, the aot kind
// its program's compile cost.
type fsaBackend struct {
	eng     fsaEngine
	shard   int
	hooks   *Hooks
	lim     Limits
	out     []stream.Match // the caller's buffer, held only during a call
	bytes   int64
	matches int64
	// recoveries and collisions point at the engine's own counters.
	recoveries, collisions *int64

	dfa *stream.DFA // dfa kind only
	// Cache-stat totals already reported to the hooks: the cache and its
	// lifetime counters survive Reset by design — warm caches are the
	// point.
	repHits, repMisses, repResets int64

	prog *aot.Program // aot kind only
}

// newFSA returns the Factory of one FSA kind; mint creates the stream's
// engine and binds it to b.
func newFSA(lim Limits, mint func(b *fsaBackend) error) Factory {
	return func(shard int, h *Hooks) (Backend, error) {
		b := &fsaBackend{shard: shard, hooks: h, lim: lim}
		if err := mint(b); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// bind installs eng with its callback slots and counters.
func (b *fsaBackend) bind(eng fsaEngine, onMatch *func(stream.Match), onError *func(int64),
	onCollision *func(int64, int, int), recoveries, collisions *int64) {
	b.eng, b.recoveries, b.collisions = eng, recoveries, collisions
	*onMatch = func(m stream.Match) {
		b.out = append(b.out, m)
		b.matches++
	}
	*onError = func(pos int64) { b.hooks.recovery(b.shard, pos) }
	*onCollision = func(pos int64, x, y int) { b.hooks.collision(b.shard, pos, x, y) }
}

func (b *fsaBackend) Reset() {
	b.eng.Reset()
	b.bytes = 0
	b.matches = 0
}

func (b *fsaBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	n, err := b.eng.Write(p)
	out, b.out = b.out, nil
	b.bytes += int64(n)
	b.hooks.bytes(b.shard, n)
	b.hooks.matches(b.shard, int(b.matches-before))
	if err == nil {
		err = b.lim.checkPending(int(b.matches - before))
	}
	return out, err
}

func (b *fsaBackend) Close(out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	err := b.eng.Close()
	out, b.out = b.out, nil
	b.hooks.matches(b.shard, int(b.matches-before))
	if b.dfa != nil {
		hits, misses, resets := b.dfa.CacheStats()
		if dh, dm, dr := hits-b.repHits, misses-b.repMisses, resets-b.repResets; dh|dm|dr != 0 {
			b.hooks.cacheStats(b.shard, dh, dm, dr)
			b.repHits, b.repMisses, b.repResets = hits, misses, resets
		}
	}
	return out, err
}

func (b *fsaBackend) Counters() Counters {
	c := Counters{Bytes: b.bytes, Matches: b.matches, Recoveries: *b.recoveries, Collisions: *b.collisions}
	if b.dfa != nil {
		// Cache totals span the backend's lifetime, not the last Reset.
		c.CacheHits, c.CacheMisses, c.CacheResets = b.dfa.CacheStats()
	}
	return c
}

// CacheBound reports the dfa kind's cached state count and its configured
// bound (zeros on the other kinds), for the conformance harness's
// cache-bound audit.
func (b *fsaBackend) CacheBound() (states, max int) {
	if b.dfa == nil {
		return 0, 0
	}
	return b.dfa.CacheStates(), b.dfa.MaxStates()
}

// CompileStats reports the aot kind's offline compile cost; zero on the
// other kinds, which compile nothing ahead of time.
func (b *fsaBackend) CompileStats() stream.CompileStats {
	if b.prog == nil {
		return stream.CompileStats{}
	}
	return b.prog.Stats()
}
