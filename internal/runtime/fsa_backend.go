package runtime

import "cfgtag/internal/stream"

// fsaEngine is what every execution of the stack-less automaton offers the
// adapter: stream.Tagger (the bit-parallel NFA, the software stand-in for
// the 1-byte-per-cycle hardware), stream.Runner (its determinized table,
// filled on demand for dfa and to closure for aot) and gateEngine (the
// cycle-accurate netlist). Detections, recoveries and collisions leave
// through the callbacks bind wires.
type fsaEngine interface {
	Write(p []byte) (int, error)
	Close() error
	Reset()
}

// fsaBackend adapts any fsaEngine to the Backend contract. The four kinds
// differ only in the engine minted per stream.
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

	// run is the table runner of the dfa and aot kinds, nil on the others:
	// cache stats on the lazy table, CompileStats on the closed one.
	run *stream.Runner
	// Cache-stat totals already reported to the hooks: the table and the
	// runner's lifetime counters survive Reset by design — a warm table is
	// the point.
	repHits, repMisses, repResets int64
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
	if b.run != nil {
		hits, misses, resets := b.run.CacheStats()
		if dh, dm, dr := hits-b.repHits, misses-b.repMisses, resets-b.repResets; dh|dm|dr != 0 {
			b.hooks.cacheStats(b.shard, dh, dm, dr)
			b.repHits, b.repMisses, b.repResets = hits, misses, resets
		}
	}
	return out, err
}

func (b *fsaBackend) Counters() Counters {
	c := Counters{Bytes: b.bytes, Matches: b.matches, Recoveries: *b.recoveries, Collisions: *b.collisions}
	if b.run != nil {
		// Cache totals span the backend's lifetime, not the last Reset.
		c.CacheHits, c.CacheMisses, c.CacheResets = b.run.CacheStats()
	}
	return c
}

// CacheBound reports the table's state count and its configured bound
// (zeros without a table), for the conformance harness's bound audit.
func (b *fsaBackend) CacheBound() (states, max int) {
	if b.run == nil {
		return 0, 0
	}
	return b.run.Table().States(), b.run.Table().MaxStates()
}

// CompileStats reports the aot kind's closure cost; zero on the other
// kinds, which compile nothing ahead of time.
func (b *fsaBackend) CompileStats() stream.CompileStats {
	if b.run == nil {
		return stream.CompileStats{}
	}
	return b.run.Table().CompileStats()
}
