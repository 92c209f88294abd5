package runtime

import "cfgtag/internal/stream"

// fsaEngine is what the callback-style executions of the stack-less
// automaton offer the adapter: stream.Tagger (the bit-parallel NFA, the
// software stand-in for the 1-byte-per-cycle hardware) and gateEngine (the
// cycle-accurate netlist). Detections, recoveries and collisions leave
// through the callbacks bind wires. The table kinds (dfa and aot) run a
// stream.Runner instead, which appends detections itself.
type fsaEngine interface {
	Write(p []byte) (int, error)
	Close() error
	Reset()
}

// fsaBackend adapts any execution of the automaton to the Backend
// contract. The four kinds differ only in the engine minted per stream.
type fsaBackend struct {
	// run is the table runner of the dfa and aot kinds, nil on the others:
	// it appends into the caller's buffer and reports rare events to the
	// backend's Recovery and Collision, so minting one allocates no
	// closure. It also yields cache stats on the lazy table and
	// CompileStats on the closed one.
	run *stream.Runner
	// eng is the callback engine of the other kinds, nil with run.
	eng     fsaEngine
	shard   int
	hooks   *Hooks
	lim     Limits
	out     []stream.Match // the caller's buffer, held only during an eng call
	bytes   int64
	matches int64
	// recoveries and collisions point at the engine's own counters.
	recoveries, collisions *int64

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

// bindRunner installs a table runner: no per-stream closure.
func (b *fsaBackend) bindRunner(r *stream.Runner) {
	b.run, b.recoveries, b.collisions = r, &r.Errors, &r.Collisions
	r.Events = b
}

// bind installs a callback engine with its callback slots and counters.
func (b *fsaBackend) bind(eng fsaEngine, onMatch *func(stream.Match), onError *func(int64),
	onCollision *func(int64, int, int), recoveries, collisions *int64) {
	b.eng, b.recoveries, b.collisions = eng, recoveries, collisions
	*onMatch = func(m stream.Match) { b.out = append(b.out, m) }
	*onError = b.Recovery
	*onCollision = b.Collision
}

// Recovery and Collision forward an engine's rare events to the hooks
// (stream.Events).
func (b *fsaBackend) Recovery(pos int64) { b.hooks.recovery(b.shard, pos) }

func (b *fsaBackend) Collision(pos int64, x, y int) { b.hooks.collision(b.shard, pos, x, y) }

func (b *fsaBackend) Reset() {
	if b.run != nil {
		b.run.Reset()
	} else {
		b.eng.Reset()
	}
	b.bytes = 0
	b.matches = 0
}

func (b *fsaBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	before := len(out)
	var err error
	if b.run != nil {
		out, err = b.run.Write(p, out)
	} else {
		b.out = out
		_, err = b.eng.Write(p)
		out, b.out = b.out, nil
	}
	n, confirmed := 0, len(out)-before
	if err == nil {
		n = len(p)
	}
	b.bytes += int64(n)
	b.matches += int64(confirmed)
	b.hooks.bytes(b.shard, n)
	b.hooks.matches(b.shard, confirmed)
	if err == nil {
		err = b.lim.checkPending(confirmed)
	}
	return out, err
}

func (b *fsaBackend) Close(out []stream.Match) ([]stream.Match, error) {
	before := len(out)
	var err error
	if b.run != nil {
		out = b.run.Close(out)
	} else {
		b.out = out
		err = b.eng.Close()
		out, b.out = b.out, nil
	}
	b.matches += int64(len(out) - before)
	b.hooks.matches(b.shard, len(out)-before)
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
