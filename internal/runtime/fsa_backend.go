package runtime

import "cfgtag/internal/stream"

// fsaEngine is what the callback-style executions of the stack-less
// automaton offer the adapter: the two reference kinds, stream.Tagger (the
// bit-parallel NFA, the software stand-in for the 1-byte-per-cycle
// hardware) and gateEngine (the cycle-accurate netlist). Detections
// leave through the callback bind wires; recoveries and collisions are
// read from the engine's counters. The served table runs a stream.Runner
// instead, which appends detections itself.
type fsaEngine interface {
	Write(p []byte) (int, error)
	Close() error
	Reset()
}

// fsaBackend adapts any execution of the automaton to the Backend
// contract. The table, the NFA and the netlist differ only in the engine
// minted per stream.
type fsaBackend struct {
	// run is the table runner, nil on the reference kinds: it appends into
	// the caller's buffer and counts its own rare events, so minting one
	// allocates no closure. It also yields the table's cache stats and
	// CompileStats.
	run *stream.Runner
	// eng is the callback engine of the other kinds, nil with run.
	eng     fsaEngine
	lim     Limits
	out     []stream.Match // the caller's buffer, held only during an eng call
	bytes   int64
	matches int64
	// recoveries and collisions point at the engine's own counters.
	recoveries, collisions *int64
}

// newFSA returns the Factory of one FSA kind; mint creates the stream's
// engine and binds it to b.
func newFSA(lim Limits, mint func(b *fsaBackend) error) Factory {
	return func() (Backend, error) {
		b := &fsaBackend{lim: lim}
		if err := mint(b); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// bindRunner installs a table runner: no per-stream closure.
func (b *fsaBackend) bindRunner(r *stream.Runner) {
	b.run, b.recoveries, b.collisions = r, &r.Errors, &r.Collisions
}

// bind installs a callback engine with its match slot and counters.
func (b *fsaBackend) bind(eng fsaEngine, onMatch *func(stream.Match), recoveries, collisions *int64) {
	b.eng, b.recoveries, b.collisions = eng, recoveries, collisions
	*onMatch = func(m stream.Match) { b.out = append(b.out, m) }
}

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
	confirmed := len(out) - before
	b.matches += int64(confirmed)
	if err == nil {
		b.bytes += int64(len(p))
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

// CompileStats reports the table's current size; zero on the reference
// kinds, which have no table.
func (b *fsaBackend) CompileStats() stream.CompileStats {
	if b.run == nil {
		return stream.CompileStats{}
	}
	return b.run.Table().CompileStats()
}
