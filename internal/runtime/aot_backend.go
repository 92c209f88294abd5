package runtime

import (
	"cfgtag/internal/aot"
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// aotBackend adapts the ahead-of-time compiled tables — the lazy DFA's
// determinization run to closure offline — to the Backend contract. The
// hot path is table-driven and allocation-free the way the synthesized
// hardware is: no hash probes, no atomic loads, no fills, no cache resets.
// The trade is paid at factory build time (compile can fail on grammars
// that do not close within the state budget), which is exactly where the
// platform wants it: once per grammar version, amortized over every
// stream of every reload.
type aotBackend struct {
	r       *aot.Runner
	shard   int
	hooks   *Hooks
	lim     Limits
	out     []stream.Match // the caller's buffer, held only during a call
	bytes   int64
	matches int64
}

// AOTFactory returns a Factory producing runners over one ahead-of-time
// compiled program. The grammar is determinized to closure once, here;
// factory construction fails when it does not close within maxStates
// states (0 = stream.DefaultDFAMaxStates) — unlike the lazy path there is
// no reset-and-rebuild fallback, by design.
func AOTFactory(spec *core.Spec, maxStates int) (Factory, error) {
	return AOTFactoryConfig(spec, aot.Config{MaxStates: maxStates})
}

// AOTFactoryConfig is AOTFactory with the full aot.Config exposed, notably
// NoAccel for differential runs against the skip-ahead path.
func AOTFactoryConfig(spec *core.Spec, cfg aot.Config) (Factory, error) {
	return AOTFactoryLimits(spec, cfg, Limits{})
}

// AOTFactoryLimits is AOTFactoryConfig with per-stream resource bounds:
// MaxPendingMatches bounds the matches one Feed may confirm, and
// Limits.Mem is charged the compiled tables' footprint for as long as the
// factory lives (the platform releases it when the version retires).
func AOTFactoryLimits(spec *core.Spec, cfg aot.Config, lim Limits) (Factory, error) {
	prog, err := aot.Compile(spec, cfg)
	if err != nil {
		return nil, err
	}
	if lim.Mem != nil {
		// Standalone use: charge the tables for the process lifetime. The
		// platform path uses AOTProgramFactory and pairs the charge with a
		// release on version retirement instead.
		lim.Mem.Add(int64(prog.Stats().TableBytes))
	}
	return AOTProgramFactory(prog, lim), nil
}

// AOTProgramFactory wraps an already compiled program as a Factory: the
// platform compiles once per grammar version (charging its memory budget
// explicitly) and mints per-stream runners from the shared tables. Each
// mint reports the program's CompileStats through the hooks, so metrics
// surfaces see per-tenant compile cost after every reload.
func AOTProgramFactory(prog *aot.Program, lim Limits) Factory {
	return func(shard int, h *Hooks) (Backend, error) {
		h.compileStats(shard, prog.Stats())
		b := &aotBackend{r: prog.NewRunner(), shard: shard, hooks: h, lim: lim}
		b.r.OnMatch = func(m stream.Match) {
			b.out = append(b.out, m)
			b.matches++
		}
		b.r.OnError = func(pos int64) { b.hooks.recovery(b.shard, pos) }
		b.r.OnCollision = func(pos int64, x, y int) { b.hooks.collision(b.shard, pos, x, y) }
		return b, nil
	}
}

func (b *aotBackend) Reset() {
	b.r.Reset()
	b.bytes = 0
	b.matches = 0
}

func (b *aotBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	n, err := b.r.Write(p)
	out, b.out = b.out, nil
	b.bytes += int64(n)
	b.hooks.bytes(b.shard, n)
	b.hooks.matches(b.shard, int(b.matches-before))
	if err == nil {
		err = b.lim.checkPending(int(b.matches - before))
	}
	return out, err
}

func (b *aotBackend) Close(out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	err := b.r.Close()
	out, b.out = b.out, nil
	b.hooks.matches(b.shard, int(b.matches-before))
	return out, err
}

// CompileStats reports the shared program's offline compile cost.
func (b *aotBackend) CompileStats() stream.CompileStats { return b.r.Program().Stats() }

func (b *aotBackend) Counters() Counters {
	return Counters{
		Bytes:      b.bytes,
		Matches:    b.matches,
		Recoveries: b.r.Errors,
		Collisions: b.r.Collisions,
		// No cache counters: the whole point of the path is that there is
		// no cache — every transition was computed before the first byte.
	}
}
