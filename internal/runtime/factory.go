package runtime

import (
	"sync/atomic"

	"cfgtag/internal/core"
	"cfgtag/internal/earley"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/parser"
	"cfgtag/internal/stream"
)

// Kind names one execution form of a compiled grammar. The three served
// kinds run the paper's stack-less automaton and are what pipelines,
// tenants and the network layer accept; the three reference kinds exist to
// be measured against — conformance oracles, the precision rail's
// yardstick, single-stream inspection — and are constructible here but
// refused by every serving layer (see CheckServed).
type Kind string

const (
	KindStream Kind = "stream" // the bit-parallel NFA, the software stand-in for the hardware; "" selects it too
	KindDFA    Kind = "dfa"    // its determinized table, filled on demand and shared by the factory's streams
	KindAOT    Kind = "aot"    // the same table filled to closure at build time
	KindGates  Kind = "gates"  // reference: cycle-accurate simulation of the generated netlist
	KindParser Kind = "parser" // reference: the LL(1) predictive parser
	KindEarley Kind = "earley" // reference: the exact-language oracle, tags unioned over all derivations
)

// CheckServed is the serving layers' gate: nil for the served kinds, a
// ConfigError naming field for a reference or unknown kind.
func (k Kind) CheckServed(field string) error {
	switch k {
	case "", KindStream, KindDFA, KindAOT:
		return nil
	case KindGates, KindParser, KindEarley:
		return &ConfigError{Field: field, Value: string(k), Reason: "reference backend, not served: " +
			"run it single-stream (Engine.NewBackend, cfgtagger -backend without -shards) or use stream, dfa or aot"}
	}
	return &ConfigError{Field: field, Value: string(k), Reason: "unknown backend kind"}
}

// FactoryOptions selects and tunes the Factory NewFactory builds.
type FactoryOptions struct {
	// Kind is the execution form ("" = KindStream).
	Kind Kind
	// MaxStates bounds the table of the dfa and aot kinds (0 =
	// stream.DefaultMaxStates): on dfa the states of one epoch, after
	// which the table resets; on aot the closure budget, past which
	// NewFactory fails. Ignored elsewhere.
	MaxStates int
	// NoAccel disables skip-ahead acceleration on the dfa and aot kinds,
	// for differential runs against the accelerated path.
	NoAccel bool
	// Limits bounds each stream of the FSA kinds and names the gauge the
	// factory's shared state is charged to.
	Limits Limits
}

// NewFactory compiles spec into the Factory of one execution form — the
// only way to obtain one. Everything shared between streams is built
// here, once, so minting a Backend is cheap: the dfa kind's table (filled
// by live traffic and bounded by MaxStates; on overflow it starts a new
// epoch, degrading to NFA speed, never to unbounded memory), the aot
// kind's table filled to closure (a grammar that does not close within
// MaxStates is an error here — there is no lazy fallback, by design), the
// netlist, the LL(1) table (an error for other grammars) and the Earley
// recognizer (an error for spec options with no exact-language
// counterpart: FreeRunningStart, AllEnabled, recovery modes).
//
// What the factory holds on Limits.Mem — the closed table from the start,
// the lazy one as it grows — stays charged until release is called, which
// the owner does when no stream of the factory is left: Pipeline.Close, or
// the retirement of a reloaded version. release is never nil and calling
// it again is a no-op.
func NewFactory(spec *core.Spec, o FactoryOptions) (f Factory, release func(), err error) {
	if n := o.Limits.MaxPendingMatches; n < 0 {
		return nil, nil, &ConfigError{Field: "Limits.MaxPendingMatches", Value: n, Reason: "must be >= 0 (0 = unlimited)"}
	}
	mem := o.Limits.Mem
	var charged atomic.Int64
	var charge func(int64) // nil without a gauge, so the engines skip the accounting
	if mem != nil {
		charge = func(d int64) { charged.Add(d); mem.Add(d) }
	}
	release = func() { mem.Add(-charged.Swap(0)) }

	switch o.Kind {
	case "", KindStream:
		proto := stream.NewTagger(spec)
		f = newFSA(o.Limits, func(b *fsaBackend) error {
			// Clone, never hand out proto: factories run concurrently on
			// shard goroutines and clones share only the read-only masks.
			tg := proto.Clone()
			b.bind(tg, &tg.OnMatch, &tg.OnError, &tg.OnCollision, &tg.Errors, &tg.Collisions)
			return nil
		})
	case KindDFA, KindAOT:
		cfg := stream.TableConfig{MaxStates: o.MaxStates, NoAccel: o.NoAccel, MemDelta: charge}
		var tbl *stream.Table
		if o.Kind == KindDFA {
			tbl = stream.NewTable(spec, cfg)
		} else if tbl, err = stream.Determinize(spec, cfg); err != nil {
			return nil, nil, err
		}
		f = newFSA(o.Limits, func(b *fsaBackend) error {
			if o.Kind == KindAOT {
				// Reported at every mint, so metric targets see per-tenant
				// compile cost after each reload.
				b.hooks.compileStats(b.shard, tbl.CompileStats())
			}
			b.bindRunner(tbl.NewRunner())
			return nil
		})
	case KindGates:
		d, err := hwgen.Generate(spec, hwgen.Options{})
		if err != nil {
			return nil, nil, err
		}
		f = newFSA(o.Limits, func(b *fsaBackend) error {
			// The netlist is shared read-only; each stream simulates its
			// own state.
			r, err := hwgen.NewRunner(d)
			if err != nil {
				return err
			}
			g := &gateEngine{r: r}
			g.Reset()
			b.bind(g, &g.onMatch, &g.onError, &g.onCollision, &g.errors, &g.collisions)
			return nil
		})
	case KindParser:
		table, err := parser.BuildTable(spec)
		if err != nil {
			return nil, nil, err
		}
		f = newSentence(spec, table.Parse)
	case KindEarley:
		rec, err := earley.New(spec)
		if err != nil {
			return nil, nil, err
		}
		f = newSentence(spec, rec.Tags)
	default:
		return nil, nil, &ConfigError{Field: "Kind", Value: string(o.Kind), Reason: "unknown backend kind"}
	}
	return f, release, nil
}
