package runtime

import (
	"sync/atomic"

	"cfgtag/internal/core"
	"cfgtag/internal/earley"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/parser"
	"cfgtag/internal/stream"
)

// Kind names one execution form of a compiled grammar. Every served stream
// runs one form — the paper's stack-less automaton as a table filled on
// demand — which pipelines, tenants and the network layer accept under the
// spellings "", "dfa" and "aot". The four reference kinds exist to be
// measured against — conformance oracles, the precision rail's yardstick,
// single-stream inspection — and are constructible here but refused by
// every serving layer (see CheckServed).
type Kind string

const (
	KindDFA    Kind = "dfa"    // the served table, filled on demand and shared by the factory's streams; "" selects it too
	KindAOT    Kind = "aot"    // another spelling of the same served table, kept because configs write it
	KindStream Kind = "stream" // reference: the bit-parallel NFA, the software stand-in for the hardware and the table's fill source
	KindGates  Kind = "gates"  // reference: cycle-accurate simulation of the generated netlist
	KindParser Kind = "parser" // reference: the LL(1) predictive parser
	KindEarley Kind = "earley" // reference: the exact-language oracle, tags unioned over all derivations
)

// CheckServed is the serving layers' gate: nil for the served table, a
// ConfigError naming field for a reference or unknown kind.
func (k Kind) CheckServed(field string) error {
	switch k {
	case "", KindDFA, KindAOT:
		return nil
	case KindStream, KindGates, KindParser, KindEarley:
		return &ConfigError{Field: field, Value: string(k), Reason: "reference backend, not served: " +
			"run it single-stream (Engine.NewBackend, cfgtagger -backend without -shards) or use the default table (dfa or aot)"}
	}
	return &ConfigError{Field: field, Value: string(k), Reason: "unknown backend kind"}
}

// FactoryOptions selects and tunes the Factory NewFactory builds.
type FactoryOptions struct {
	// Kind is the execution form ("", KindDFA and KindAOT all select the
	// served table).
	Kind Kind
	// Limits bounds each stream of the FSA kinds and names the gauge the
	// factory's shared state is charged to.
	Limits Limits
}

// NewFactory compiles spec into the Factory of one execution form — the
// only way to obtain one. Everything shared between streams is built
// here, once, so minting a Backend is cheap: the served kinds' table
// (holding only the start state until live traffic fills it, bounded by
// stream.DefaultMaxStates; on overflow it starts a new epoch, degrading to
// fill speed, never to unbounded memory), the NFA, the netlist, the LL(1)
// table (an error for other grammars) and the Earley recognizer (an error
// for spec options with no exact-language counterpart: FreeRunningStart,
// AllEnabled, recovery modes).
//
// What the factory holds on Limits.Mem — the table as it grows — stays
// charged until release is called, which the owner does when no stream of
// the factory is left: Pipeline.Close, or the retirement of a reloaded
// version. release is never nil and calling it again is a no-op.
func NewFactory(spec *core.Spec, o FactoryOptions) (f Factory, release func(), err error) {
	if err := ValidateLimits(o.Limits); err != nil {
		return nil, nil, err
	}
	mem := o.Limits.Mem
	var charged atomic.Int64
	var charge func(int64) // nil without a gauge, so the table skips the accounting
	if mem != nil {
		charge = func(d int64) { charged.Add(d); mem.Add(d) }
	}
	release = func() { mem.Add(-charged.Swap(0)) }

	switch o.Kind {
	case "", KindDFA, KindAOT:
		f = tableFactory(stream.NewTable(spec, stream.TableConfig{MemDelta: charge}), o.Limits)
	case KindStream:
		proto := stream.NewTagger(spec)
		f = newFSA(o.Limits, func(b *fsaBackend) error {
			// Clone, never hand out proto: factories run concurrently on
			// shard goroutines and clones share only the read-only masks.
			tg := proto.Clone()
			b.bind(tg, &tg.OnMatch, &tg.Errors, &tg.Collisions)
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
			b.bind(g, &g.onMatch, &g.errors, &g.collisions)
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

// tableFactory mints runners of tbl behind the FSA adapter: the served
// kinds' factory, and the one conformance builds its bounded, unaccelerated
// and closed table variants through.
func tableFactory(tbl *stream.Table, lim Limits) Factory {
	return newFSA(lim, func(b *fsaBackend) error {
		b.bindRunner(tbl.NewRunner())
		return nil
	})
}
