// Package oracle holds what the served table is measured against: the
// four reference executions of a compiled grammar — the bit-parallel NFA
// the table is filled from, the cycle-accurate simulation of the
// generated netlist, the LL(1) predictive-parser baseline and the Earley
// exact-language oracle — behind runtime's Backend contract, plus the
// conformance harness that holds them and the table to their documented
// relation and the precision rail that counts the table's false
// positives against the oracle.
//
// Nothing here is served: runtime builds only the table and never
// imports this package. The references are conformance oracles, the
// precision rail's yardstick and single-stream inspection tools
// (cfgtag.Engine.NewBackend).
package oracle

import (
	"errors"

	"cfgtag/internal/core"
	"cfgtag/internal/earley"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/parser"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// The reference kinds NewFactory builds, spelled as cfgtag.BackendKind
// spells them.
const (
	Stream = "stream" // the bit-parallel NFA, the software stand-in for the hardware and the table's fill source
	Gates  = "gates"  // cycle-accurate simulation of the generated netlist
	Parser = "parser" // the LL(1) predictive parser
	Earley = "earley" // the exact-language oracle, tags unioned over all derivations
)

// errClosed reports a Feed after Close, mirroring stream.Tagger's Write
// guard across the references.
var errClosed = errors.New("oracle: Feed after Close")

// NewFactory compiles spec into the Factory of one reference kind.
// Everything the kind's streams share is built here, once: the NFA, the
// netlist, the LL(1) table (an error for other grammars) or the Earley
// recognizer (an error for spec options with no exact-language
// counterpart: FreeRunningStart, AllEnabled, recovery modes). Any other
// kind is a ConfigError.
func NewFactory(spec *core.Spec, kind string) (runtime.Factory, error) {
	switch kind {
	case Stream:
		proto := stream.NewTagger(spec)
		return func() (runtime.Backend, error) {
			// Clone, never hand out proto: factories run concurrently and
			// clones share only the read-only masks.
			tg := proto.Clone()
			return bind(tg, &tg.OnMatch, &tg.Errors, &tg.Collisions), nil
		}, nil
	case Gates:
		d, err := hwgen.Generate(spec, hwgen.Options{})
		if err != nil {
			return nil, err
		}
		return func() (runtime.Backend, error) {
			// The netlist is shared read-only; each stream simulates its
			// own state.
			r, err := hwgen.NewRunner(d)
			if err != nil {
				return nil, err
			}
			g := &gateEngine{r: r}
			g.Reset()
			return bind(g, &g.onMatch, &g.errors, &g.collisions), nil
		}, nil
	case Parser:
		table, err := parser.BuildTable(spec)
		if err != nil {
			return nil, err
		}
		return newSentence(spec, table.Parse), nil
	case Earley:
		rec, err := earley.New(spec)
		if err != nil {
			return nil, err
		}
		return newSentence(spec, rec.Tags), nil
	}
	return nil, &runtime.ConfigError{Field: "Kind", Value: kind, Reason: "unknown backend kind"}
}

// callbackEngine is what the callback-style executions of the automaton
// offer the adapter: stream.Tagger (the bit-parallel NFA) and gateEngine
// (the cycle-accurate netlist). Detections leave through the callback bind
// wires; recoveries and collisions are read from the engine's counters.
type callbackEngine interface {
	Write(p []byte) (int, error)
	Close() error
	Reset()
}

// callbackBackend adapts a callbackEngine to the Backend contract.
type callbackBackend struct {
	eng     callbackEngine
	out     []stream.Match // the caller's buffer, held only during an eng call
	bytes   int64
	matches int64
	// recoveries and collisions point at the engine's own counters.
	recoveries, collisions *int64
}

// bind wraps eng, wiring its match callback slot to the caller's buffer.
func bind(eng callbackEngine, onMatch *func(stream.Match), recoveries, collisions *int64) *callbackBackend {
	b := &callbackBackend{eng: eng, recoveries: recoveries, collisions: collisions}
	*onMatch = func(m stream.Match) { b.out = append(b.out, m) }
	return b
}

func (b *callbackBackend) Reset() {
	b.eng.Reset()
	b.bytes = 0
	b.matches = 0
}

func (b *callbackBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	before := len(out)
	b.out = out
	_, err := b.eng.Write(p)
	out, b.out = b.out, nil
	b.matches += int64(len(out) - before)
	if err == nil {
		b.bytes += int64(len(p))
	}
	return out, err
}

func (b *callbackBackend) Close(out []stream.Match) ([]stream.Match, error) {
	before := len(out)
	b.out = out
	err := b.eng.Close()
	out, b.out = b.out, nil
	b.matches += int64(len(out) - before)
	return out, err
}

func (b *callbackBackend) Counters() runtime.Counters {
	return runtime.Counters{Bytes: b.bytes, Matches: b.matches, Recoveries: *b.recoveries, Collisions: *b.collisions}
}
