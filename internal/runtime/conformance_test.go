package runtime_test

import (
	"testing"

	"cfgtag/internal/grammar"
	"cfgtag/internal/oracle"
	"cfgtag/internal/workload"
)

// The conformance lattice is the served table's acceptance check: the
// table runtime.NewFactory builds, and the bounded, unaccelerated and
// closed variants built through runtime.TableFactory, against the
// references of package oracle. It lives in the external test package,
// which may import oracle; runtime itself never does.

// TestConformanceBuiltins runs the differential harness over the paper's
// grammars, where every backend is available (the builtins are LL(1) with
// unambiguous lexicons, so the Earley oracle must agree with the parser
// exactly, not just contain it).
func TestConformanceBuiltins(t *testing.T) {
	for _, g := range []*grammar.Grammar{
		grammar.BalancedParens(), grammar.IfThenElse(), grammar.XMLRPC(),
	} {
		if err := oracle.Conformance(g, 17, oracle.ConformanceOptions{Trials: 10, Corrupt: true, ExactOracle: true}); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

// TestConformanceRandomGrammars fuzzes the cross-backend relation on
// random grammars. Non-LL(1) seeds still differential-test the two FSA
// paths against each other.
func TestConformanceRandomGrammars(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		g := workload.RandomGrammar(seed)
		if err := oracle.Conformance(g, seed*31+7, oracle.ConformanceOptions{Trials: 4, Corrupt: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
