package oracle

import (
	"os"
	"reflect"
	"testing"

	"cfgtag/internal/grammar"
)

func readGrammar(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestMeasurePrecisionDeterministic: same (seed, trials) must reproduce
// the measurement exactly — the rail's gate depends on it.
func TestMeasurePrecisionDeterministic(t *testing.T) {
	a, err := MeasurePrecision(grammar.IfThenElse(), "ll1", 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasurePrecision(grammar.IfThenElse(), "ll1", 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic measurement:\n%+v\n%+v", a, b)
	}
	if a.StreamTags == 0 || a.Bytes == 0 {
		t.Fatalf("empty measurement: %+v", a)
	}
}

// TestMeasurePrecisionFindsFalsePositives: the figure 1 grammar is the
// paper's own example of the superset (unbalanced parens still tokenize),
// so the perturbed inputs must surface a nonzero false-positive rate.
func TestMeasurePrecisionFindsFalsePositives(t *testing.T) {
	p, err := MeasurePrecision(grammar.BalancedParens(), "ll1", 1, 24)
	if err != nil {
		t.Fatal(err)
	}
	if p.FalsePositives == 0 {
		t.Fatalf("no false positives measured on balanced-parens: %+v", p)
	}
	if p.FPRatePct <= 0 || p.FPRatePct > 100 {
		t.Fatalf("fp rate out of range: %+v", p)
	}
	if p.OracleTags+p.FalsePositives != p.StreamTags {
		t.Fatalf("tag accounting broken: %+v", p)
	}
}

// TestMeasurePrecisionAllClasses: every rail grammar measures cleanly —
// no oracle violations on any class, including the non-LL(1) corpus.
func TestMeasurePrecisionAllClasses(t *testing.T) {
	for _, tc := range []struct {
		g     *grammar.Grammar
		class string
	}{
		{grammar.BalancedParens(), "ll1"},
		{grammar.IfThenElse(), "ll1"},
		{grammar.XMLRPC(), "ll1"},
		{grammar.English(), "natlang"},
		{grammar.MustParse("arith", readGrammar(t, "../../testdata/grammars/arith.y")), "ambiguous"},
		{grammar.MustParse("dangling", readGrammar(t, "../../testdata/grammars/dangling.y")), "ambiguous"},
		{grammar.MustParse("rightrec", readGrammar(t, "../../testdata/grammars/rightrec.y")), "right-recursive"},
	} {
		t.Run(tc.g.Name, func(t *testing.T) {
			p, err := MeasurePrecision(tc.g, tc.class, 5, 8)
			if err != nil {
				t.Fatal(err)
			}
			if p.StreamTags == 0 {
				t.Fatalf("no stream tags measured: %+v", p)
			}
		})
	}
}

// TestAggregateByClass folds grammar rows into class rows.
func TestAggregateByClass(t *testing.T) {
	got := AggregateByClass([]Precision{
		{Grammar: "a", Class: "ll1", StreamTags: 10, FalsePositives: 1},
		{Grammar: "b", Class: "amb", StreamTags: 5, FalsePositives: 5},
		{Grammar: "c", Class: "ll1", StreamTags: 10, FalsePositives: 3},
	})
	want := []ClassPrecision{
		{Class: "ll1", Members: 2, StreamTags: 20, FalsePositives: 4, FPRatePct: 20},
		{Class: "amb", Members: 1, StreamTags: 5, FalsePositives: 5, FPRatePct: 100},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
