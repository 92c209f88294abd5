package runtime_test

import (
	"os"
	"reflect"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/oracle"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
)

// oracleGrammars is the recursive/ambiguous coverage table: the section
// 5.1 natural-language fragment (examples/natlang) plus the committed
// testdata corpus. Only english is LL(1); the rest have no parser, so the
// Earley oracle is the sole exact judge — exactly the gap it exists to
// close.
func oracleGrammars(t *testing.T) []struct {
	g     *grammar.Grammar
	exact bool
} {
	t.Helper()
	return []struct {
		g     *grammar.Grammar
		exact bool
	}{
		{grammar.English(), true},
		{grammar.MustParse("arith", readGrammar(t, "../../testdata/grammars/arith.y")), false},
		{grammar.MustParse("dangling", readGrammar(t, "../../testdata/grammars/dangling.y")), false},
		{grammar.MustParse("rightrec", readGrammar(t, "../../testdata/grammars/rightrec.y")), false},
	}
}

// TestConformanceOracleGrammars runs the full differential harness —
// stream, gates, all three dfa variants, the Earley oracle, and the
// parser where LL(1) — over the recursive and ambiguous grammar corpus,
// including corrupted inputs.
func TestConformanceOracleGrammars(t *testing.T) {
	for _, tc := range oracleGrammars(t) {
		t.Run(tc.g.Name, func(t *testing.T) {
			opts := oracle.ConformanceOptions{Trials: 10, Corrupt: true, ExactOracle: tc.exact}
			if err := oracle.Conformance(tc.g, 23, opts); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOracleChunkStraddling feeds one sentence per grammar at every
// possible two-chunk split — so every lexeme, delimiter run and
// mid-pattern position straddles a Feed boundary once — and requires the
// earley and stream backends to reproduce their whole-buffer results
// exactly.
func TestOracleChunkStraddling(t *testing.T) {
	for _, tc := range oracleGrammars(t) {
		t.Run(tc.g.Name, func(t *testing.T) {
			spec, err := core.Compile(tc.g, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewGenerator(spec, 29, workload.SentenceOptions{MaxDepth: 8})
			var text []byte
			for len(text) < 8 { // a sentence long enough to make splits interesting
				text, _ = gen.Sentence()
			}
			for _, kind := range []string{oracle.Earley, oracle.Stream} {
				f, err := oracle.NewFactory(spec, kind)
				if err != nil {
					t.Fatal(err)
				}
				whole := feedSplit(t, f, text, -1)
				for split := 0; split <= len(text); split++ {
					if got := feedSplit(t, f, text, split); !reflect.DeepEqual(got, whole) {
						t.Fatalf("%s: split at %d of %q: matches %v, whole-buffer %v",
							kind, split, text, got, whole)
					}
				}
			}
		})
	}
}

// feedSplit runs text through a fresh backend, split into two Feeds at the
// given offset (-1 = one Feed), and returns all matches.
func feedSplit(t *testing.T, f runtime.Factory, text []byte, split int) []stream.Match {
	t.Helper()
	b, err := f()
	if err != nil {
		t.Fatal(err)
	}
	chunks := [][]byte{text}
	if split >= 0 {
		chunks = [][]byte{text[:split], text[split:]}
	}
	var ms []stream.Match
	for _, c := range chunks {
		if ms, err = b.Feed(c, ms); err != nil {
			t.Fatal(err)
		}
	}
	if ms, err = b.Close(ms); err != nil {
		t.Fatalf("reject of conforming %q: %v", text, err)
	}
	return ms
}

func readGrammar(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
