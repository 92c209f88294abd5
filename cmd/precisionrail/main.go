// Command precisionrail measures the FSA over-approximation against the
// exact-language Earley oracle and emits the precision-rail JSON document:
// per-grammar and per-class false-positive tag rates over the workload
// generators, at both the full and the smoke trial counts.
//
//	precisionrail                       print the document to stdout
//	precisionrail -out FILE             write it to FILE
//	precisionrail -trials N -seed S     override the measurement knobs
//	precisionrail -grammars DIR         corpus directory of .y files
//
// The run is deterministic in (seed, trials): the same source tree always
// emits the same document, so scripts/precision.sh can gate on rate drift
// with a small tolerance. Oracle violations (the oracle rejecting a
// generated sentence, or claiming a tag the stream path lacks) exit
// nonzero — those are correctness bugs, not precision regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cfgtag/internal/grammar"
	"cfgtag/internal/oracle"
)

// document is the PRECISION_baseline.json schema ("cfgtag-precision/1").
type document struct {
	Schema        string                  `json:"schema"`
	Seed          int64                   `json:"seed"`
	Trials        int                     `json:"trials"`
	SmokeTrials   int                     `json:"smoke_trials"`
	TolerancePP   float64                 `json:"tolerance_pp"`
	Grammars      []oracle.Precision      `json:"grammars"`
	Classes       []oracle.ClassPrecision `json:"classes"`
	SmokeGrammars []oracle.Precision      `json:"smoke_grammars"`
	SmokeClasses  []oracle.ClassPrecision `json:"smoke_classes"`
}

// corpusClasses names the grammar class of each committed corpus file;
// unknown files measure under the catch-all "corpus" class.
var corpusClasses = map[string]string{
	"arith":    "ambiguous",
	"dangling": "ambiguous",
	"rightrec": "right-recursive",
}

func main() {
	var (
		out       = flag.String("out", "", "write the JSON document here (default stdout)")
		trials    = flag.Int("trials", 48, "sentences per grammar for the full measurement")
		smoke     = flag.Int("smoke-trials", 12, "sentences per grammar for the smoke measurement")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		tolerance = flag.Float64("tolerance", 2.0, "gate tolerance in percentage points, recorded in the document")
		dir       = flag.String("grammars", "testdata/grammars", "corpus directory of .y grammars")
	)
	flag.Parse()

	grammars, err := railGrammars(*dir)
	if err != nil {
		fail(err)
	}
	doc := document{
		Schema:      "cfgtag-precision/1",
		Seed:        *seed,
		Trials:      *trials,
		SmokeTrials: *smoke,
		TolerancePP: *tolerance,
	}
	if doc.Grammars, err = measure(grammars, *seed, *trials); err != nil {
		fail(err)
	}
	doc.Classes = oracle.AggregateByClass(doc.Grammars)
	if doc.SmokeGrammars, err = measure(grammars, *seed, *smoke); err != nil {
		fail(err)
	}
	doc.SmokeClasses = oracle.AggregateByClass(doc.SmokeGrammars)

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}
}

type railGrammar struct {
	g     *grammar.Grammar
	class string
}

// railGrammars lists the measured grammars: the paper's builtins (LL(1)),
// the section 5.1 natural-language fragment, and every .y file in the
// corpus directory, sorted for determinism.
func railGrammars(dir string) ([]railGrammar, error) {
	out := []railGrammar{
		{grammar.BalancedParens(), "ll1"},
		{grammar.IfThenElse(), "ll1"},
		{grammar.XMLRPC(), "ll1"},
		{grammar.English(), "natlang"},
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.y"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(f), ".y")
		g, err := grammar.Parse(name, string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		class, ok := corpusClasses[name]
		if !ok {
			class = "corpus"
		}
		out = append(out, railGrammar{g, class})
	}
	return out, nil
}

// measure runs every rail grammar at one trial count. Per-grammar seeds
// are offset by position so grammars draw independent sentence streams.
func measure(gs []railGrammar, seed int64, trials int) ([]oracle.Precision, error) {
	out := make([]oracle.Precision, 0, len(gs))
	for i, rg := range gs {
		p, err := oracle.MeasurePrecision(rg.g, rg.class, seed+int64(i)*1000003, trials)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "precisionrail:", err)
	os.Exit(1)
}
