package oracle

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cfgtag/internal/core"
	"cfgtag/internal/earley"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
)

// Precision quantifies the FSA over-approximation for one grammar: of the
// tags the stream engine emits, how many does the exact-language Earley
// oracle justify? The PDA→FSA collapse (paper section 3.1) accepts a
// superset of the language, so on inputs outside the language — and, for
// some grammars, even on conforming sentences — the hardware path tags
// positions no derivation supports. Those are the false positives.
type Precision struct {
	Grammar        string  `json:"grammar"`
	Class          string  `json:"class"`
	Trials         int     `json:"trials"`
	Bytes          int64   `json:"bytes"`
	StreamTags     int64   `json:"stream_tags"`
	OracleTags     int64   `json:"oracle_tags"`
	FalsePositives int64   `json:"false_positives"`
	FPRatePct      float64 `json:"fp_rate_pct"`
}

// MeasurePrecision runs the precision workload for one grammar: per trial,
// one conforming sentence from the workload generator plus two
// perturbations that leave the FSA tagging away while exiting the exact
// language — a single smashed byte, and a splice of two sentence halves
// (the paper's figure 2 superset: structurally unbalanced input the
// collapsed automaton still walks). Every stream tag the oracle does not
// justify counts as a false positive; on oracle-rejected input that is
// every stream tag, since no derivation exists at all.
//
// The run is deterministic in (seed, trials). Two invariants are enforced
// as hard errors rather than measured: the oracle must accept every
// generated sentence, and accepted-input oracle tags must be a subset of
// the stream tags.
func MeasurePrecision(g *grammar.Grammar, class string, seed int64, trials int) (Precision, error) {
	p := Precision{Grammar: g.Name, Class: class, Trials: trials}
	spec, err := core.Compile(g, core.Options{})
	if err != nil {
		return p, fmt.Errorf("precision %s: compile: %w", g.Name, err)
	}
	rec, err := earley.New(spec)
	if err != nil {
		return p, fmt.Errorf("precision %s: oracle: %w", g.Name, err)
	}
	gen := workload.NewGenerator(spec, seed, workload.SentenceOptions{MaxDepth: 8})
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))

	for trial := 0; trial < trials; trial++ {
		a, _ := gen.Sentence()
		b, _ := gen.Sentence()
		inputs := [][]byte{a}
		if len(a) > 2 {
			bad := append([]byte(nil), a...)
			bad[rng.Intn(len(bad))] = '@'
			inputs = append(inputs, bad)
		}
		if len(a) > 1 && len(b) > 1 {
			splice := append(append([]byte(nil), a[:len(a)/2]...), b[len(b)/2:]...)
			inputs = append(inputs, splice)
		}
		for i, in := range inputs {
			conforming := i == 0
			sw := make(map[stream.Match]bool)
			for _, m := range stream.NewTagger(spec).Tag(in) {
				sw[m] = true
			}
			oracle := make(map[stream.Match]bool)
			tags, err := rec.Tags(in)
			switch {
			case err == nil:
				for _, tag := range tags {
					m := stream.Match{InstanceID: spec.InstanceAt(tag.Rule, tag.Pos).ID, End: int64(tag.End)}
					if !sw[m] {
						return p, fmt.Errorf("precision %s: oracle violation: earley tag %v missing from stream tags on %q", g.Name, m, in)
					}
					oracle[m] = true
				}
			case conforming:
				return p, fmt.Errorf("precision %s: oracle rejected conforming sentence %q: %w", g.Name, in, err)
			default:
				var rej *earley.RejectError
				if !errors.As(err, &rej) {
					return p, fmt.Errorf("precision %s: oracle on %q: %w", g.Name, in, err)
				}
			}
			p.Bytes += int64(len(in))
			p.StreamTags += int64(len(sw))
			p.OracleTags += int64(len(oracle))
			for m := range sw {
				if !oracle[m] {
					p.FalsePositives++
				}
			}
		}
	}
	if p.StreamTags > 0 {
		p.FPRatePct = roundPct(100 * float64(p.FalsePositives) / float64(p.StreamTags))
	}
	return p, nil
}

// ClassPrecision aggregates Precision over every grammar sharing a class.
type ClassPrecision struct {
	Class          string  `json:"class"`
	Members        int     `json:"members"`
	StreamTags     int64   `json:"stream_tags"`
	FalsePositives int64   `json:"false_positives"`
	FPRatePct      float64 `json:"fp_rate_pct"`
}

// AggregateByClass folds per-grammar measurements into per-class rates,
// preserving first-appearance class order.
func AggregateByClass(ps []Precision) []ClassPrecision {
	idx := make(map[string]int)
	var out []ClassPrecision
	for _, p := range ps {
		i, ok := idx[p.Class]
		if !ok {
			i = len(out)
			idx[p.Class] = i
			out = append(out, ClassPrecision{Class: p.Class})
		}
		out[i].Members++
		out[i].StreamTags += p.StreamTags
		out[i].FalsePositives += p.FalsePositives
	}
	for i := range out {
		if out[i].StreamTags > 0 {
			out[i].FPRatePct = roundPct(100 * float64(out[i].FalsePositives) / float64(out[i].StreamTags))
		}
	}
	return out
}

// roundPct keeps emitted rates diff-stable across platforms.
func roundPct(x float64) float64 { return math.Round(x*1000) / 1000 }
