package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
)

// ConformanceOptions tune the differential harness.
type ConformanceOptions struct {
	// Trials is the number of generated sentences per grammar (0 = 8).
	Trials int
	// MaxChunk bounds the random Feed chunk sizes used to exercise the
	// streaming contract (0 = 7).
	MaxChunk int
	// Corrupt additionally re-runs each sentence with one byte smashed,
	// checking the accept/reject relation instead of match equality.
	Corrupt bool
	// ExactOracle additionally asserts the Earley oracle and the LL(1)
	// parser agree *exactly* (same tag set) on conforming sentences. This
	// holds for LL(1) grammars whose lexicon is unambiguous under the
	// per-position lookahead; grammars where one lexeme admits several
	// valid ends can legitimately give the oracle extra derivations, so
	// the harness only asserts parser ⊆ earley by default.
	ExactOracle bool
	// WrapFactory, when set, wraps every backend factory before use, so
	// the whole differential relation must keep holding through the
	// wrapper. Fault-injection wrappers use it to prove they are
	// transparent while idle.
	WrapFactory func(Factory) Factory
}

// Conformance differentially tests the six Backend implementations on
// one grammar: every generated conforming sentence is fed to all backends
// in random chunkings and the results are compared under the documented
// relation —
//
//   - stream engine and gate-level simulation must agree bit for bit
//     (same matches, same order, same recovery behavior),
//   - the table, filled on demand (dfa) or to closure (aot), must agree
//     with the stream engine exactly (same matches, same recovery and
//     collision counters) — lazily with the default bound, with a
//     deliberately tiny two-state bound that forces the epoch reset on
//     every input (whose state count must also never exceed it), and
//     both kinds with skip-ahead acceleration disabled,
//   - the Earley oracle must accept every conforming sentence — on any
//     grammar class, not just LL(1) — and its tags must be a subset of
//     the stream path's tags (the FSA accepts a superset of the
//     language; dfa ⊇ earley follows from dfa == stream),
//   - the LL(1) parser, when the grammar is LL(1), must accept and its
//     tags must be a subset of both the stream tags and the oracle tags;
//     with ExactOracle the parser and the oracle must agree exactly,
//   - on corrupted input a parser or oracle reject says nothing about
//     the FSA paths beyond their mutual equality, but an input the
//     parser accepts is in the language, so the oracle must accept it
//     too and the subset relations must hold.
//
// A failing trial reports every divergence found on that input (joined
// with errors.Join), not just the first, so one run is enough to see the
// full disagreement surface. It returns nil when the grammar conforms.
func Conformance(g *grammar.Grammar, seed int64, opts ConformanceOptions) error {
	if opts.Trials == 0 {
		opts.Trials = 8
	}
	if opts.MaxChunk == 0 {
		opts.MaxChunk = 7
	}
	spec, err := core.Compile(g, core.Options{})
	if err != nil {
		return fmt.Errorf("conformance %s: compile: %w", g.Name, err)
	}
	build := func(name string, o FactoryOptions) (Factory, error) {
		f, _, err := NewFactory(spec, o)
		if err != nil {
			return nil, fmt.Errorf("conformance %s: %s factory: %w", g.Name, name, err)
		}
		if opts.WrapFactory != nil {
			f = opts.WrapFactory(f)
		}
		return f, nil
	}
	fs := backendSet{exact: opts.ExactOracle}
	if fs.stream, err = build("stream", FactoryOptions{Kind: KindStream}); err != nil {
		return err
	}
	if fs.earley, err = build("earley", FactoryOptions{Kind: KindEarley}); err != nil {
		return err
	}
	fs.parser, _ = build("parser", FactoryOptions{Kind: KindParser}) // nil when the grammar is not LL(1)
	for _, v := range fsaVariants {
		if v.f, err = build(v.name, v.o); err != nil {
			return err
		}
		fs.fsa = append(fs.fsa, v)
	}

	gen := workload.NewGenerator(spec, seed, workload.SentenceOptions{MaxDepth: 8})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))

	for trial := 0; trial < opts.Trials; trial++ {
		text, _ := gen.Sentence()
		if err := compareAll(g.Name, text, rng, opts.MaxChunk, fs, true); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		if opts.Corrupt && len(text) > 2 {
			bad := append([]byte(nil), text...)
			bad[rng.Intn(len(bad))] = '@'
			if err := compareAll(g.Name, bad, rng, opts.MaxChunk, fs, false); err != nil {
				return fmt.Errorf("trial %d (corrupted): %w", trial, err)
			}
		}
	}
	return nil
}

// fsaVariants are the forms that must reproduce the stream engine exactly,
// in the order every trial runs them.
var fsaVariants = []fsaVariant{
	{name: "gates", o: FactoryOptions{Kind: KindGates}},
	{name: "dfa", o: FactoryOptions{Kind: KindDFA}},
	{name: "dfa-tiny", o: FactoryOptions{Kind: KindDFA, MaxStates: 2}}, // forces epoch resets on real traffic
	{name: "dfa-noaccel", o: FactoryOptions{Kind: KindDFA, NoAccel: true}},
	{name: "aot", o: FactoryOptions{Kind: KindAOT}},
	{name: "aot-noaccel", o: FactoryOptions{Kind: KindAOT, NoAccel: true}},
}

type fsaVariant struct {
	name string
	o    FactoryOptions
	f    Factory // built per Conformance run
}

// backendSet bundles the factories one Conformance run compares.
type backendSet struct {
	stream, earley, parser Factory
	fsa                    []fsaVariant
	exact                  bool
}

// runResult is one backend's complete observable output for one input.
type runResult struct {
	matches  []stream.Match
	verdict  error
	counters Counters
	backend  Backend
}

// runBackend streams text through a fresh backend in random chunks.
func runBackend(f Factory, text []byte, rng *rand.Rand, maxChunk int) (runResult, error) {
	b, err := f(0, nil)
	if err != nil {
		return runResult{}, err
	}
	var ms []stream.Match
	for off := 0; off < len(text); {
		n := 1 + rng.Intn(maxChunk)
		if off+n > len(text) {
			n = len(text) - off
		}
		if ms, err = b.Feed(text[off:off+n], ms); err != nil {
			return runResult{}, err
		}
		off += n
	}
	ms, verdict := b.Close(ms)
	return runResult{matches: ms, verdict: verdict, counters: b.Counters(), backend: b}, nil
}

// cacheBounded is implemented by the FSA adapter; the harness uses it to
// audit the table's state bound after every run.
type cacheBounded interface{ CacheBound() (states, max int) }

// backendUnwrapper lets wrapping backends (fault injectors) expose the
// backend they delegate to, so audits of implementation-specific
// invariants keep working through the wrap.
type backendUnwrapper interface{ Unwrap() Backend }

// asCacheBounded finds the cacheBounded implementation under any chain of
// wrappers.
func asCacheBounded(b Backend) (cacheBounded, bool) {
	for {
		if cb, ok := b.(cacheBounded); ok {
			return cb, true
		}
		u, ok := b.(backendUnwrapper)
		if !ok {
			return nil, false
		}
		b = u.Unwrap()
	}
}

// checkFSA collects every way one FSA variant is distinguishable from the
// stream path, including a cache-bound breach.
func checkFSA(name string, v fsaVariant, text []byte, sw runResult, rng *rand.Rand, maxChunk int) []error {
	variant := v.name
	df, err := runBackend(v.f, text, rng, maxChunk)
	if err != nil {
		return []error{fmt.Errorf("%s: %s backend: %w", name, variant, err)}
	}
	var errs []error
	if !slices.Equal(sw.matches, df.matches) {
		errs = append(errs, fmt.Errorf("%s: stream and %s paths disagree on %q\n%s",
			name, variant, text, matchDiff("stream", sw.matches, variant, df.matches)))
	}
	// The netlist folds recoveries and collisions into its detect outputs
	// and counts neither.
	if v.o.Kind != KindGates && (sw.counters.Recoveries != df.counters.Recoveries || sw.counters.Collisions != df.counters.Collisions) {
		errs = append(errs, fmt.Errorf("%s: %s counters differ on %q: stream (%d recov, %d coll), %s (%d recov, %d coll)",
			name, variant, text, sw.counters.Recoveries, sw.counters.Collisions,
			variant, df.counters.Recoveries, df.counters.Collisions))
	}
	if cb, ok := asCacheBounded(df.backend); ok {
		if states, max := cb.CacheBound(); states > max {
			errs = append(errs, fmt.Errorf("%s: %s cache holds %d states, bound %d", name, variant, states, max))
		}
	}
	return errs
}

// compareAll runs one input through every backend and checks the relation,
// collecting every divergence rather than stopping at the first.
// conforming reports whether the input is a known sentence of the grammar.
func compareAll(name string, text []byte, rng *rand.Rand, maxChunk int, fs backendSet, conforming bool) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	sw, err := runBackend(fs.stream, text, rng, maxChunk)
	if err != nil {
		// Without the reference run nothing else is comparable.
		return fmt.Errorf("%s: stream backend: %w", name, err)
	}
	for _, v := range fs.fsa {
		errs = append(errs, checkFSA(name, v, text, sw, rng, maxChunk)...)
	}

	er, erErr := runBackend(fs.earley, text, rng, maxChunk)
	if erErr != nil {
		fail("%s: earley backend: %w", name, erErr)
	} else {
		if conforming && er.verdict != nil {
			fail("%s: earley oracle rejected conforming sentence %q: %w", name, text, er.verdict)
		}
		if er.verdict == nil && !subsetOf(er.matches, sw.matches) {
			fail("%s: earley tags not a subset of stream tags on %q\n%s",
				name, text, matchDiff("earley", er.matches, "stream", sw.matches))
		}
	}

	if fs.parser == nil {
		return errors.Join(errs...)
	}
	pr, err := runBackend(fs.parser, text, rng, maxChunk)
	if err != nil {
		fail("%s: parser backend: %w", name, err)
		return errors.Join(errs...)
	}
	ll, verdict := pr.matches, pr.verdict
	if conforming && verdict != nil {
		fail("%s: LL(1) parser rejected conforming sentence %q: %w", name, text, verdict)
	}
	if verdict == nil {
		// An accepted input is in the language whether or not the trial
		// marked it conforming, so every relation below applies.
		if !subsetOf(ll, sw.matches) {
			fail("%s: parser tags not a subset of stream tags on %q\n%s",
				name, text, matchDiff("parser", ll, "stream", sw.matches))
		}
		if erErr == nil {
			if er.verdict != nil {
				fail("%s: parser accepted %q but earley oracle rejected: %w", name, text, er.verdict)
			} else {
				if !subsetOf(ll, er.matches) {
					fail("%s: parser tags not a subset of earley tags on %q\n%s",
						name, text, matchDiff("parser", ll, "earley", er.matches))
				}
				if fs.exact && conforming && !equalMatchSets(ll, er.matches) {
					fail("%s: earley and parser tag sets differ on %q (ExactOracle)\n%s",
						name, text, matchDiff("parser", ll, "earley", er.matches))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// equalMatchSets compares two match lists as sets, ignoring order.
func equalMatchSets(a, b []stream.Match) bool {
	return len(sortedSetMinus(a, b)) == 0 && len(sortedSetMinus(b, a)) == 0
}

func subsetOf(sub, super []stream.Match) bool { return len(sortedSetMinus(sub, super)) == 0 }

// sortedSetMinus returns the matches of a absent from b, sorted by
// (End, InstanceID).
func sortedSetMinus(a, b []stream.Match) []stream.Match {
	set := make(map[stream.Match]bool, len(b))
	for _, m := range b {
		set[m] = true
	}
	var out []stream.Match
	seen := make(map[stream.Match]bool)
	for _, m := range a {
		if !set[m] && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	slices.SortFunc(out, compareMatches)
	return out
}

// matchDiff renders every divergent position between two match lists: the
// first order divergence plus the full (bounded) set difference in each
// direction, so one failure report pinpoints all disagreements.
func matchDiff(aName string, a []stream.Match, bName string, b []stream.Match) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d matches, %s %d matches", aName, len(a), bName, len(b))
	idx := -1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			idx = i
			break
		}
	}
	if idx < 0 && len(a) != len(b) {
		idx = len(a)
		if len(b) < idx {
			idx = len(b)
		}
	}
	if idx >= 0 {
		fmt.Fprintf(&sb, "; first order divergence at index %d", idx)
	}
	const cap = 12
	render := func(label string, ms []stream.Match) {
		if len(ms) == 0 {
			return
		}
		shown := ms
		extra := 0
		if len(shown) > cap {
			shown, extra = shown[:cap], len(shown)-cap
		}
		fmt.Fprintf(&sb, "\n  only in %s: %v", label, shown)
		if extra > 0 {
			fmt.Fprintf(&sb, " (+%d more)", extra)
		}
	}
	render(aName, sortedSetMinus(a, b))
	render(bName, sortedSetMinus(b, a))
	return sb.String()
}
