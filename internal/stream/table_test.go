package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/workload"
)

// optionMatrix is the compile-option sweep the table must track the NFA
// through: the paper's default design, unanchored streams, both recovery
// flavors and the ablations that change the mask tables.
func optionMatrix() map[string]core.Options {
	return map[string]core.Options{
		"default":     {},
		"free":        {FreeRunningStart: true},
		"restart":     {Recovery: core.RecoveryRestart},
		"resync":      {Recovery: core.RecoveryResync},
		"no-longest":  {NoLongestMatch: true},
		"all-enabled": {AllEnabled: true},
	}
}

// diffInputs builds a mixed corpus for one spec: conforming sentences,
// corrupted sentences, and raw random bytes.
func diffInputs(spec *core.Spec, seed int64, n int) [][]byte {
	gen := workload.NewGenerator(spec, seed, workload.SentenceOptions{MaxDepth: 6})
	rng := rand.New(rand.NewSource(seed * 31))
	var out [][]byte
	for i := 0; i < n; i++ {
		text, _ := gen.Sentence()
		out = append(out, text)
		if len(text) > 2 {
			bad := append([]byte(nil), text...)
			bad[rng.Intn(len(bad))] = '@'
			out = append(out, bad)
		}
		junk := make([]byte, rng.Intn(64))
		for j := range junk {
			junk[j] = byte(rng.Intn(256))
		}
		out = append(out, junk)
	}
	return out
}

// formSet builds one kind of table for a spec, with and without skip-ahead,
// keyed by form name. The TestDFA… tests run lazyForms (the dfa kind), the
// TestRunner… tests closedForms (the aot kind); both hold every form to
// the NFA tagger, the reference the closed table, as the lazy fill run to
// fixpoint, shares with the lazy one.
type formSet func(t *testing.T, spec *core.Spec) map[string]*Runner

// lazyForms is the table filled on demand.
func lazyForms(t *testing.T, spec *core.Spec) map[string]*Runner {
	return map[string]*Runner{
		"lazy":         NewTable(spec, TableConfig{}).NewRunner(),
		"lazy-noaccel": NewTable(spec, TableConfig{NoAccel: true}).NewRunner(),
	}
}

// closedForms is the table filled to closure; nil when the grammar does
// not close within the default budget.
func closedForms(t *testing.T, spec *core.Spec) map[string]*Runner {
	t.Helper()
	out := map[string]*Runner{}
	for name, cfg := range map[string]TableConfig{"closed": {}, "closed-noaccel": {NoAccel: true}} {
		tbl, err := Determinize(spec, cfg)
		if err != nil {
			if strings.Contains(err.Error(), "does not close") {
				return nil // random grammars may exceed the budget; lazy covers them
			}
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tbl.NewRunner()
	}
	return out
}

// checkAgainstTagger asserts a runner and the NFA tagger agree bit for bit
// on one input: same matches, same recovery and collision counters.
func checkAgainstTagger(t *testing.T, tg *Tagger, r *Runner, input []byte, label string) {
	t.Helper()
	want := tg.Tag(input)
	got := r.Tag(input)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: table matches differ on %q\ntable %v\nnfa   %v", label, input, got, want)
	}
	if r.Errors != tg.Errors || r.Collisions != tg.Collisions {
		t.Fatalf("%s: counters differ on %q: table (%d errs, %d coll), nfa (%d errs, %d coll)",
			label, input, r.Errors, r.Collisions, tg.Errors, tg.Collisions)
	}
}

// matchesOnBuiltins holds every form to the NFA tagger over the built-in
// grammars, the option matrix and the inputs drawn for each spec.
func matchesOnBuiltins(t *testing.T, forms formSet, inputs func(*core.Spec) [][]byte) {
	t.Helper()
	for _, g := range []*grammar.Grammar{
		grammar.BalancedParens(), grammar.IfThenElse(), grammar.XMLRPC(), grammar.XMLRPCFull(),
	} {
		for name, opts := range optionMatrix() {
			spec := mustSpec(t, g, opts)
			tg := NewTagger(spec)
			rs := forms(t, spec)
			if len(rs) == 0 {
				t.Fatalf("%s/%s: built-in grammar does not close", g.Name, name)
			}
			for kind, r := range rs {
				for i, input := range inputs(spec) {
					checkAgainstTagger(t, tg, r, input, fmt.Sprintf("%s/%s/%s/#%d", g.Name, name, kind, i))
				}
			}
		}
	}
}

func mixedInputs(spec *core.Spec) [][]byte { return diffInputs(spec, 7, 6) }

func TestDFAMatchesTaggerOnBuiltins(t *testing.T) {
	matchesOnBuiltins(t, lazyForms, mixedInputs)
}

func TestRunnerMatchesDFAOnBuiltins(t *testing.T) {
	matchesOnBuiltins(t, closedForms, mixedInputs)
}

func matchesOnRandomGrammars(t *testing.T, forms formSet) {
	t.Helper()
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		g := workload.RandomGrammar(seed)
		spec := mustSpec(t, g, core.Options{})
		tg := NewTagger(spec)
		for kind, r := range forms(t, spec) {
			for i, input := range diffInputs(spec, seed+3, 4) {
				checkAgainstTagger(t, tg, r, input, fmt.Sprintf("seed%d/%s/#%d", seed, kind, i))
			}
		}
	}
}

func TestDFAMatchesTaggerOnRandomGrammars(t *testing.T) {
	matchesOnRandomGrammars(t, lazyForms)
}

func TestRunnerMatchesDFAOnRandomGrammars(t *testing.T) {
	matchesOnRandomGrammars(t, closedForms)
}

// TestDFAChunkingInvariance and TestRunnerChunkingInvariance are
// bounded-exhaustive (ROADMAP 2d), over the lazy and the closed table
// respectively, each with and without skip-ahead.
func TestDFAChunkingInvariance(t *testing.T) { exhaustiveChunking(t, lazyForms) }

func TestRunnerChunkingInvariance(t *testing.T) { exhaustiveChunking(t, closedForms) }

// exhaustiveChunking: on the three smallest shipped/testdata grammars by
// byte-class count (4, 5 and 5 classes — what the enumeration is
// exponential in), every string of length <= maxLen over one
// representative byte per class, split at every single point, must tag
// exactly as the unsplit NFA pass. A Runner carries only (state, held
// class, offset) across a Write, so one split point per string exercises
// every carry. maxLen 7 is ~220k strings and ~0.6 s of tier-1 over both
// table kinds; 8 would be ~1.1M strings and ~3.3 s.
func exhaustiveChunking(t *testing.T, forms formSet) {
	t.Helper()
	const maxLen = 7
	for _, file := range []string{"../../testdata/grammars/rightrec.y", "../../grammars/parens.y", "../../grammars/csv.y"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		g, err := grammar.Parse(file, string(src))
		if err != nil {
			t.Fatal(err)
		}
		spec := mustSpec(t, g, core.Options{FreeRunningStart: true})
		tg := NewTagger(spec)
		var reps []byte // one byte per class, in class order
		for b := 0; b < 256; b++ {
			if int(tg.e.classOf[b]) == len(reps) {
				reps = append(reps, byte(b))
			}
		}
		runners := forms(t, spec)
		if len(runners) == 0 {
			t.Fatalf("%s does not close", file)
		}
		var got []Match
		input := make([]byte, 0, maxLen)
		var odometer func()
		odometer = func() {
			want := tg.Tag(input)
			for kind, r := range runners {
				for k := 0; k <= len(input); k++ {
					r.Reset()
					got, _ = r.Write(input[:k], got[:0])
					got, _ = r.Write(input[k:], got)
					got = r.Close(got)
					if !slicesEqual(got, want) {
						t.Fatalf("%s/%s: %q split at %d tags %v, whole NFA pass %v", file, kind, input, k, got, want)
					}
				}
			}
			if len(input) == maxLen {
				return
			}
			for _, b := range reps {
				input = append(input, b)
				odometer()
				input = input[:len(input)-1]
			}
		}
		odometer()
	}
}

func slicesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunnerCarrySet pins what a Runner holds, so that the chunking
// invariance the exhaustive tests sample also holds by construction: the
// only per-stream state that survives a Write is the state, the held
// lookahead class and the offset (cur, heldClass with have, pos), beside
// the table and its generation, the closed flag and counters the loop
// never reads. A new field is new carry until shown otherwise.
func TestRunnerCarrySet(t *testing.T) {
	want := []string{
		"t", "g", // the table and the generation this runner reads
		"Errors", "Collisions", // counters, never read by the loop
		"cur", "pos", "have", "heldClass", // the carry: state, offset, held class
		"closed",
		"done", "misses", "resets", // lifetime fill accounting
	}
	var got []string
	rt := reflect.TypeOf(Runner{})
	for i := 0; i < rt.NumField(); i++ {
		got = append(got, rt.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Runner fields = %v, want %v.\n"+
			"What survives a Write must stay the state, the held class and the offset (DESIGN.md §6d); "+
			"a field that carries anything else across chunks breaks chunking independence by construction.", got, want)
	}
}

// TestDFACacheBound forces a two-state lazy table through its epoch reset
// on every few bytes and checks the bound holds at every step while
// matches stay exact.
func TestDFACacheBound(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	tg := NewTagger(spec)
	tbl := NewTable(spec, TableConfig{MaxStates: 2})
	if tbl.MaxStates() != 2 {
		t.Fatalf("MaxStates = %d, want 2", tbl.MaxStates())
	}
	r := tbl.NewRunner()
	gen := workload.NewGenerator(spec, 11, workload.SentenceOptions{MaxDepth: 8})
	for trial := 0; trial < 6; trial++ {
		text, _ := gen.Sentence()
		want := tg.Tag(text)
		r.Reset()
		var got []Match
		for i := range text {
			got, _ = r.Write(text[i:i+1], got)
			if n := tbl.States(); n > 2 {
				t.Fatalf("table grew to %d states, bound 2", n)
			}
		}
		got = r.Close(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: bounded table %v, nfa %v", trial, got, want)
		}
	}
	if _, _, resets := r.CacheStats(); resets == 0 {
		t.Error("tiny table saw no resets")
	}
}

// TestDFAWarmCache re-tags the same traffic and checks the second pass is
// served from filled cells (misses stop growing) with identical results.
func TestDFAWarmCache(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	gen := workload.NewGenerator(spec, 23, workload.SentenceOptions{MaxDepth: 8})
	text, _ := gen.Sentence()
	tbl := NewTable(spec, TableConfig{})
	r := tbl.NewRunner()
	first := r.Tag(text)
	_, coldMisses, _ := r.CacheStats()
	second := r.Tag(text)
	_, warmMisses, _ := r.CacheStats()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm pass differs: %v vs %v", second, first)
	}
	if warmMisses != coldMisses {
		t.Errorf("warm pass computed %d new transitions, want 0", warmMisses-coldMisses)
	}
	if hits, _, _ := r.CacheStats(); hits == 0 {
		t.Error("no cache hits recorded")
	}
	if tbl.States() > tbl.MaxStates() {
		t.Errorf("table holds %d states, bound %d", tbl.States(), tbl.MaxStates())
	}
}

// TestDFACloneSharesEngineNotCache checks runners of one table share it
// (a sibling starts warm) while a second table of the same spec is
// private (it starts cold), and that all of them agree.
func TestDFACloneSharesEngineNotCache(t *testing.T) {
	spec := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tbl := NewTable(spec, TableConfig{})
	input := []byte("if true then go else stop")
	want := tbl.NewRunner().Tag(input)
	sibling := tbl.NewRunner()
	if got := sibling.Tag(input); !reflect.DeepEqual(got, want) {
		t.Fatalf("sibling tags %v, want %v", got, want)
	}
	if _, misses, _ := sibling.CacheStats(); misses != 0 {
		t.Errorf("sibling runner computed %d transitions; want a warm shared table", misses)
	}
	other := NewTable(spec, TableConfig{}).NewRunner()
	if got := other.Tag(input); !reflect.DeepEqual(got, want) {
		t.Fatalf("private table tags %v, want %v", got, want)
	}
	if _, misses, _ := other.CacheStats(); misses == 0 {
		t.Error("a second table started warm; want a private one")
	}
}

// TestRunnersShareClosedTable checks concurrent-mint safety cheaply for
// the closed table: two runners over one table produce identical
// independent results.
func TestRunnersShareClosedTable(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	tbl, err := Determinize(spec, TableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(spec, 9, workload.SentenceOptions{MaxDepth: 6})
	text, _ := gen.Sentence()
	a, b := tbl.NewRunner(), tbl.NewRunner()
	if got, want := a.Tag(text), b.Tag(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("sibling runners disagree: %v vs %v", got, want)
	}
}

func TestDFAWriteAfterClose(t *testing.T) { writeAfterClose(t, lazyForms) }

func TestRunnerWriteAfterClose(t *testing.T) { writeAfterClose(t, closedForms) }

func writeAfterClose(t *testing.T, forms formSet) {
	t.Helper()
	spec := mustSpec(t, grammar.IfThenElse(), core.Options{})
	for kind, r := range forms(t, spec) {
		out, _ := r.Write([]byte("go"), nil)
		out = r.Close(out)
		if again := r.Close(out); len(again) != len(out) {
			t.Fatalf("%s: second Close appended %v", kind, again[len(out):])
		}
		if _, err := r.Write([]byte("x"), nil); err == nil {
			t.Errorf("%s: Write after Close succeeded", kind)
		}
	}
}

// TestByteClassCompression checks the equivalence-class partition: far
// fewer than 256 columns on real grammars, and every byte of a class
// shares its delimiter bit.
func TestByteClassCompression(t *testing.T) {
	for _, g := range []*grammar.Grammar{
		grammar.BalancedParens(), grammar.IfThenElse(), grammar.XMLRPC(),
	} {
		spec := mustSpec(t, g, core.Options{})
		e := NewTagger(spec).e
		if e.numClasses >= 256 {
			t.Errorf("%s: %d byte classes, want < 256", g.Name, e.numClasses)
		}
		if e.numClasses < 2 {
			t.Errorf("%s: %d byte classes, want >= 2", g.Name, e.numClasses)
		}
		for b := 0; b < 256; b++ {
			c := e.classOf[b]
			if int(c) >= e.numClasses {
				t.Fatalf("%s: byte %d maps to class %d of %d", g.Name, b, c, e.numClasses)
			}
			if e.delimC[c] != spec.Delim.Has(byte(b)) {
				t.Fatalf("%s: byte %d delimiter bit differs from its class", g.Name, b)
			}
		}
	}
}

// accelInputs builds inputs crafted to park the automaton in accelerable
// states: generated sentences stitched together with long delimiter runs,
// long non-matching runs and long token-interior runs.
func accelInputs(spec *core.Spec, seed int64) [][]byte {
	gen := workload.NewGenerator(spec, seed, workload.SentenceOptions{MaxDepth: 6})
	runs := [][]byte{
		bytes.Repeat([]byte(" "), 4096),
		bytes.Repeat([]byte("\n"), 2048),
		bytes.Repeat([]byte("z"), 4096),
		bytes.Repeat([]byte{0xee}, 2048),
		bytes.Repeat([]byte("ab"), 1024),
	}
	var out [][]byte
	for _, run := range runs {
		a, _ := gen.Sentence()
		b, _ := gen.Sentence()
		var buf []byte
		buf = append(buf, run...)
		buf = append(buf, a...)
		buf = append(buf, run...)
		buf = append(buf, b...)
		buf = append(buf, run...)
		out = append(out, buf)
	}
	return out
}

func runInputs(spec *core.Spec) [][]byte { return accelInputs(spec, 17) }

// TestDFAAccelMatchesUnaccelerated and TestRunnerAccelMatchesUnaccelerated
// run the option matrix over run-heavy inputs: every form, accelerated or
// not, equals the NFA tagger, matches and counters alike.
func TestDFAAccelMatchesUnaccelerated(t *testing.T) {
	matchesOnBuiltins(t, lazyForms, runInputs)
}

func TestRunnerAccelMatchesUnaccelerated(t *testing.T) {
	matchesOnBuiltins(t, closedForms, runInputs)
}

// TestDFAAccelChunkingInvariance streams the run-heavy inputs in random
// 1–300 byte chunks through every form: a skip-ahead run cut by a chunk
// boundary must re-enter exactly. The exhaustive chunking tests cannot
// reach this — their strings are shorter than any run worth skipping.
func TestDFAAccelChunkingInvariance(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	tg := NewTagger(spec)
	rs := lazyForms(t, spec)
	for kind, r := range closedForms(t, spec) {
		rs[kind] = r
	}
	for trial, text := range accelInputs(spec, 29) {
		want := tg.Tag(text)
		for kind, r := range rs {
			rng := rand.New(rand.NewSource(99 + int64(trial))) // one chunking per trial, every form
			r.Reset()
			var got []Match
			for off := 0; off < len(text); {
				n := min(1+rng.Intn(300), len(text)-off)
				got, _ = r.Write(text[off:off+n], got)
				off += n
			}
			got = r.Close(got)
			if !slicesEqual(got, want) {
				t.Fatalf("%s trial %d: chunked %d matches, whole NFA pass %d", kind, trial, len(got), len(want))
			}
		}
	}
}

// TestDFAAccelEngages checks the probe actually marks states on the grammar
// the benches use, that NoAccel builds no plan, and that skipped bytes keep
// hits+misses equal to the bytes processed.
func TestDFAAccelEngages(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	tbl := NewTable(spec, TableConfig{})
	r := tbl.NewRunner()
	input := accelInputs(spec, 3)[0]
	if matches := r.Tag(input); len(matches) == 0 {
		t.Fatal("crafted input produced no matches at all")
	}
	countPlans := func(tbl *Table) (n int) {
		for _, a := range tbl.cur.Load().accel[:tbl.States()] {
			if a != nil {
				n++
			}
		}
		return n
	}
	if countPlans(tbl) == 0 {
		t.Error("no state qualified for skip-ahead on a run-heavy input")
	}
	hits, misses, _ := r.CacheStats()
	if got, want := hits+misses, int64(len(input)); got != want {
		t.Errorf("hits+misses = %d, want %d (every byte accounted for)", got, want)
	}
	plain := NewTable(spec, TableConfig{NoAccel: true})
	plain.NewRunner().Tag(input)
	if countPlans(plain) != 0 {
		t.Fatal("NoAccel still built a skip-ahead plan")
	}
}

// TestDFAAccelTinyCache runs skip-ahead under a 2-state bound: resets must
// not invalidate in-flight acceleration.
func TestDFAAccelTinyCache(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	tg := NewTagger(spec)
	r := NewTable(spec, TableConfig{MaxStates: 2}).NewRunner()
	for i, input := range accelInputs(spec, 41) {
		checkAgainstTagger(t, tg, r, input, fmt.Sprintf("tiny/run#%d", i))
	}
}

// TestCompileBudget checks the hard closure bound: a grammar that does not
// close within MaxStates is an error, never a silent reset.
func TestCompileBudget(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if _, err := Determinize(spec, TableConfig{MaxStates: 2}); err == nil {
		t.Fatal("Determinize closed XML-RPC within 2 states; want budget error")
	} else if !strings.Contains(err.Error(), "does not close") {
		t.Fatalf("budget error = %v; want 'does not close within'", err)
	}
	tbl, err := Determinize(spec, TableConfig{})
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	if tbl.CompileStats().States > DefaultMaxStates {
		t.Fatalf("closed in %d states, above the default bound", tbl.CompileStats().States)
	}
}

// TestCompileStats sanity-checks the synthesis report and that every cell
// of a closed table decodes inside its storage: no unfilled cell; plain
// refs (cells, row slots and effect successors alike) are row offsets —
// multiples of the class count below states*classes — tagged exactly when
// their state has a skip-ahead plan; effects inside the pool; rows start
// on a row boundary inside cond; row slots restricted.
func TestCompileStats(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	tbl, err := Determinize(spec, TableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := tbl.CompileStats()
	if st.States < 2 {
		t.Errorf("States = %d, want >= 2", st.States)
	}
	if st.Classes < 2 || st.Classes > 256 {
		t.Errorf("Classes = %d, want 2..256", st.Classes)
	}
	if st.TableBytes < st.States*st.Classes*4 {
		t.Errorf("TableBytes = %d, below the raw transition table %d", st.TableBytes, st.States*st.Classes*4)
	}
	if st.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", st.Duration)
	}
	lazy := NewTable(spec, TableConfig{})
	if ls := lazy.CompileStats(); ls.States != 1 || ls.Classes != st.Classes || ls.TableBytes <= 0 || ls.Duration != 0 {
		t.Errorf("fresh lazy table reports %+v, want its start state, %d classes, its bytes and no closure time", ls, st.Classes)
	}
	lazy.NewRunner().Tag([]byte(sampleRPC))
	if ls := lazy.CompileStats(); ls.States <= 1 || ls.States > st.States || ls.Duration != 0 {
		t.Errorf("filled lazy table reports %+v, want between 2 and the closed %d states", ls, st.States)
	}
	g := tbl.cur.Load()
	if len(g.trans) != st.States*st.Classes {
		t.Errorf("len(trans) = %d, want states*classes = %d", len(g.trans), st.States*st.Classes)
	}
	nc, planned, tagged := st.Classes, 0, 0
	for _, a := range g.accel {
		if a != nil {
			planned++
		}
	}
	if planned == 0 {
		t.Fatal("no state of the closed xmlrpc table has a skip-ahead plan; the tag bit goes unchecked")
	}
	plain := func(r int32, where string) {
		off := int(r &^ accelTag)
		if off%nc != 0 || off >= st.States*nc {
			t.Fatalf("%s: plain ref %#x is not a row offset (%d classes, %d states)", where, r, nc, st.States)
		}
		if hasPlan := g.accel[off/nc] != nil; (r >= accelTag) != hasPlan {
			t.Fatalf("%s: plain ref %#x to state %d: tag bit %v, plan %v", where, r, off/nc, r >= accelTag, hasPlan)
		}
		if r >= accelTag {
			tagged++
		}
	}
	check := func(r int32, restricted bool, where string) {
		switch {
		case r == unfilled:
			t.Fatalf("%s: unfilled cell in a closed table", where)
		case r >= 0:
			plain(r, where)
		case ^r&1 == 0:
			if int(^r>>1) >= len(g.effects) {
				t.Fatalf("%s: effect %d out of %d", where, ^r>>1, len(g.effects))
			}
		case restricted:
			t.Fatalf("%s: conditional ref inside a conditional row", where)
		case int(^r>>1)%(nc+1) != 0 || int(^r>>1)+nc+1 > len(g.cond):
			t.Fatalf("%s: cond row at %d is not a row of cond[%d]", where, ^r>>1, len(g.cond))
		}
	}
	for i, r := range g.trans {
		check(r, false, fmt.Sprintf("trans[%d]", i))
	}
	for i, r := range g.cond {
		check(r, true, fmt.Sprintf("cond[%d]", i))
	}
	for i, ef := range g.effects {
		plain(ef.next, fmt.Sprintf("effects[%d].next", i))
		if len(ef.collide) != len(ef.emits) {
			t.Fatalf("effects[%d]: %d collide flags for %d emits", i, len(ef.collide), len(ef.emits))
		}
		rare := ef.recovered
		for _, c := range ef.collide {
			rare = rare || c
		}
		if ef.rare != rare {
			t.Fatalf("effects[%d]: rare = %v, want %v (recovered %v, collide %v)", i, ef.rare, rare, ef.recovered, ef.collide)
		}
	}
	if tagged == 0 {
		t.Error("no ref carries the tag bit, though states have plans")
	}
}
