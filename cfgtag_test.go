package cfgtag

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cfgtag/internal/stream"
	"cfgtag/internal/validate"
	"cfgtag/internal/workload"
)

func TestQuickstartFlow(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	tg := engine.NewTagger()
	var got []string
	tg.OnMatch = func(m Match) { got = append(got, m.Term) }
	tg.Write([]byte("if true then go else stop"))
	tg.Close()
	want := []string{"if", "true", "then", "go", "else", "stop"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v", got)
	}
}

func TestTagReturnsContexts(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource)
	if err != nil {
		t.Fatal(err)
	}
	tg := engine.NewTagger()
	ms := tg.Tag([]byte("<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>"))
	if len(ms) != 7 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[2].Term != "STRING" || ms[2].Context != "methodName[1]" {
		t.Errorf("service match = %+v", ms[2])
	}
	if !ms[6].SentenceEnd {
		t.Error("final match should be a sentence end")
	}
	for _, m := range ms[:6] {
		if m.SentenceEnd {
			t.Errorf("match %+v claims SentenceEnd early", m)
		}
	}
	for _, m := range ms {
		if m.Index == 0 {
			t.Errorf("match %+v has reserved index 0", m)
		}
	}
}

func TestSynthesizeBothDevices(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := engine.Synthesize(Virtex4LX200)
	if err != nil {
		t.Fatal(err)
	}
	ve, err := engine.Synthesize(VirtexE2000)
	if err != nil {
		t.Fatal(err)
	}
	if v4.FrequencyMHz <= ve.FrequencyMHz {
		t.Errorf("Virtex-4 (%f) should be faster than VirtexE (%f)", v4.FrequencyMHz, ve.FrequencyMHz)
	}
	if v4.LUTs != ve.LUTs {
		t.Errorf("same netlist should map to the same LUT count: %d vs %d", v4.LUTs, ve.LUTs)
	}
}

func TestVHDLEmission(t *testing.T) {
	engine, err := Compile("demo", BalancedParensSource)
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.VHDL("parens")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "entity parens is") {
		t.Error("entity name not honored")
	}
}

func TestGateRunnerAgreesWithTagger(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := engine.NewBackend(GatesBackend)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if false then stop else go")
	if err := gr.Feed(input); err != nil {
		t.Fatal(err)
	}
	if err := gr.Close(); err != nil {
		t.Fatal(err)
	}
	hw := gr.Matches()
	sw := engine.NewTagger().Tag(input)
	if !reflect.DeepEqual(hw, sw) {
		t.Errorf("gate-level %v != stream %v", hw, sw)
	}
}

// TestSelfTest runs the public cross-check of both generated datapaths —
// the single-byte netlist and the 2-bytes-per-clock one — against the
// software engine. internal/hwgen's TestWide2Equivalence holds the 2-byte
// datapath equal to the software engine, and TestWide2RejectsRecovery
// holds that a recovery compile cannot build it.
func TestSelfTest(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	n, err := engine.SelfTest(3, 15)
	if err != nil || n != 15 {
		t.Errorf("selftest n=%d err=%v", n, err)
	}
}

func TestParserBaseline(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.NewBackend(ParserBackend)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	if err := p.Feed(input); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	tags := p.Matches()
	sw := engine.NewTagger().Tag(input)
	if !reflect.DeepEqual(tags, sw) {
		t.Errorf("parser %v != tagger %v", tags, sw)
	}
	p.Reset()
	p.Feed([]byte("then go"))
	if p.Close() == nil {
		t.Error("parser accepted junk")
	}
}

func TestOptions(t *testing.T) {
	// FreeRunningStart finds sentences mid-stream.
	anchored, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	free, err := Compile("demo", IfThenElseSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("go stop")
	if n := len(free.NewTagger().Tag(input)); n != 2 {
		t.Errorf("free-running found %d", n)
	}
	if n := len(anchored.NewTagger().Tag(input)); n != 1 {
		t.Errorf("anchored found %d (only the first sentence token)", n)
	}

	// AllEnabled fires out of context.
	naive, err := Compile("demo", IfThenElseSource, AllEnabled())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(naive.NewTagger().Tag([]byte("then"))); n != 1 {
		t.Errorf("all-enabled found %d", n)
	}

	// WithoutContextDuplication collapses instances.
	nodup, err := Compile("xmlrpc", XMLRPCSource, WithoutContextDuplication())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(nodup.Spec().Instances), len(nodup.Spec().Grammar.Tokens); got != want {
		t.Errorf("instances = %d, want %d", got, want)
	}

	// IndexBits is honored.
	wide, err := Compile("demo", IfThenElseSource, IndexBits(10))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Spec().IndexBits != 10 {
		t.Errorf("IndexBits = %d", wide.Spec().IndexBits)
	}

	// WithoutLongestMatch over-tags.
	short, err := Compile("ints", "INT [0-9]+\n%%\nS : INT ;\n", WithoutLongestMatch())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(short.NewTagger().Tag([]byte("123"))); n != 3 {
		t.Errorf("no-longest-match tagged %d times, want 3", n)
	}
}

func TestRecoveryOptions(t *testing.T) {
	plain, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	restart, err := Compile("demo", IfThenElseSource, RecoverRestart())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("@@ go")
	if n := len(plain.NewTagger().Tag(input)); n != 0 {
		t.Errorf("plain engine tagged %d after garbage", n)
	}
	tg := restart.NewTagger()
	if n := len(tg.Tag(input)); n != 1 {
		t.Errorf("restart engine tagged %d, want 1", n)
	}
	if tg.Errors() == 0 {
		t.Error("Errors() not counting")
	}

	resync, err := Compile("xmlrpc", XMLRPCSource, RecoverResync())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("<methodCall> <methodName>buy</methodName> <params> <par#m> </params> </methodCall>")
	ms := resync.NewTagger().Tag(msg)
	if len(ms) == 0 || ms[len(ms)-1].Term != "</methodCall>" {
		t.Errorf("resync did not reach message end: %v", ms)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("bad", "not a grammar"); err == nil {
		t.Error("garbage grammar accepted")
	}
	if _, err := Compile("bad", "A a*\n%%\nS : A ;\n"); err == nil {
		t.Error("nullable token accepted")
	}
}

func TestFollowTableAndWiring(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	ft := engine.FollowTable()
	if !strings.Contains(ft, "if\t{false, true}") {
		t.Errorf("follow table:\n%s", ft)
	}
	w := engine.Wiring()
	if !strings.Contains(w, `"if"`) || !strings.Contains(w, "start") {
		t.Errorf("wiring:\n%s", w)
	}
}

func TestLexemeRecovery(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("<methodCall> <methodName>deposit</methodName> <params> </params> </methodCall>")
	tg := engine.NewTagger()
	ms := tg.Tag(input)
	want := []string{"<methodCall>", "<methodName>", "deposit", "</methodName>",
		"<params>", "</params>", "</methodCall>"}
	if len(ms) != len(want) {
		t.Fatalf("matches = %v", ms)
	}
	for i, m := range ms {
		if got := engine.Lexeme(input, m); got != want[i] {
			t.Errorf("lexeme %d = %q, want %q", i, got, want[i])
		}
	}
	if got := engine.Lexeme(input[:3], ms[len(ms)-1]); got != "" {
		t.Errorf("out-of-range lexeme = %q", got)
	}
}

func TestXMLRPCFullSourceCompiles(t *testing.T) {
	engine, err := Compile("xmlrpc-full", XMLRPCFullSource)
	if err != nil {
		t.Fatal(err)
	}
	msg := "<methodCall> <methodName>buy</methodName> <params> " +
		"<param> <value> <i4>7</i4> </value> </param> </params> </methodCall>"
	ms := engine.NewTagger().Tag([]byte(msg))
	found := false
	for _, m := range ms {
		if m.Term == "<value>" {
			found = true
		}
	}
	if !found || ms[len(ms)-1].Term != "</methodCall>" {
		t.Errorf("full dialect tags = %v", ms)
	}
}

func TestCheckedTagger(t *testing.T) {
	engine, err := Compile("parens", BalancedParensSource)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := engine.NewCheckedTagger(0)
	if err != nil {
		t.Fatal(err)
	}
	var matches int
	var viols []string
	ct.OnMatch = func(Match) { matches++ }
	ct.OnViolation = func(end int64, term string, err error) {
		viols = append(viols, term)
	}
	ct.Write([]byte("( 0 ) )"))
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if matches != 4 {
		t.Errorf("matches = %d, want 4 (the tagger accepts the superset)", matches)
	}
	if ct.Violations() != 1 || len(viols) != 1 || viols[0] != ")" {
		t.Errorf("violations = %d %v, want the stray close paren", ct.Violations(), viols)
	}
	ct.Reset()
	ct.Write([]byte("( ( 0 ) )"))
	if err := ct.Close(); err != nil {
		t.Errorf("clean close: %v", err)
	}
	if ct.Violations() != 0 {
		t.Errorf("violations after clean input: %d", ct.Violations())
	}
	if ct.StackDepth() < 3 {
		t.Errorf("stack depth = %d", ct.StackDepth())
	}
}

// violation is one OnViolation report, as CheckedTagger renders it.
type violation struct {
	end  int64
	term string
}

// reference runs text through the serial NFA (stream.Tagger) and, when val
// is set, the stack validator behind it — the pair the public taggers must
// reproduce: matches, recovery count, violations and the Close verdict.
func reference(e *Engine, val *validate.Validator, text []byte) (ms []Match, errs int64, viols []violation, verdict error) {
	ref := stream.NewTagger(e.spec)
	ref.OnMatch = func(m stream.Match) {
		if val != nil {
			val.Consume(m)
		}
		ms = append(ms, e.match(m))
	}
	if val != nil {
		val.OnViolation = func(v *validate.Violation) {
			end := v.End
			if v.Term == "" {
				end = -1
			}
			viols = append(viols, violation{end, v.Term})
		}
	}
	ref.Write(text)
	ref.Close()
	if val != nil {
		verdict = val.Close()
	}
	return ms, ref.Errors, viols, verdict
}

// writeChunked feeds text to w in random pieces of 1 to 17 bytes.
func writeChunked(w interface{ Write([]byte) (int, error) }, text []byte, rng *rand.Rand) {
	for lo := 0; lo < len(text); {
		hi := min(lo+1+rng.Intn(17), len(text))
		w.Write(text[lo:hi])
		lo = hi
	}
}

// TestTaggersMatchNFA holds the public in-process taggers — Tagger (its
// streaming Write and its whole-buffer Tag) and CheckedTagger, runners of
// the engine's shared table — to the serial NFA on every grammar the repo
// carries, under the anchored, free-running and both recovery compiles:
// generated sentences and corrupted copies, fed in random chunks, must
// give the same matches, Errors() and — for
// the LL(1) grammars' CheckedTagger — the same violations and verdict.
func TestTaggersMatchNFA(t *testing.T) {
	sources := grammarSources(t)
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	compiles := []struct {
		name string
		opts []Option
	}{
		{"anchored", nil},
		{"free", []Option{FreeRunningStart()}},
		{"restart", []Option{RecoverRestart()}},
		{"resync", []Option{RecoverResync()}},
	}
	rng := rand.New(rand.NewSource(31))
	for _, name := range names {
		for _, c := range compiles {
			engine, err := Compile(name, sources[name], c.opts...)
			if err != nil {
				t.Fatalf("%s (%s): %v", name, c.name, err)
			}
			gen := workload.NewGenerator(engine.spec, rng.Int63(), workload.SentenceOptions{MaxDepth: 8})
			tg, whole := engine.NewTagger(), engine.NewTagger()
			ct, _ := engine.NewCheckedTagger(0) // nil unless the grammar is LL(1)
			for trial := 0; trial < 6; trial++ {
				text, _ := gen.Corpus(3)
				if trial%2 == 1 && len(text) > 0 {
					text[rng.Intn(len(text))] = '@'
					text[rng.Intn(len(text))] = byte(rng.Intn(256))
				}
				where := fmt.Sprintf("%s (%s) on %q", name, c.name, text)
				want, wantErrs, _, _ := reference(engine, nil, text)

				var got []Match
				tg.OnMatch = func(m Match) { got = append(got, m) }
				tg.Reset()
				writeChunked(tg, text, rng)
				tg.Close()
				if !slices.Equal(got, want) || tg.Errors() != wantErrs {
					t.Fatalf("%s: Tagger gave %v (%d errors), NFA %v (%d errors)", where, got, tg.Errors(), want, wantErrs)
				}
				if got := whole.Tag(text); !slices.Equal(got, want) {
					t.Fatalf("%s: Tagger.Tag gave %v, NFA %v", where, got, want)
				}
				if ct == nil {
					continue
				}
				val, err := validate.New(engine.spec, 0)
				if err != nil {
					t.Fatal(err)
				}
				_, _, wantViols, wantVerdict := reference(engine, val, text)
				var checked []Match
				var viols []violation
				ct.OnMatch = func(m Match) { checked = append(checked, m) }
				ct.OnViolation = func(end int64, term string, _ error) { viols = append(viols, violation{end, term}) }
				ct.Reset()
				writeChunked(ct, text, rng)
				verdict := ct.Close()
				if !slices.Equal(checked, want) || ct.Errors() != wantErrs {
					t.Fatalf("%s: CheckedTagger gave %v (%d errors), NFA %v (%d errors)", where, checked, ct.Errors(), want, wantErrs)
				}
				if !slices.Equal(viols, wantViols) || ct.Violations() != int64(len(wantViols)) || (verdict == nil) != (wantVerdict == nil) {
					t.Fatalf("%s: CheckedTagger violations %v (verdict %v), reference %v (verdict %v)", where, viols, verdict, wantViols, wantVerdict)
				}
			}
		}
	}
}

// TestTaggersShareEngineTable runs Taggers of one engine from many
// goroutines at once (the race detector's target) — a fresh Tagger per
// pass on half of them, one Tagger reused across passes on the other
// half: every runner is minted from the engine's one table, built once,
// and the fills racing through it add up to exactly what one serial pass
// costs a table of its own.
func TestTaggersShareEngineTable(t *testing.T) {
	engine, err := Compile("xml-rpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(engine.spec, 5, workload.SentenceOptions{})
	data, _ := gen.Corpus(20)
	want, _, _, _ := reference(engine, nil, data)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reused := engine.NewTagger()
			for i := 0; i < 4; i++ {
				tg := reused
				if g%2 == 0 {
					tg = engine.NewTagger()
				}
				if got := tg.Tag(data); !slices.Equal(got, want) {
					t.Errorf("goroutine %d pass %d diverged from the NFA", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	tbl := engine.shared()
	if engine.NewTagger().run.Table() != tbl {
		t.Error("a Tagger runs a table of its own")
	}
	solo := stream.NewTable(engine.spec, stream.TableConfig{})
	solo.NewRunner().Tag(data)
	shared, _ := tbl.Stats()
	if once, _ := solo.Stats(); shared != once {
		t.Errorf("32 concurrent passes filled %d cells, one serial pass %d: the table is not shared", shared, once)
	}
}

func TestNonLL1StillTags(t *testing.T) {
	// A grammar that is not LL(1) cannot build the baseline parser but
	// the tagger still works (the hardware never needed LL(1)).
	src := "%%\nS : \"a\" \"b\" | \"a\" \"c\" ;\n"
	engine, err := Compile("nonll1", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewBackend(ParserBackend); err == nil {
		t.Error("LL(1) table should fail")
	}
	ms := engine.NewTagger().Tag([]byte("a c"))
	if len(ms) != 3 { // both "a" instances fire (ambiguous context), then "c"
		t.Errorf("matches = %v", ms)
	}
}

func TestBackendKindsAgree(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	want := engine.NewTagger().Tag(input)
	if len(want) == 0 {
		t.Fatal("reference tagger found nothing")
	}
	for _, kind := range []BackendKind{StreamBackend, DFABackend, AOTBackend, GatesBackend, ParserBackend, EarleyBackend} {
		b, err := engine.NewBackend(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if b.Kind() != kind {
			t.Errorf("Kind() = %q, want %q", b.Kind(), kind)
		}
		if err := b.Feed(input); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := b.Matches(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: matches = %v, want %v", kind, got, want)
		}
		c := b.Counters()
		if c.Bytes != int64(len(input)) || c.Matches != int64(len(want)) {
			t.Errorf("%s: counters = %+v", kind, c)
		}
		// Drained: a second call is empty; Reset makes it reusable.
		if again := b.Matches(); again != nil {
			t.Errorf("%s: second drain = %v", kind, again)
		}
		b.Reset()
		b.Feed(input)
		b.Close()
		if got := b.Matches(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s after Reset: matches = %v", kind, got)
		}
	}
}

func TestBackendParserVerdict(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.NewBackend(ParserBackend)
	if err != nil {
		t.Fatal(err)
	}
	b.Feed([]byte("if true go")) // missing "then"
	if err := b.Close(); err == nil {
		t.Error("parser backend accepted a non-sentence")
	}
	eb, err := engine.NewBackend(EarleyBackend)
	if err != nil {
		t.Fatal(err)
	}
	eb.Feed([]byte("if true go"))
	if err := eb.Close(); err == nil {
		t.Error("earley backend accepted a non-sentence")
	}
	if _, err := engine.NewBackend(BackendKind("fpga")); err == nil {
		t.Error("unknown backend kind accepted")
	}
}

func TestPipelineFacade(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	type result struct {
		tags []Match
		data []byte
		eos  bool
	}
	results := make(map[string]*result)
	deliver := func(b *TagBatch) error {
		r := results[b.Stream]
		if r == nil {
			r = &result{}
			results[b.Stream] = r
		}
		r.tags = append(r.tags, b.Tags...)
		r.data = append(r.data, b.Data...) // Data is pooled: copy
		r.eos = r.eos || b.EOS
		return b.Err
	}
	p, err := engine.NewPipeline(PipelineConfig{Shards: 4, Metrics: &metrics}, deliver)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>\n")
	const streams = 6
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i))
			for lo := 0; lo < len(input); lo += 9 {
				hi := lo + 9
				if hi > len(input) {
					hi = len(input)
				}
				if err := p.Send(key, input[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
			p.CloseStream(key)
		}(i)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	want := engine.NewTagger().Tag(input)
	for i := 0; i < streams; i++ {
		key := string(rune('a' + i))
		r := results[key]
		if r == nil || !r.eos {
			t.Fatalf("stream %s: missing or unterminated", key)
		}
		if !reflect.DeepEqual(r.data, input) {
			t.Errorf("stream %s: bytes did not reassemble", key)
		}
		if !reflect.DeepEqual(r.tags, want) {
			t.Errorf("stream %s: tags = %v, want %v", key, r.tags, want)
		}
	}
	counters, _ := metrics.Snapshot()
	if wantBytes := int64(streams * len(input)); counters.Bytes != wantBytes {
		t.Errorf("metrics saw %d bytes, want %d", counters.Bytes, wantBytes)
	}
	if counters.Matches != int64(streams*len(want)) {
		t.Errorf("metrics saw %d matches, want %d", counters.Matches, streams*len(want))
	}
	if err := p.Send("x", []byte("y")); err == nil {
		t.Error("Send after Close succeeded")
	}
}

// TestPipelineCloseReleasesGauge: whatever a pipeline charges to the gauge
// it was given — arenas and the transition table, under either spelling of
// the served kind — is discharged by Close.
func TestPipelineCloseReleasesGauge(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>\n")
	for _, kind := range []BackendKind{DFABackend, AOTBackend} {
		t.Run(string(kind), func(t *testing.T) {
			g := &MemGauge{}
			tags := 0
			p, err := engine.NewPipeline(PipelineConfig{Backend: kind, Shards: 2, Limits: StreamLimits{Mem: g}}, func(b *TagBatch) error {
				tags += len(b.Tags)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if g.Load() == 0 {
				t.Error("the table's start state was not charged to the gauge")
			}
			if err := p.Send("s", msg); err != nil {
				t.Fatal(err)
			}
			if err := p.CloseStream("s"); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if tags == 0 {
				t.Error("the message produced no tags")
			}
			if got := g.Load(); got != 0 {
				t.Errorf("gauge reads %d bytes after Close, want 0", got)
			}
		})
	}
}

func TestPipelineFaultFacade(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	evicted := make(map[string]bool)
	deadLettered := 0
	failures := map[string]int{"poison": 2} // deliver fails beyond SinkAttempts
	deliver := func(b *TagBatch) error {
		if failures[b.Stream] > 0 {
			failures[b.Stream]--
			return errTransient
		}
		if b.Evicted {
			if !b.EOS {
				t.Errorf("stream %s: Evicted batch without EOS", b.Stream)
			}
			evicted[b.Stream] = true
		}
		return nil
	}
	p, err := engine.NewPipeline(PipelineConfig{
		Shards:       1,
		MaxStreams:   2,
		Quarantine:   -1, // disabled: nothing here is a backend fault
		SinkAttempts: 2,
		SinkBackoff:  time.Microsecond,
		Metrics:      &metrics,
		DeadLetter:   func(b *TagBatch, err error) { deadLettered++ },
	}, deliver)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c", "poison"} {
		if err := p.Send(key, []byte("if true then go else stop ")); err != nil {
			t.Fatalf("Send %s: %v", key, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("Err = %v, want nil (failure was dead-lettered, not permanent)", err)
	}
	if len(evicted) == 0 {
		t.Error("MaxStreams cap produced no Evicted batches")
	}
	if deadLettered != 1 {
		t.Errorf("dead-lettered %d batches, want 1", deadLettered)
	}
	f := metrics.Faults()
	if f.StreamsEvicted != int64(len(evicted)) {
		t.Errorf("FaultStats.StreamsEvicted = %d, want %d", f.StreamsEvicted, len(evicted))
	}
	if f.SinkRetries == 0 || f.DeadLetters != 1 {
		t.Errorf("FaultStats = %+v, want retries > 0 and 1 dead letter", f)
	}
}

var errTransient = errors.New("transient deliver failure")

func TestPipelinePermanentFailureFacade(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("sink gone")
	p, err := engine.NewPipeline(PipelineConfig{Shards: 1}, func(b *TagBatch) error {
		return PermanentDeliverError(cause)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("s", []byte("if ")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("permanent deliver failure never surfaced on Err")
		}
		p.Send("s", []byte("if "))
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(p.Err(), cause) {
		t.Fatalf("Err = %v, want wrapped %v", p.Err(), cause)
	}
	if err := p.Close(); !errors.Is(err, cause) {
		t.Fatalf("Close = %v, want wrapped %v", err, cause)
	}
}
