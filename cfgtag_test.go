package cfgtag

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
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
	gr, err := engine.NewGateRunner()
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if false then stop else go")
	hw := gr.Run(input)
	sw := engine.NewTagger().Tag(input)
	if !reflect.DeepEqual(hw, sw) {
		t.Errorf("gate-level %v != stream %v", hw, sw)
	}
}

func TestPoolFacade(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewPool(3)
	want := engine.NewTagger().Tag([]byte("if true then go"))
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := pool.Tag([]byte("if true then go")); !reflect.DeepEqual(got, want) {
				t.Error("pool result diverged")
			}
		}()
	}
	wg.Wait()
}

func TestWide2RunnerAndSelfTest(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := engine.NewWide2Runner()
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then stop else go")
	hw := w2.Run(input)
	sw := engine.NewTagger().Tag(input)
	if !reflect.DeepEqual(hw, sw) {
		t.Errorf("wide2 %v != sw %v", hw, sw)
	}
	n, err := engine.SelfTest(3, 15)
	if err != nil || n != 15 {
		t.Errorf("selftest n=%d err=%v", n, err)
	}
	// Recovery engines cannot build the 2-byte datapath.
	rec, err := Compile("demo", IfThenElseSource, RecoverRestart())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.NewWide2Runner(); err == nil {
		t.Error("wide2 with recovery should fail")
	}
}

func TestParserBaseline(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.NewParser()
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	tags, err := p.Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	sw := engine.NewTagger().Tag(input)
	if !reflect.DeepEqual(tags, sw) {
		t.Errorf("parser %v != tagger %v", tags, sw)
	}
	if p.Accepts([]byte("then go")) {
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

func TestNonLL1StillTags(t *testing.T) {
	// A grammar that is not LL(1) cannot build the baseline parser but
	// the tagger still works (the hardware never needed LL(1)).
	src := "%%\nS : \"a\" \"b\" | \"a\" \"c\" ;\n"
	engine, err := Compile("nonll1", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewParser(); err == nil {
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
// it was given — arenas on every kind, the transition cache on dfa, the
// compiled tables on aot — is discharged by Close.
func TestPipelineCloseReleasesGauge(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>\n")
	for _, kind := range []BackendKind{StreamBackend, DFABackend, AOTBackend} {
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
			if kind == AOTBackend && g.Load() == 0 {
				t.Error("aot tables were not charged to the gauge")
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
