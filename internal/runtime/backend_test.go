package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
)

func compileT(t *testing.T, g *grammar.Grammar, opts core.Options) *core.Spec {
	t.Helper()
	spec, err := core.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// factories builds every execution form for one spec — both spellings of
// the served table and the references; the parser factory is omitted when
// the grammar is not LL(1).
func factories(t *testing.T, spec *core.Spec) map[string]Factory {
	t.Helper()
	out := make(map[string]Factory)
	for _, kind := range []Kind{KindStream, KindDFA, KindAOT, KindGates, KindEarley} {
		out[string(kind)] = testFactory(t, spec, FactoryOptions{Kind: kind})
	}
	if pf, _, err := NewFactory(spec, FactoryOptions{Kind: KindParser}); err == nil {
		out["parser"] = pf
	}
	return out
}

func TestBackendsAgreeOnIfThenElse(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	input := []byte("if true then go else stop")

	want := stream.NewTagger(spec).Tag(input)
	if len(want) == 0 {
		t.Fatal("reference tagger found nothing")
	}
	for name, f := range factories(t, spec) {
		b, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := b.Feed(input, nil)
		if err != nil {
			t.Fatalf("%s: feed: %v", name, err)
		}
		if got, err = b.Close(got); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: matches = %v, want %v", name, got, want)
		}
		c := b.Counters()
		if c.Bytes != int64(len(input)) {
			t.Errorf("%s: counted %d bytes, want %d", name, c.Bytes, len(input))
		}
		if c.Matches != int64(len(want)) {
			t.Errorf("%s: counted %d matches, want %d", name, c.Matches, len(want))
		}
	}
}

// TestBackendMatchesDrain pins the append contract: every call's matches
// leave with the call, behind whatever the caller's buffer already held,
// and the backend keeps no reference to a buffer it was handed earlier.
func TestBackendMatchesDrain(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	input := []byte("if true then go else stop")
	want := stream.NewTagger(spec).Tag(input)
	for name, f := range factories(t, spec) {
		b, err := f()
		if err != nil {
			t.Fatal(err)
		}
		sentinel := stream.Match{InstanceID: -1, End: -1}
		first, _ := b.Feed(input[:10], []stream.Match{sentinel})
		if len(first) == 0 || first[0] != sentinel {
			t.Fatalf("%s: Feed did not append behind the caller's prefix: %v", name, first)
		}
		kept := append([]stream.Match(nil), first...)
		rest, _ := b.Feed(input[10:], nil)
		rest, _ = b.Close(rest)
		if again, _ := b.Close(nil); len(again) != 0 {
			t.Errorf("%s: second Close appended %d matches, want 0", name, len(again))
		}
		if !reflect.DeepEqual(first, kept) {
			t.Errorf("%s: a later call wrote into an earlier call's buffer", name)
		}
		if got := append(first[1:], rest...); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: matches = %v, want %v", name, got, want)
		}
	}
}

func TestBackendResetReuse(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	input := []byte("if true then go else stop")
	want := stream.NewTagger(spec).Tag(input)
	for name, f := range factories(t, spec) {
		b, err := f()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			b.Reset()
			got, err := b.Feed(input, nil)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if got, err = b.Close(got); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d: matches = %v, want %v", name, round, got, want)
			}
		}
	}
}

func TestBackendFeedAfterClose(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	for name, f := range factories(t, spec) {
		b, err := f()
		if err != nil {
			t.Fatal(err)
		}
		b.Feed([]byte("go"), nil)
		b.Close(nil)
		if _, err := b.Feed([]byte("x"), nil); err == nil {
			t.Errorf("%s: Feed after Close succeeded", name)
		}
	}
}

func TestParserBackendRejects(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	b, err := testFactory(t, spec, FactoryOptions{Kind: KindParser})()
	if err != nil {
		t.Fatal(err)
	}
	b.Feed([]byte("if true go"), nil) // missing "then"
	ms, err := b.Close(nil)
	if err == nil {
		t.Error("parser backend accepted a non-sentence")
	}
	if len(ms) != 0 {
		t.Errorf("parser backend emitted %d matches on reject", len(ms))
	}
}

func TestParserFactoryRejectsNonLL1(t *testing.T) {
	g, err := grammar.Parse("nonll1", "%%\nS : \"a\" \"b\" | \"a\" \"c\" ;\n")
	if err != nil {
		t.Fatal(err)
	}
	spec := compileT(t, g, core.Options{})
	if _, _, err := NewFactory(spec, FactoryOptions{Kind: KindParser}); err == nil {
		t.Error("NewFactory built a parser for a non-LL(1) grammar")
	}
}

func TestTaggerBackendRecoveryCounter(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{Recovery: core.RecoveryRestart})
	b, err := testFactory(t, spec, FactoryOptions{Kind: KindStream})()
	if err != nil {
		t.Fatal(err)
	}
	b.Feed([]byte("if true ### then go"), nil)
	b.Close(nil)
	if c := b.Counters(); c.Recoveries == 0 {
		t.Error("corrupt input produced no recovery events")
	}
}

func TestDFABackendRecoveryCounter(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{Recovery: core.RecoveryRestart})
	b, err := testFactory(t, spec, FactoryOptions{Kind: KindDFA})()
	if err != nil {
		t.Fatal(err)
	}
	b.Feed([]byte("if true ### then go"), nil)
	b.Close(nil)
	if c := b.Counters(); c.Recoveries == 0 {
		t.Error("corrupt input produced no recovery events")
	}
}

// TestDFABackendCacheStats checks the cache counters surface both on the
// backend's Counters and — folded in as each stream ends — on a one-shard
// pipeline's metrics, and that a tiny bound actually resets. The pipeline
// runs the same three streams, in the same order, on a fresh table of the
// same bound, so its totals must equal the serial backend's.
func TestDFABackendCacheStats(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	tiny := func() Factory { return tableFactory(stream.NewTable(spec, stream.TableConfig{MaxStates: 2}), Limits{}) }
	b, err := tiny()()
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	const rounds = 3
	for round := 0; round < rounds; round++ {
		b.Reset()
		b.Feed(input, nil)
		b.Close(nil)
	}
	c := b.Counters()
	if c.CacheMisses == 0 {
		t.Error("no cache misses counted")
	}
	if c.CacheResets == 0 {
		t.Error("two-state cache never reset")
	}
	if c.CacheHits+c.CacheMisses != rounds*int64(len(input)) {
		t.Errorf("hits+misses = %d, want the %d bytes fed", c.CacheHits+c.CacheMisses, rounds*len(input))
	}

	var mc MetricCounters
	p, err := NewPipeline(Config{Shards: 1, Factory: tiny(), Metrics: &mc}, SinkFunc(func(*Batch) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("s%d", round)
		if err := p.Send(key, input); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := mc.Snapshot()
	if got.CacheHits != c.CacheHits || got.CacheMisses != c.CacheMisses || got.CacheResets != c.CacheResets {
		t.Errorf("pipeline counted cache (%d, %d, %d), the serial backend (%d, %d, %d)",
			got.CacheHits, got.CacheMisses, got.CacheResets,
			c.CacheHits, c.CacheMisses, c.CacheResets)
	}
}

// TestHooksObserveEvents checks a one-shard pipeline's byte and match
// counters against what was sent and what the sink received, and both
// against the serial tagger.
func TestHooksObserveEvents(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	var mc MetricCounters
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, Factory: testFactory(t, spec, FactoryOptions{}), Metrics: &mc}, sink)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	if err := p.Send("s", input); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseStream("s"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := mc.Snapshot()
	if got.Bytes != int64(len(input)) {
		t.Errorf("counted %d bytes, sent %d", got.Bytes, len(input))
	}
	want := stream.NewTagger(spec).Tag(input)
	if len(want) == 0 || !reflect.DeepEqual(sink.tags["s"], want) {
		t.Fatalf("sink received %v, serial tagger %v", sink.tags["s"], want)
	}
	if got.Matches != int64(len(want)) {
		t.Errorf("counted %d matches, sink received %d", got.Matches, len(want))
	}
}
