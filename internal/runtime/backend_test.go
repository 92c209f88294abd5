package runtime

import (
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

// factories builds all six backends for one spec; the parser factory is
// omitted when the grammar is not LL(1).
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
		b, err := f(0, nil)
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
		b, err := f(0, nil)
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
		b, err := f(0, nil)
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
		b, err := f(0, nil)
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
	b, err := testFactory(t, spec, FactoryOptions{Kind: KindParser})(0, nil)
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
	b, err := testFactory(t, spec, FactoryOptions{})(0, nil)
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
	b, err := testFactory(t, spec, FactoryOptions{Kind: KindDFA})(0, nil)
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
// backend's Counters and — as deltas at Close — through the hooks, and
// that a tiny bound actually resets.
func TestDFABackendCacheStats(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	var mc MetricCounters
	b, err := testFactory(t, spec, FactoryOptions{Kind: KindDFA, MaxStates: 2})(0, mc.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	for round := 0; round < 3; round++ {
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
	got, _ := mc.Snapshot()
	if got.CacheHits != c.CacheHits || got.CacheMisses != c.CacheMisses || got.CacheResets != c.CacheResets {
		t.Errorf("hooks saw cache (%d, %d, %d), backend counted (%d, %d, %d)",
			got.CacheHits, got.CacheMisses, got.CacheResets,
			c.CacheHits, c.CacheMisses, c.CacheResets)
	}
}

func TestHooksObserveEvents(t *testing.T) {
	spec := compileT(t, grammar.IfThenElse(), core.Options{})
	var mc MetricCounters
	b, err := testFactory(t, spec, FactoryOptions{})(3, mc.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("if true then go else stop")
	b.Feed(input, nil)
	b.Close(nil)
	got, _ := mc.Snapshot()
	if got.Bytes != int64(len(input)) {
		t.Errorf("hooks saw %d bytes, want %d", got.Bytes, len(input))
	}
	if want := b.Counters().Matches; got.Matches != want {
		t.Errorf("hooks saw %d matches, want %d", got.Matches, want)
	}
}
