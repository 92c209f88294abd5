package cfgtag

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// grammarSources returns every grammar the repo carries — the built-ins,
// grammars/ and testdata/grammars/ — by name.
func grammarSources(t testing.TB) map[string]string {
	t.Helper()
	sources := map[string]string{
		"builtin/parens":     BalancedParensSource,
		"builtin/ifthenelse": IfThenElseSource,
		"builtin/xmlrpc":     XMLRPCSource,
		"builtin/xmlrpcfull": XMLRPCFullSource,
		"builtin/english":    EnglishSource,
	}
	for _, pattern := range []string{"grammars/*.y", "testdata/grammars/*.y"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no grammar files under %s: %v", pattern, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sources[f] = string(src)
		}
	}
	return sources
}

// TestTagTableMatchesInstances checks the compile-time tag table against
// its definition, for every shipped grammar with and without context
// duplication: row i is instance i's fields plus Instance.Context(g).
func TestTagTableMatchesInstances(t *testing.T) {
	for name, src := range grammarSources(t) {
		for _, dup := range []bool{true, false} {
			var opts []Option
			if !dup {
				opts = append(opts, WithoutContextDuplication())
			}
			engine, err := Compile(name, src, opts...)
			if err != nil {
				t.Fatalf("%s (duplication %v): %v", name, dup, err)
			}
			spec := engine.Spec()
			if len(engine.tags) != len(spec.Instances) {
				t.Fatalf("%s: %d table rows for %d instances", name, len(engine.tags), len(spec.Instances))
			}
			for i, in := range spec.Instances {
				want := Match{
					Term:        in.Term,
					Context:     in.Context(spec.Grammar),
					Index:       in.Index,
					SentenceEnd: in.CanEnd,
					InstanceID:  in.ID,
				}
				if engine.tags[i] != want {
					t.Errorf("%s (duplication %v) row %d = %+v, want %+v", name, dup, i, engine.tags[i], want)
				}
				if !dup && engine.tags[i].Context != in.Term {
					t.Errorf("%s row %d: context %q without duplication, want the terminal %q",
						name, i, engine.tags[i].Context, in.Term)
				}
			}
		}
	}
}

// TestPlatformReloadContexts renames the grammar's nonterminal across a
// reload: every grammar version has its own tag table, so a stream that
// started before the reload keeps the old contexts and a stream started
// after it carries the new ones.
func TestPlatformReloadContexts(t *testing.T) {
	const v1 = "%%\nS : \"a\" \"b\" ;\n"
	const v2 = "%%\nT : \"a\" \"b\" ;\n"
	pc := &PlatformConfig{Tenants: []TenantDef{{Name: "t", Grammar: v1, Shards: 1}}}
	sink := newPlatformSink()
	p, err := NewPlatform(pc, sink.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.Send("t", "old", []byte("a ")); err != nil {
		t.Fatal(err)
	}
	waitForTags(t, sink, "t", "old", 1)
	if v, err := p.Reload("t", v2); err != nil || v != 2 {
		t.Fatalf("Reload = %d, %v", v, err)
	}
	for _, step := range []struct{ stream, data string }{{"old", "b"}, {"new", "a b"}} {
		if err := p.Send("t", step.stream, []byte(step.data)); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream("t", step.stream); err != nil {
			t.Fatal(err)
		}
	}
	waitForTags(t, sink, "t", "old", 2)
	waitForTags(t, sink, "t", "new", 2)

	contexts := func(stream string) []string {
		var cs []string
		for _, m := range sink.tagsFor("t", stream) {
			cs = append(cs, m.Context)
		}
		return cs
	}
	if got, want := contexts("old"), []string{"S[0]", "S[1]"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stream opened before the reload: contexts %v, want %v", got, want)
	}
	if got, want := contexts("new"), []string{"T[0]", "T[1]"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stream opened after the reload: contexts %v, want %v", got, want)
	}
}

// TestPipelinePooledBatchNoAliasing runs sink workers whose callback
// overwrites its whole batch, and appends to its Tags, before returning.
// Batches are recycled the moment deliver returns, so if a recycled batch
// ever shared memory with one still being delivered — or with its
// neighbor in the dispatch unit, whose tag buffer they window into — the
// scribbling would show up between the callback's two reads, in a later
// batch's tags, or as a data race under -race. It runs with every Send its
// own unit and with chunks coalesced (64 KiB and 4 KiB units).
func TestPipelinePooledBatchNoAliasing(t *testing.T) {
	for _, def := range []TenantDef{
		{Shards: 4, SinkWorkers: 2, BatchBytes: -1},
		{Shards: 4, SinkWorkers: 2},
		{Shards: 4, SinkWorkers: 1, BatchBytes: 4096},
	} {
		t.Run(fmt.Sprintf("workers-%d-batch-%d", def.SinkWorkers, def.BatchBytes), func(t *testing.T) {
			testPooledBatchNoAliasing(t, def)
		})
	}
}

func testPooledBatchNoAliasing(t *testing.T, def TenantDef) {
	def.Name, def.Grammar, def.Options = "xmlrpc", XMLRPCSource, []string{"free-running-start"}
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("<methodCall> <methodName>buy</methodName> <params> <param> <i4>42</i4> </param> </params> </methodCall>\n")
	var input []byte
	for i := 0; i < 40; i++ {
		input = append(input, msg...)
	}
	want := engine.NewTagger().Tag(input)

	var mu sync.Mutex
	got := make(map[string][]Match)
	deliver := func(_ string, b *TagBatch) error {
		mine := append([]Match(nil), b.Tags...)
		runtime.Gosched() // let the other worker convert and scribble
		if !reflect.DeepEqual(mine, append([]Match(nil), b.Tags...)) {
			return PermanentDeliverError(fmt.Errorf("stream %s: batch changed during delivery", b.Stream))
		}
		mu.Lock()
		got[b.Stream] = append(got[b.Stream], mine...)
		mu.Unlock()
		scribble := Match{Term: "scribble", Context: "scribble", End: -1}
		for i := range b.Tags {
			b.Tags[i] = scribble
		}
		*b = TagBatch{Stream: "scribble", Tags: append(b.Tags, scribble)[:0]}
		return nil
	}
	p, err := NewPlatform(&PlatformConfig{Tenants: []TenantDef{def}}, deliver)
	if err != nil {
		t.Fatal(err)
	}
	const streams = 16
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for off := 0; off < len(input); off += 97 {
				end := min(off+97, len(input))
				if err := p.Send("xmlrpc", key, input[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.CloseStream("xmlrpc", key); err != nil {
				t.Error(err)
			}
		}(fmt.Sprintf("s%d", s))
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < streams; s++ {
		key := fmt.Sprintf("s%d", s)
		if !reflect.DeepEqual(got[key], want) {
			t.Fatalf("stream %s: %d tags delivered, want %d identical to the serial tagger", key, len(got[key]), len(want))
		}
	}
}

// waitForTags blocks until the sink holds at least n tags of the stream.
func waitForTags(t *testing.T, sink *platformSink, tenant, stream string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.tagsFor(tenant, stream)) < n {
		if time.Now().After(deadline) {
			t.Fatalf("stream %s/%s: %d tags delivered, want %d", tenant, stream, len(sink.tagsFor(tenant, stream)), n)
		}
		time.Sleep(time.Millisecond)
	}
}
