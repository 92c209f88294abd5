package cfgtag

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cfgtag/internal/runtime"
)

// platformSink collects batches per (tenant, stream) with a mutex; the
// platform's tenants deliver concurrently.
type platformSink struct {
	mu   sync.Mutex
	tags map[string][]Match
	vers map[string]map[int]bool
	eos  map[string]bool
	errs map[string]error
}

func newPlatformSink() *platformSink {
	return &platformSink{
		tags: make(map[string][]Match),
		vers: make(map[string]map[int]bool),
		eos:  make(map[string]bool),
		errs: make(map[string]error),
	}
}

func (s *platformSink) deliver(tenant string, b *TagBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := tenant + "/" + b.Stream
	s.tags[k] = append(s.tags[k], b.Tags...)
	if b.EOS {
		s.eos[k] = true
	}
	if b.Err != nil {
		s.errs[k] = b.Err
	}
	if s.vers[k] == nil {
		s.vers[k] = make(map[int]bool)
	}
	s.vers[k][b.Version] = true
	return nil
}

func (s *platformSink) tagsFor(tenant, stream string) []Match {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tags[tenant+"/"+stream]
}

const platformTestConfig = `{
  "tenants": [
    {
      "name": "xml",
      "grammar": %q,
      "options": ["free-running-start"],
      "backend": "dfa",
      "shards": 2,
      "quota": {"max_streams": 64}
    },
    {
      "name": "lang",
      "grammar": %q,
      "shards": 1
    }
  ]
}`

func testPlatformConfig(t *testing.T) *PlatformConfig {
	t.Helper()
	src := fmt.Sprintf(platformTestConfig, XMLRPCSource, IfThenElseSource)
	pc, err := ParsePlatformConfig([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestPlatformMultiTenant(t *testing.T) {
	pc := testPlatformConfig(t)
	sink := newPlatformSink()
	p, err := NewPlatform(pc, sink.deliver)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Tenants(); !reflect.DeepEqual(got, []string{"lang", "xml"}) {
		t.Fatalf("Tenants = %v", got)
	}

	xmlIn := []byte("<methodCall><methodName>add</methodName><params></params></methodCall>")
	langIn := []byte("if true then go else stop")
	if err := p.Send("xml", "s1", xmlIn); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("lang", "s1", langIn); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("nope", "s1", langIn); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if err := p.CloseStream("xml", "s1"); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseStream("lang", "s1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	xmlEngine, err := Compile("xml", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	langEngine, err := Compile("lang", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sink.tagsFor("xml", "s1"), xmlEngine.NewTagger().Tag(xmlIn); !reflect.DeepEqual(got, want) {
		t.Fatalf("xml tags %v, want %v", got, want)
	}
	if got, want := sink.tagsFor("lang", "s1"), langEngine.NewTagger().Tag(langIn); !reflect.DeepEqual(got, want) {
		t.Fatalf("lang tags %v, want %v", got, want)
	}
	// Each tenant counts its own bytes and matches, and the totals stay
	// readable after Close.
	for tenant, in := range map[string][]byte{"xml": xmlIn, "lang": langIn} {
		c, _, err := p.Metrics(tenant)
		if err != nil {
			t.Fatalf("Metrics(%s) after Close: %v", tenant, err)
		}
		if c.Bytes != int64(len(in)) || c.Matches == 0 {
			t.Errorf("tenant %s: %d bytes (want %d), %d matches (want > 0)", tenant, c.Bytes, len(in), c.Matches)
		}
		if _, err := p.Faults(tenant); err != nil {
			t.Errorf("Faults(%s) after Close: %v", tenant, err)
		}
	}
}

// TestPlatformReload swaps a tenant's grammar mid-stream: the live stream
// keeps the old grammar's tags and Version 1; a stream started after the
// reload is tagged by the new grammar with Version 2; the old version
// retires once the live stream ends, and Close leaves nothing of either
// version's table on the memory gauge.
func TestPlatformReload(t *testing.T) {
	pc := testPlatformConfig(t)
	// A budget that never refuses a Send installs the gauge.
	pc.Tenants[0].Quota.MemBudgetBytes = 1 << 30
	sink := newPlatformSink()
	p, err := NewPlatform(pc, sink.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	xmlIn := []byte("<methodCall><methodName>add</methodName><params></params></methodCall>")
	// Open a stream on version 1 and wait for its first batch, so the
	// stream provably binds the old grammar.
	half := len(xmlIn) / 2
	if err := p.Send("xml", "old", xmlIn[:half]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sink.mu.Lock()
		seen := len(sink.vers["xml/old"]) > 0
		sink.mu.Unlock()
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first batch never delivered")
		}
		time.Sleep(time.Millisecond)
	}

	v, err := p.Reload("xml", XMLRPCFullSource)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("Reload returned version %d, want 2", v)
	}
	if cur, _ := p.CurrentVersion("xml"); cur != 2 {
		t.Fatalf("CurrentVersion = %d, want 2", cur)
	}
	if lv, _ := p.LiveVersions("xml"); !reflect.DeepEqual(lv, []int{1, 2}) {
		t.Fatalf("LiveVersions = %v, want [1 2]", lv)
	}
	if mem, _ := p.MemUsage("xml"); mem <= 0 {
		t.Fatalf("MemUsage = %d while the tenant runs, want > 0", mem)
	}

	// The live stream finishes on the old grammar.
	if err := p.Send("xml", "old", xmlIn[half:]); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseStream("xml", "old"); err != nil {
		t.Fatal(err)
	}
	// A fresh stream runs the new grammar. XMLRPCFull requires <value>
	// wrappers, so the old wire format tags differently under it.
	fullIn := []byte("<methodCall><methodName>add</methodName><params><param><value><i4>1</i4></value></param></params></methodCall>")
	if err := p.Send("xml", "new", fullIn); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseStream("xml", "new"); err != nil {
		t.Fatal(err)
	}

	// Old version retires once the old stream's final batch is out.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if lv, _ := p.LiveVersions("xml"); reflect.DeepEqual(lv, []int{2}) {
			break
		}
		if time.Now().After(deadline) {
			lv, _ := p.LiveVersions("xml")
			t.Fatalf("old version never retired: LiveVersions = %v", lv)
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if mem, _ := p.MemUsage("xml"); mem != 0 {
		t.Fatalf("MemUsage = %d after Close, want 0", mem)
	}

	oldEngine, _ := Compile("xml", XMLRPCSource, FreeRunningStart())
	newEngine, _ := Compile("xml", XMLRPCFullSource, FreeRunningStart())
	if got, want := sink.tagsFor("xml", "old"), oldEngine.NewTagger().Tag(xmlIn); !reflect.DeepEqual(got, want) {
		t.Fatalf("old stream tags %v, want old-grammar %v", got, want)
	}
	if got, want := sink.tagsFor("xml", "new"), newEngine.NewTagger().Tag(fullIn); !reflect.DeepEqual(got, want) {
		t.Fatalf("new stream tags %v, want new-grammar %v", got, want)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if vs := sink.vers["xml/old"]; len(vs) != 1 || !vs[1] {
		t.Fatalf("old stream versions %v, want {1}", vs)
	}
	if vs := sink.vers["xml/new"]; len(vs) != 1 || !vs[2] {
		t.Fatalf("new stream versions %v, want {2}", vs)
	}
}

// TestPlatformReloadUnchanged pins Reload with the text a tenant already
// runs as a no-op: it returns the current version, mints no factory,
// publishes and retires nothing — the warm table's charge stays on the
// gauge, because no version sink was closed to discharge it — and the
// table stays warm, so replaying an input fills no state.
func TestPlatformReloadUnchanged(t *testing.T) {
	pc := testPlatformConfig(t)
	// A budget that never refuses a Send installs the gauge.
	pc.Tenants[0].Quota.MemBudgetBytes = 1 << 30
	minted := 0 // factories built, one per tenant; NewPlatform and Reload run on this goroutine
	pc.WrapFactory = func(f runtime.Factory) runtime.Factory { minted++; return f }
	sink := newPlatformSink()
	p, err := NewPlatform(pc, sink.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	xmlIn := []byte("<methodCall><methodName>add</methodName><params></params></methodCall>")
	replay := func(key string) int64 {
		t.Helper()
		if err := p.Send("xml", key, xmlIn); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream("xml", key); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			sink.mu.Lock()
			done := sink.eos["xml/"+key]
			sink.mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stream %s never ended", key)
			}
			time.Sleep(time.Millisecond)
		}
		c, _, _ := p.Metrics("xml")
		return c.CacheMisses
	}
	factories := minted
	misses := replay("first")
	mem, _ := p.MemUsage("xml")
	if misses == 0 || mem <= 0 {
		t.Fatalf("first stream: %d misses, MemUsage %d; want both > 0", misses, mem)
	}

	v, err := p.Reload("xml", pc.Tenants[0].Grammar)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("Reload with the running text returned version %d, want 1", v)
	}
	if lv, _ := p.LiveVersions("xml"); !reflect.DeepEqual(lv, []int{1}) {
		t.Fatalf("LiveVersions = %v, want [1]", lv)
	}
	if minted != factories {
		t.Fatalf("the unchanged Reload built %d factories", minted-factories)
	}
	if now, _ := p.MemUsage("xml"); now != mem {
		t.Fatalf("MemUsage %d -> %d across the Reload: a version sink was closed", mem, now)
	}
	if again := replay("second"); again != misses {
		t.Fatalf("table misses %d -> %d replaying the input: the Reload dropped the warm table", misses, again)
	}
	if !reflect.DeepEqual(sink.tagsFor("xml", "second"), sink.tagsFor("xml", "first")) {
		t.Fatal("the replay tagged differently")
	}
}

// TestTagBatchEngine checks the engine a batch reports: across a Reload the
// batches of a stream opened before it carry the old engine to the end,
// those of a stream opened after it the new one, even when the old
// stream's backend never got built; hand-built batches carry none and
// render from Tags.
func TestTagBatchEngine(t *testing.T) {
	var mu sync.Mutex
	engines := make(map[string]map[*Engine]bool)
	streamEngines := func(stream string) map[*Engine]bool {
		mu.Lock()
		defer mu.Unlock()
		return engines[stream]
	}
	p, err := NewPlatform(testPlatformConfig(t), func(tenant string, b *TagBatch) error {
		mu.Lock()
		defer mu.Unlock()
		if engines[b.Stream] == nil {
			engines[b.Stream] = make(map[*Engine]bool)
		}
		engines[b.Stream][b.Engine()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	xmlIn := []byte("<methodCall><methodName>add</methodName><params></params></methodCall>")
	half := len(xmlIn) / 2
	if err := p.Send("xml", "old", xmlIn[:half]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(streamEngines("old")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first batch never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Reload("xml", XMLRPCFullSource); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"old", "new"} {
		in := xmlIn
		if key == "old" {
			in = xmlIn[half:]
		}
		if err := p.Send("xml", key, in); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream("xml", key); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	oldEngines, newEngines := streamEngines("old"), streamEngines("new")
	if len(oldEngines) != 1 || len(newEngines) != 1 {
		t.Fatalf("engines per stream: old %d, new %d, want 1 each", len(oldEngines), len(newEngines))
	}
	var oldE, newE *Engine
	for e := range oldEngines {
		oldE = e
	}
	for e := range newEngines {
		newE = e
	}
	if oldE == nil || newE == nil || oldE == newE {
		t.Fatalf("old stream engine %p, new stream engine %p: want two distinct engines", oldE, newE)
	}
	wantOld, _ := Compile("xml", XMLRPCSource, FreeRunningStart())
	wantNew, _ := Compile("xml", XMLRPCFullSource, FreeRunningStart())
	if got, want := oldE.NewTagger().Tag(xmlIn), wantOld.NewTagger().Tag(xmlIn); !reflect.DeepEqual(got, want) {
		t.Errorf("old stream's engine tags %v, want old-grammar %v", got, want)
	}
	if got, want := newE.NewTagger().Tag(xmlIn), wantNew.NewTagger().Tag(xmlIn); !reflect.DeepEqual(got, want) {
		t.Errorf("new stream's engine tags %v, want new-grammar %v", got, want)
	}

	// A hand-built batch has no engine and renders its (edited) Tags.
	built := TagBatch{Stream: "s", Data: xmlIn, Tags: wantOld.NewTagger().Tag(xmlIn)}
	if built.Engine() != nil {
		t.Error("hand-built batch of engine tags reports an engine")
	}
	if len(built.Tags) > 0 {
		built.Tags[0].Term = "edited"
	}
	var built0 int
	if text := string(built.AppendText(nil, "", &built0)); !strings.Contains(text, " edited ") {
		t.Errorf("hand-built text %q does not render the edited Tags", text)
	}

	hand := TagBatch{Tags: []Match{{Term: "T", Context: "C", Index: 3, End: 7}}, EOS: true}
	if hand.Engine() != nil {
		t.Error("hand-built batch reports an engine")
	}
	var n int
	if got, want := string(hand.AppendText(nil, "", &n)), "TAG 7 3 T C\nEND 1\n"; got != want {
		t.Errorf("hand-built batch renders %q, want %q", got, want)
	}

	// A stream whose version-1 factory fails after a Reload superseded
	// that version still ends on version 1's engine.
	t.Run("factory fault across reload", func(t *testing.T) {
		pc := testPlatformConfig(t)
		pc.Tenants = pc.Tenants[:1] // xml only: its version 1 is the first wrap
		started, reloaded := make(chan struct{}), make(chan struct{})
		errFactory := errors.New("factory failed")
		var wraps int
		pc.WrapFactory = func(f runtime.Factory) runtime.Factory {
			wraps++
			if wraps > 1 {
				return f
			}
			// Stream s is version 1's only stream, so this is its first
			// and only call.
			return func() (runtime.Backend, error) {
				close(started)
				<-reloaded
				return nil, errFactory
			}
		}
		var last TagBatch
		p, err := NewPlatform(pc, func(_ string, b *TagBatch) error {
			if b.Stream == "s" && b.EOS {
				last = TagBatch{EOS: true, Err: b.Err, Version: b.Version, engine: b.Engine()}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.Send("xml", "s", xmlIn); err != nil {
			t.Fatal(err)
		}
		<-started
		_, err = p.Reload("xml", XMLRPCFullSource)
		close(reloaded)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(last.Err, errFactory) || last.Version != 1 {
			t.Fatalf("final batch: EOS %v, Err %v, Version %d; want the factory error on version 1", last.EOS, last.Err, last.Version)
		}
		e := last.Engine()
		if e == nil {
			t.Fatal("final batch reports no engine")
		}
		// Only the full dialect tags past <param> in this input.
		probe := []byte("<methodCall><methodName>add</methodName><params><param><value><i4>1</i4></value></param></params></methodCall>")
		if got, want := e.NewTagger().Tag(probe), wantOld.NewTagger().Tag(probe); !reflect.DeepEqual(got, want) {
			t.Errorf("faulted stream's engine tags %v, want version-1 grammar %v", got, want)
		}
	})
}

// TestReferenceBackendsNotServed pins the line between the served table and
// the reference execution paths: a tenant or a pipeline on stream, gates,
// parser or earley is a typed configuration error naming the single-stream
// alternative, the same kinds still build through NewBackend, and the
// per-stream limits that existed only for them are unknown fields to the
// strict decoder.
func TestReferenceBackendsNotServed(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []BackendKind{StreamBackend, GatesBackend, ParserBackend, EarleyBackend} {
		t.Run(string(kind), func(t *testing.T) {
			pc := &PlatformConfig{Tenants: []TenantDef{{Name: "a", Grammar: IfThenElseSource, Backend: string(kind)}}}
			err := pc.Validate()
			var ce *ConfigError
			if !errors.Is(err, ErrInvalidConfig) || !errors.As(err, &ce) || ce.Field != "tenants[0].backend" {
				t.Errorf("Validate = %v, want a ConfigError on tenants[0].backend", err)
			} else if !strings.Contains(ce.Reason, "single-stream") {
				t.Errorf("rejection %q does not name the single-stream alternative", ce.Reason)
			}
			if _, err := NewPlatform(pc, func(string, *TagBatch) error { return nil }); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("NewPlatform = %v, want ErrInvalidConfig", err)
			}
			_, err = engine.NewPipeline(PipelineConfig{Backend: kind, Shards: 1}, func(*TagBatch) error { return nil })
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("NewPipeline = %v, want ErrInvalidConfig", err)
			}
			if _, err := engine.NewBackend(kind); err != nil {
				t.Errorf("NewBackend = %v: the reference path must stay constructible", err)
			}
		})
	}
	for _, key := range []string{"max_buffer_bytes", "max_chart_items", "max_work_per_byte"} {
		src := fmt.Sprintf(`{"tenants": [{"name": "a", "grammar": "x", "limits": {%q: 1}}]}`, key)
		if _, err := ParsePlatformConfig([]byte(src)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("ParsePlatformConfig(limits.%s) = %v, want an unknown-field error", key, err)
		}
	}
	src := `{"tenants": [{"name": "a", "grammar": "x", "limits": {"max_pending_matches": 1}}]}`
	if _, err := ParsePlatformConfig([]byte(src)); err != nil {
		t.Errorf("ParsePlatformConfig(limits.max_pending_matches) = %v", err)
	}
}

func TestPlatformQuota(t *testing.T) {
	pc := &PlatformConfig{Tenants: []TenantDef{{
		Name:    "q",
		Grammar: IfThenElseSource,
		Shards:  1,
		Quota:   QuotaConfig{MaxStreams: 1},
	}}}
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(pc, func(string, *TagBatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Send("q", "a", []byte("if")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("q", "b", []byte("if")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Send: %v, want ErrQuotaExceeded", err)
	}
	if n, _ := p.LiveStreams("q"); n != 1 {
		t.Fatalf("LiveStreams = %d, want 1", n)
	}
}

// TestPlatformMemBudgetCountsTable pins that a tenant has one gauge, the
// table's and the pipeline's alike: the table's start state alone puts a
// tenant with a one-byte budget over it, so its first Send is refused.
func TestPlatformMemBudgetCountsTable(t *testing.T) {
	pc := &PlatformConfig{Tenants: []TenantDef{{
		Name:    "m",
		Grammar: IfThenElseSource,
		Shards:  1,
		Quota:   QuotaConfig{MemBudgetBytes: 1},
	}}}
	p, err := NewPlatform(pc, func(string, *TagBatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if mem, _ := p.MemUsage("m"); mem <= 1 {
		t.Fatalf("MemUsage = %d before any Send, want the table's start state", mem)
	}
	if err := p.Send("m", "s", []byte("if")); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("Send = %v, want ErrResourceExhausted from the table's charge", err)
	}
}

func TestParsePlatformConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown field", `{"tenants": [], "oops": 1}`},
		{"unknown tenant field", `{"tenants": [{"name": "a", "grammar": "x", "turbo": true}]}`},
		{"trailing garbage", `{"tenants": []} {"more": 1}`},
		{"not json", `tenants: [1`},
		{"wrong type", `{"tenants": [{"name": 42}]}`},
		{"bad duration", `{"tenants": [{"name": "a", "grammar": "x", "quarantine": "soon"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParsePlatformConfig([]byte(tc.src)); err == nil {
				t.Fatalf("ParsePlatformConfig accepted %q", tc.src)
			}
		})
	}
}

func TestPlatformConfigValidate(t *testing.T) {
	ok := func() *PlatformConfig {
		return &PlatformConfig{Tenants: []TenantDef{{Name: "a", Grammar: IfThenElseSource}}}
	}
	if err := ok().Validate(); err != nil {
		t.Fatal(err)
	}
	// Tenant-level checks name the JSON key; every knob is checked by the
	// runtime and names its Go field under the tenant's prefix.
	cases := []struct {
		name  string
		mut   func(*PlatformConfig)
		field string
	}{
		{"no tenants", func(c *PlatformConfig) { c.Tenants = nil }, "tenants"},
		{"empty name", func(c *PlatformConfig) { c.Tenants[0].Name = "" }, "tenants[0].name"},
		{"duplicate names", func(c *PlatformConfig) { c.Tenants = append(c.Tenants, c.Tenants[0]) }, "tenants[1].name"},
		{"no grammar", func(c *PlatformConfig) { c.Tenants[0].Grammar = "" }, "tenants[0].grammar"},
		{"both grammar sources", func(c *PlatformConfig) { c.Tenants[0].GrammarFile = "x.g" }, "tenants[0].grammar"},
		{"unknown option", func(c *PlatformConfig) { c.Tenants[0].Options = []string{"warp-speed"} }, "tenants[0].options"},
		{"unknown backend", func(c *PlatformConfig) { c.Tenants[0].Backend = "quantum" }, "tenants[0].backend"},
		{"negative shards", func(c *PlatformConfig) { c.Tenants[0].Shards = -1 }, "tenants[0].Shards"},
		{"negative queue", func(c *PlatformConfig) { c.Tenants[0].Queue = -1 }, "tenants[0].Queue"},
		{"negative max streams", func(c *PlatformConfig) { c.Tenants[0].MaxStreams = -1 }, "tenants[0].MaxStreams"},
		{"negative sink attempts", func(c *PlatformConfig) { c.Tenants[0].SinkAttempts = -1 }, "tenants[0].SinkAttempts"},
		{"negative sink backoff", func(c *PlatformConfig) { c.Tenants[0].SinkBackoff = -1 }, "tenants[0].SinkBackoff"},
		{"negative sink workers", func(c *PlatformConfig) { c.Tenants[0].SinkWorkers = -1 }, "tenants[0].SinkWorkers"},
		{"negative feed deadline", func(c *PlatformConfig) { c.Tenants[0].FeedDeadline = -1 }, "tenants[0].FeedDeadline"},
		{"negative pending matches", func(c *PlatformConfig) { c.Tenants[0].Limits.MaxPendingMatches = -1 }, "tenants[0].Limits.MaxPendingMatches"},
		{"negative quota streams", func(c *PlatformConfig) { c.Tenants[0].Quota.MaxStreams = -1 }, "tenants[0].Quota.MaxStreams"},
		{"negative quota rate", func(c *PlatformConfig) { c.Tenants[0].Quota.BytesPerSec = -1 }, "tenants[0].Quota.BytesPerSec"},
		{"negative quota memory", func(c *PlatformConfig) { c.Tenants[0].Quota.MemBudgetBytes = -1 }, "tenants[0].Quota.MemBudgetBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok()
			tc.mut(cfg)
			err := cfg.Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate = %v, want ErrInvalidConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("Validate = %v, want a ConfigError on %s", err, tc.field)
			}
			if _, err := NewPlatform(cfg, func(string, *TagBatch) error { return nil }); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("NewPlatform = %v, want ErrInvalidConfig", err)
			}
		})
	}
	// A bad grammar passes Validate (not compiled there) but fails
	// NewPlatform.
	bad := ok()
	bad.Tenants[0].Grammar = "%%%% not a grammar"
	if err := bad.Validate(); err != nil {
		t.Fatalf("Validate compiled the grammar: %v", err)
	}
	if _, err := NewPlatform(bad, func(string, *TagBatch) error { return nil }); err == nil {
		t.Fatal("NewPlatform accepted a bad grammar")
	}
}

func TestDurationJSON(t *testing.T) {
	var td struct {
		D Duration `json:"d"`
	}
	for src, want := range map[string]time.Duration{
		`{"d": "1500ms"}`: 1500 * time.Millisecond,
		`{"d": "-1ns"}`:   -time.Nanosecond,
		`{"d": 42}`:       42 * time.Nanosecond,
	} {
		if err := json.Unmarshal([]byte(src), &td); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if time.Duration(td.D) != want {
			t.Errorf("%s: got %v, want %v", src, time.Duration(td.D), want)
		}
	}
}

// TestPlatformDoubleClose pins Close idempotency under concurrency:
// exactly one caller wins (nil), every other racer gets the typed
// ErrPlatformClosed, Sends racing Close fail closed (never as an unknown
// tenant), the platform's entry points fail closed after, and the read
// accessors keep answering.
func TestPlatformDoubleClose(t *testing.T) {
	pc := testPlatformConfig(t)
	sink := newPlatformSink()
	p, err := NewPlatform(pc, sink.deliver)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("lang", "s1", []byte("if true then go else stop")); err != nil {
		t.Fatal(err)
	}

	const racers = 8
	errs := make(chan error, racers)
	sendErrs := make(chan error, racers)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < racers; i++ {
		go func() {
			start.Wait()
			errs <- p.Close()
		}()
		go func() {
			start.Wait()
			key := fmt.Sprintf("race-%d", i)
			for {
				err := p.Send("xml", key, []byte("<methodCall>"))
				if err == nil {
					err = p.CloseStream("xml", key)
				}
				if err != nil {
					sendErrs <- err
					return
				}
			}
		}()
	}
	start.Done()
	for i := 0; i < racers; i++ {
		if err := <-sendErrs; !errors.Is(err, ErrPlatformClosed) && !errors.Is(err, ErrPipelineClosed) {
			t.Errorf("Send/CloseStream racing Close: %v, want ErrPlatformClosed or ErrPipelineClosed", err)
		}
	}
	var wins, closed int
	for i := 0; i < racers; i++ {
		switch err := <-errs; {
		case err == nil:
			wins++
		case errors.Is(err, ErrPlatformClosed):
			closed++
		default:
			t.Errorf("concurrent Close: unexpected error %v", err)
		}
	}
	if wins != 1 || closed != racers-1 {
		t.Fatalf("concurrent Close: %d nil / %d ErrPlatformClosed, want 1 / %d",
			wins, closed, racers-1)
	}

	// Every entry point fails closed with the typed error.
	if err := p.Send("lang", "s2", []byte("x")); !errors.Is(err, ErrPlatformClosed) {
		t.Fatalf("Send after Close: %v, want ErrPlatformClosed", err)
	}
	if err := p.CloseStream("lang", "s1"); !errors.Is(err, ErrPlatformClosed) {
		t.Fatalf("CloseStream after Close: %v, want ErrPlatformClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrPlatformClosed) {
		t.Fatalf("third Close: %v, want ErrPlatformClosed", err)
	}
	if got := p.Tenants(); !reflect.DeepEqual(got, []string{"lang", "xml"}) {
		t.Fatalf("Tenants after Close = %v", got)
	}
	if c, _, err := p.Metrics("lang"); err != nil || c.Bytes != int64(len("if true then go else stop")) {
		t.Fatalf("Metrics after Close = %+v, %v; want the lang tenant's final totals", c, err)
	}
	// Close flushed the open stream: its EOS batch was delivered.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !sink.eos["lang/s1"] {
		t.Fatal("open stream not flushed by Close")
	}
}
