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
      "backend": "stream",
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
}

// TestPlatformReload swaps a tenant's grammar mid-stream: the live stream
// keeps the old grammar's tags and Version 1; a stream started after the
// reload is tagged by the new grammar with Version 2; the old version
// retires once the live stream ends.
func TestPlatformReload(t *testing.T) {
	pc := testPlatformConfig(t)
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

// TestReferenceBackendsNotServed pins the line between served and reference
// execution paths: a tenant or a pipeline on gates, parser or earley is a
// typed configuration error naming the single-stream alternative, the same
// kinds still build through NewBackend, and the per-stream limits that
// existed only for them are unknown fields to the strict decoder.
func TestReferenceBackendsNotServed(t *testing.T) {
	engine, err := Compile("demo", IfThenElseSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []BackendKind{GatesBackend, ParserBackend, EarleyBackend} {
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
	cases := []struct {
		name string
		mut  func(*PlatformConfig)
	}{
		{"no tenants", func(c *PlatformConfig) { c.Tenants = nil }},
		{"empty name", func(c *PlatformConfig) { c.Tenants[0].Name = "" }},
		{"duplicate names", func(c *PlatformConfig) { c.Tenants = append(c.Tenants, c.Tenants[0]) }},
		{"no grammar", func(c *PlatformConfig) { c.Tenants[0].Grammar = "" }},
		{"both grammar sources", func(c *PlatformConfig) { c.Tenants[0].GrammarFile = "x.g" }},
		{"unknown option", func(c *PlatformConfig) { c.Tenants[0].Options = []string{"warp-speed"} }},
		{"unknown backend", func(c *PlatformConfig) { c.Tenants[0].Backend = "quantum" }},
		{"negative shards", func(c *PlatformConfig) { c.Tenants[0].Shards = -1 }},
		{"negative queue", func(c *PlatformConfig) { c.Tenants[0].Queue = -1 }},
		{"negative max streams", func(c *PlatformConfig) { c.Tenants[0].MaxStreams = -1 }},
		{"negative sink attempts", func(c *PlatformConfig) { c.Tenants[0].SinkAttempts = -1 }},
		{"negative sink workers", func(c *PlatformConfig) { c.Tenants[0].SinkWorkers = -1 }},
		{"negative quota streams", func(c *PlatformConfig) { c.Tenants[0].Quota.MaxStreams = -1 }},
		{"negative quota rate", func(c *PlatformConfig) { c.Tenants[0].Quota.BytesPerSec = -1 }},
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
			if !errors.As(err, &ce) {
				t.Fatalf("Validate = %v, want *ConfigError", err)
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
// ErrPlatformClosed, and the platform's entry points fail closed after.
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
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < racers; i++ {
		go func() {
			start.Wait()
			errs <- p.Close()
		}()
	}
	start.Done()
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
	// Close flushed the open stream: its EOS batch was delivered.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !sink.eos["lang/s1"] {
		t.Fatal("open stream not flushed by Close")
	}
}
