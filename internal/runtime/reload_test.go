package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
)

// reloadSink records, per stream, the delivered bytes, tags, EOS flag and
// the set of factory versions stamped on its batches. Safe for concurrent
// Deliver (mutexed) so tests may raise SinkWorkers.
type reloadSink struct {
	mu   sync.Mutex
	data map[string][]byte
	tags map[string][]stream.Match
	eos  map[string]bool
	vers map[string]map[int]bool
}

func newReloadSink() *reloadSink {
	return &reloadSink{
		data: make(map[string][]byte),
		tags: make(map[string][]stream.Match),
		eos:  make(map[string]bool),
		vers: make(map[string]map[int]bool),
	}
}

func (s *reloadSink) Deliver(b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[b.Key] = append(s.data[b.Key], b.Data...)
	s.tags[b.Key] = append(s.tags[b.Key], b.Tags...)
	if b.EOS {
		s.eos[b.Key] = true
	}
	vs := s.vers[b.Key]
	if vs == nil {
		vs = make(map[int]bool)
		s.vers[b.Key] = vs
	}
	vs[b.Version] = true
	return nil
}

func (s *reloadSink) Close() error { return nil }

// seen reports whether any batch for key has been delivered.
func (s *reloadSink) seen(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vers[key]) > 0
}

// retireSink wraps one factory version's sink to observe its retirement:
// it counts the version's Close calls and notes how many EOS batches it
// had delivered by the first one.
type retireSink struct {
	Sink
	mu         sync.Mutex
	eos        int
	closes     int
	eosAtClose int
}

func (s *retireSink) Deliver(b *Batch) error {
	if b.EOS {
		s.mu.Lock()
		s.eos++
		s.mu.Unlock()
	}
	return s.Sink.Deliver(b)
}

func (s *retireSink) Close() error {
	s.mu.Lock()
	if s.closes == 0 {
		s.eosAtClose = s.eos
	}
	s.closes++
	s.mu.Unlock()
	return s.Sink.Close()
}

// retired reports how often the version's sink was closed and how many
// EOS batches it had delivered by then.
func (s *retireSink) retired() (closes, eosAtClose int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closes, s.eosAtClose
}

func TestSwapFactoryBasics(t *testing.T) {
	nop := SinkFunc(func(*Batch) error { return nil })
	v1, v2 := &retireSink{Sink: nop}, &retireSink{Sink: nop}
	p, err := NewPipeline(Config{Shards: 2, Factory: fakeFactory}, v1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CurrentVersion(); got != 1 {
		t.Fatalf("CurrentVersion = %d, want 1", got)
	}
	if got := p.LiveVersions(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("LiveVersions = %v, want [1]", got)
	}
	if _, err := p.SwapFactory(nil, nop); err == nil {
		t.Fatal("SwapFactory(nil, sink) succeeded")
	}
	if _, err := p.SwapFactory(fakeFactory, nil); err == nil {
		t.Fatal("SwapFactory(f, nil) succeeded")
	}
	// No live streams: the swap retires version 1 immediately.
	v, err := p.SwapFactory(fakeFactory, v2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || p.CurrentVersion() != 2 {
		t.Fatalf("swap returned version %d (current %d), want 2", v, p.CurrentVersion())
	}
	if got := p.LiveVersions(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("LiveVersions after idle swap = %v, want [2]", got)
	}
	if c1, _ := v1.retired(); c1 != 1 {
		t.Fatalf("version 1's sink closed %d times, want 1", c1)
	}
	if c2, _ := v2.retired(); c2 != 0 {
		t.Fatalf("version 2's sink closed %d times before Close, want 0", c2)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SwapFactory(fakeFactory, nop); !errors.Is(err, ErrClosed) {
		t.Fatalf("SwapFactory after Close: %v, want ErrClosed", err)
	}
}

// TestReloadSoak is the zero-downtime proof: ≥100 live streams on the old
// grammar, a SwapFactory to a new grammar mid-run, a second wave of
// streams on the new version — every stream must come out byte-identical
// to its serial oracle on the version it bound, with zero dropped or
// reordered batches, and the old version must retire once its last stream
// drains. Run under -race this doubles as the concurrency soak for the
// version registry and the shared DFA cache.
func TestReloadSoak(t *testing.T) {
	specA, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	specB, err := core.Compile(grammar.XMLRPCFull(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}

	const oldStreams = 100
	const newStreams = 40

	genA := workload.NewGenerator(specA, 71, workload.SentenceOptions{MaxDepth: 6})
	genB := workload.NewGenerator(specB, 72, workload.SentenceOptions{MaxDepth: 6})
	oldIn := make([][]byte, oldStreams)
	for i := range oldIn {
		a, _ := genA.Sentence()
		b, _ := genA.Sentence()
		oldIn[i] = append(append([]byte(nil), a...), b...)
	}
	newIn := make([][]byte, newStreams)
	for i := range newIn {
		s, _ := genB.Sentence()
		newIn[i] = s
	}

	sink := newReloadSink()
	v1 := &retireSink{Sink: sink}
	p, err := NewPipeline(Config{Shards: 4, Factory: testFactory(t, specA, Limits{})}, v1)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: open every old stream with its first chunk and wait until
	// each backend exists (its first batch reached the sink), so the
	// streams genuinely bind version 1.
	half := make([]int, oldStreams)
	for i, in := range oldIn {
		half[i] = len(in) / 2
		if err := p.Send(key("old", i), in[:half[i]]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < oldStreams; i++ {
		for !sink.seen(key("old", i)) {
			if time.Now().After(deadline) {
				t.Fatalf("stream %d never reached the sink", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 2: hot-swap the grammar while every old stream is mid-flight.
	v2, err := p.SwapFactory(testFactory(t, specB, Limits{}), sink)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("swap returned version %d, want 2", v2)
	}
	if got := p.LiveVersions(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("LiveVersions mid-drain = %v, want [1 2]", got)
	}

	// Phase 3: concurrently finish the old streams on version 1 and run
	// the new wave on version 2.
	var wg sync.WaitGroup
	for i := range oldIn {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := key("old", i)
			rest := oldIn[i][half[i]:]
			for off := 0; off < len(rest); off += 97 {
				end := off + 97
				if end > len(rest) {
					end = len(rest)
				}
				if err := p.Send(k, rest[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.CloseStream(k); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := range newIn {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := key("new", i)
			in := newIn[i]
			for off := 0; off < len(in); off += 61 {
				end := off + 61
				if end > len(in) {
					end = len(in)
				}
				if err := p.Send(k, in[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.CloseStream(k); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	// Phase 4: the old version retires as soon as its last stream's final
	// batch is delivered — before pipeline Close.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if lv := p.LiveVersions(); reflect.DeepEqual(lv, []int{2}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old version never retired: LiveVersions = %v", p.LiveVersions())
		}
		time.Sleep(time.Millisecond)
	}
	if closes, eos := v1.retired(); closes != 1 || eos != oldStreams {
		t.Errorf("version 1 retired %d times after %d of its %d final batches, want exactly once after all",
			closes, eos, oldStreams)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Every stream: bytes intact and in order, exactly one version, tags
	// byte-identical to the serial oracle of the version it bound.
	oracleA := stream.NewTagger(specA)
	oracleB := stream.NewTagger(specB)
	check := func(k string, in []byte, wantVer int, oracleTags []stream.Match) {
		t.Helper()
		if !sink.eos[k] {
			t.Fatalf("%s: no EOS delivered", k)
		}
		if !reflect.DeepEqual(sink.data[k], in) {
			t.Fatalf("%s: delivered bytes differ from input (%d vs %d bytes)", k, len(sink.data[k]), len(in))
		}
		if len(sink.vers[k]) != 1 || !sink.vers[k][wantVer] {
			t.Fatalf("%s: batch versions %v, want exactly {%d}", k, sink.vers[k], wantVer)
		}
		got := sink.tags[k]
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, oracleTags) {
			t.Fatalf("%s: tags differ from serial oracle\ngot  %v\nwant %v", k, got, oracleTags)
		}
	}
	for i, in := range oldIn {
		check(key("old", i), in, 1, oracleA.Tag(in))
	}
	for i, in := range newIn {
		check(key("new", i), in, 2, oracleB.Tag(in))
	}
}

func key(prefix string, i int) string { return fmt.Sprintf("%s-%d", prefix, i) }

func TestConfigValidate(t *testing.T) {
	base := func() Config { return Config{Factory: fakeFactory} }
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"nil factory", func(c *Config) { c.Factory = nil }, "Factory"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards"},
		{"negative queue", func(c *Config) { c.Queue = -2 }, "Queue"},
		{"negative max streams", func(c *Config) { c.MaxStreams = -1 }, "MaxStreams"},
		{"negative sink workers", func(c *Config) { c.SinkWorkers = -3 }, "SinkWorkers"},
		{"negative sink attempts", func(c *Config) { c.SinkAttempts = -1 }, "SinkAttempts"},
		{"negative sink backoff", func(c *Config) { c.SinkBackoff = -time.Millisecond }, "SinkBackoff"},
		{"negative quota streams", func(c *Config) { c.Quota.MaxStreams = -1 }, "Quota.MaxStreams"},
		{"negative quota rate", func(c *Config) { c.Quota.BytesPerSec = -5 }, "Quota.BytesPerSec"},
		{"negative quota memory", func(c *Config) { c.Quota.MemBudgetBytes = -1 }, "Quota.MemBudgetBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, perr := NewPipeline(cfg, SinkFunc(func(*Batch) error { return nil }))
			errs := map[string]error{"NewPipeline": perr}
			// Validate checks the knobs; the factory is NewPipeline's to
			// require.
			if cfg.Factory != nil {
				errs["Validate"] = cfg.Validate()
			}
			for fn, err := range errs {
				var ce *ConfigError
				if !errors.Is(err, ErrInvalidConfig) || !errors.As(err, &ce) || ce.Field != tc.field {
					t.Fatalf("%s = %v, want a ConfigError on %s", fn, err, tc.field)
				}
			}
		})
	}
	// The documented negative switches stay legal.
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative batch bytes disables coalescing", func(c *Config) { c.BatchBytes = -1 }},
		{"negative quarantine disables quarantining", func(c *Config) { c.Quarantine = -1 }},
		{"all zero defaults", func(c *Config) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
		})
	}
}

// TestSharedCacheAcrossPipelineStreams asserts the shared DFA cache
// amortizes determinization at the pipeline level: the summed CacheStats
// misses of N streams equal what a single stream pays, so fills are O(1)
// in stream count.
func TestSharedCacheAcrossPipelineStreams(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(spec, 83, workload.SentenceOptions{MaxDepth: 6})
	text, _ := gen.Sentence()

	run := func(streams int) (misses int64) {
		var mc MetricCounters
		p, err := NewPipeline(Config{Shards: 2, Factory: testFactory(t, spec, Limits{}), Metrics: &mc},
			SinkFunc(func(*Batch) error { return nil }))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streams; i++ {
			if err := p.Send(key("s", i), text); err != nil {
				t.Fatal(err)
			}
			if err := p.CloseStream(key("s", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		c, _ := mc.Snapshot()
		if c.CacheHits+c.CacheMisses != int64(streams)*int64(len(text)) {
			t.Fatalf("%d streams: hits+misses = %d, want %d",
				streams, c.CacheHits+c.CacheMisses, int64(streams)*int64(len(text)))
		}
		return c.CacheMisses
	}

	solo := run(1)
	if solo == 0 {
		t.Fatal("single stream recorded no cache fills; input too trivial")
	}
	fleet := run(64)
	if fleet != solo {
		t.Errorf("64 streams filled %d transitions, 1 stream fills %d (want equal: O(1) in stream count)",
			fleet, solo)
	}
}
