package runtime_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/faultinject"
	"cfgtag/internal/grammar"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// chaosStream is one stream of the chaos population: its key, the chunks
// sent, and the fault its payload carries (if any).
type chaosStream struct {
	key    string
	chunks [][]byte
	full   []byte // concatenation of chunks, for the fault-free reference
	fault  string // "", "error", "panic" or "slow" ("slow" is not a fault)
}

// buildChaosStreams fabricates n streams: ~10% carry an in-band fault
// trigger (split between errors and panics), a few carry a latency
// trigger, the rest are clean.
func buildChaosStreams(n int) []chaosStream {
	base := []byte("if true then go else stop ")
	out := make([]chaosStream, n)
	for i := range out {
		s := chaosStream{key: fmt.Sprintf("stream-%04d", i)}
		switch {
		case i%20 == 3:
			s.fault = "error"
		case i%20 == 13:
			s.fault = "panic"
		case i%50 == 25:
			s.fault = "slow"
		}
		chunks := 4 + i%4
		for c := 0; c < chunks; c++ {
			chunk := append([]byte(nil), base...)
			if c == chunks/2 {
				switch s.fault {
				case "error":
					chunk = append(chunk, faultinject.TriggerError...)
				case "panic":
					chunk = append(chunk, faultinject.TriggerPanic...)
				case "slow":
					chunk = append(chunk, faultinject.TriggerSlow...)
				}
			}
			s.chunks = append(s.chunks, chunk)
			s.full = append(s.full, chunk...)
		}
		out[i] = s
	}
	return out
}

func (s *chaosStream) faulted() bool { return s.fault == "error" || s.fault == "panic" }

// chaosCollector records per-stream reassembly; Deliver runs on the sink
// goroutine, reads happen after Close.
type chaosCollector struct {
	data     map[string][]byte
	tags     map[string][]stream.Match
	terminal map[string]bool
	errs     map[string]error
	batches  int
}

func newChaosCollector() *chaosCollector {
	return &chaosCollector{
		data:     make(map[string][]byte),
		tags:     make(map[string][]stream.Match),
		terminal: make(map[string]bool),
		errs:     make(map[string]error),
	}
}

func (c *chaosCollector) Deliver(b *runtime.Batch) error {
	c.batches++
	c.data[b.Key] = append(c.data[b.Key], b.Data...)
	c.tags[b.Key] = append(c.tags[b.Key], b.Tags...)
	if b.EOS || b.Evicted {
		c.terminal[b.Key] = true
	}
	if b.Err != nil {
		c.errs[b.Key] = b.Err
	}
	return nil
}
func (c *chaosCollector) Close() error { return nil }

// TestChaosPipeline is the fault-injection soak: ~1000 streams, ~10% of
// which carry injected backend faults (errors and panics), delivered
// through a sink with injected transient failures and occasional panics.
// The pipeline must never crash or deadlock, every stream must reach a
// terminal batch, and the non-faulted streams' bytes and tags must be
// identical to a fault-free run. Run it under -race.
func TestChaosPipeline(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	if testing.Short() {
		n = 200
	}
	streams := buildChaosStreams(n)

	var mc runtime.MetricCounters
	collector := newChaosCollector()
	flaky := faultinject.WrapSink(collector, faultinject.SinkConfig{
		FailEvery:  13,
		FailCount:  2, // below SinkAttempts: retries must absorb every failure
		PanicEvery: 211,
	})
	factory := faultinject.Factory(runtime.MustFactory(t, spec, runtime.FactoryOptions{}), faultinject.Config{
		Triggers: true,
		Latency:  50 * time.Microsecond,
	})
	p, err := runtime.NewPipeline(runtime.Config{
		Shards:      8,
		Queue:       16,
		Factory:     factory,
		Hooks:       mc.Hooks(),
		Quarantine:  time.Hour, // no mid-test expiry: fault counts stay exact
		SinkBackoff: 50 * time.Microsecond,
		// Headroom over FailCount: a batch hit by both a panic and a fail
		// window needs up to 3 retries, which must stay transient.
		SinkAttempts: 5,
	}, flaky)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		const senders = 16
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(streams); i += senders {
					s := streams[i]
					quarantined := false
					for _, chunk := range s.chunks {
						err := p.Send(s.key, chunk)
						if errors.Is(err, runtime.ErrQuarantined) && s.faulted() {
							quarantined = true
							break
						}
						if err != nil {
							t.Errorf("%s: Send = %v", s.key, err)
							return
						}
					}
					if !quarantined {
						if err := p.CloseStream(s.key); err != nil && !(errors.Is(err, runtime.ErrQuarantined) && s.faulted()) {
							t.Errorf("%s: CloseStream = %v", s.key, err)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if err := p.Close(); err != nil {
			t.Errorf("Close = %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos pipeline deadlocked")
	}

	// Every stream reached a terminal batch, whatever its fate.
	ref := stream.NewTagger(spec)
	panics, faults := 0, 0
	for i := range streams {
		s := &streams[i]
		if !collector.terminal[s.key] {
			t.Errorf("%s (fault=%q): no terminal batch", s.key, s.fault)
			continue
		}
		if s.faulted() {
			faults++
			if s.fault == "panic" {
				panics++
				if err := collector.errs[s.key]; !errors.Is(err, runtime.ErrBackendPanic) {
					t.Errorf("%s: Err = %v, want ErrBackendPanic", s.key, err)
				}
			} else if collector.errs[s.key] == nil {
				t.Errorf("%s: error-injected stream has no Err", s.key)
			}
			continue
		}
		// Non-faulted streams must be untouched by their neighbors'
		// faults: bytes reassemble exactly, tags equal a fault-free run.
		if err := collector.errs[s.key]; err != nil {
			t.Errorf("%s: clean stream got error %v", s.key, err)
		}
		if !bytes.Equal(collector.data[s.key], s.full) {
			t.Errorf("%s: reassembled %d bytes, sent %d", s.key, len(collector.data[s.key]), len(s.full))
		}
		want := ref.Tag(s.full)
		if !reflect.DeepEqual(collector.tags[s.key], want) {
			t.Errorf("%s: tags diverge from fault-free run (%d vs %d)", s.key, len(collector.tags[s.key]), len(want))
		}
	}
	if faults == 0 || panics == 0 {
		t.Fatalf("chaos population degenerate: %d faults, %d panics", faults, panics)
	}

	f := mc.Faults()
	if f.StreamsQuarantined != int64(faults) {
		t.Errorf("quarantined = %d, want %d (one per faulted stream)", f.StreamsQuarantined, faults)
	}
	if f.PanicsRecovered < int64(panics) {
		t.Errorf("panics recovered = %d, want >= %d backend panics", f.PanicsRecovered, panics)
	}
	if f.SinkRetries == 0 {
		t.Error("injected sink failures produced no retries")
	}
	if f.DeadLetters != 0 {
		t.Errorf("dead letters = %d, want 0 (sink failures were transient)", f.DeadLetters)
	}
	if f.StreamsEvicted != 0 {
		t.Errorf("evicted = %d, want 0 (no MaxStreams cap configured)", f.StreamsEvicted)
	}
}

// TestChaosPipelineWithEviction layers a tight MaxStreams cap on top of
// the fault mix: terminal batches must still arrive for every stream
// (EOS, error or evicted) and the pipeline must still drain cleanly.
func TestChaosPipelineWithEviction(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	n := 300
	if testing.Short() {
		n = 100
	}
	streams := buildChaosStreams(n)
	var mc runtime.MetricCounters
	collector := newChaosCollector()
	p, err := runtime.NewPipeline(runtime.Config{
		Shards:     4,
		MaxStreams: 4, // far below the live population: eviction churns
		Factory:    faultinject.Factory(runtime.MustFactory(t, spec, runtime.FactoryOptions{}), faultinject.Config{Triggers: true}),
		Hooks:      mc.Hooks(),
		Quarantine: time.Hour,
	}, collector)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(streams); i += 8 {
					s := streams[i]
					for _, chunk := range s.chunks {
						if err := p.Send(s.key, chunk); err != nil {
							if errors.Is(err, runtime.ErrQuarantined) && s.faulted() {
								break
							}
							t.Errorf("%s: Send = %v", s.key, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if err := p.Close(); err != nil {
			t.Errorf("Close = %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("eviction chaos deadlocked")
	}
	for i := range streams {
		s := &streams[i]
		if !collector.terminal[s.key] {
			t.Errorf("%s: no terminal batch", s.key)
		}
	}
	if f := mc.Faults(); f.StreamsEvicted == 0 {
		t.Error("tight MaxStreams cap produced no evictions")
	}
}
