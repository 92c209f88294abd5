package faultinject_test

import (
	"errors"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/faultinject"
	"cfgtag/internal/grammar"
	"cfgtag/internal/oracle"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// TestIdleWrapperIsTransparent proves a zero-config wrapper changes
// nothing observable: the full differential backend relation must keep
// holding when every factory is wrapped.
func TestIdleWrapperIsTransparent(t *testing.T) {
	for _, g := range []*grammar.Grammar{grammar.IfThenElse(), grammar.BalancedParens(), grammar.XMLRPC()} {
		err := oracle.Conformance(g, 7, oracle.ConformanceOptions{
			Trials:  4,
			Corrupt: true,
			WrapFactory: func(f runtime.Factory) runtime.Factory {
				return faultinject.Factory(f, faultinject.Config{})
			},
		})
		if err != nil {
			t.Errorf("%s: wrapped conformance: %v", g.Name, err)
		}
	}
}

// TestTriggersDisabledAreInert checks the markers do nothing unless
// Triggers is set.
func TestTriggersDisabledAreInert(t *testing.T) {
	b := newWrapped(t, faultinject.Config{})
	if _, err := b.Feed(faultinject.TriggerError, nil); err != nil {
		t.Fatalf("Feed = %v with triggers disabled", err)
	}
	if _, err := b.Feed(faultinject.TriggerPanic, nil); err != nil {
		t.Fatalf("Feed = %v with triggers disabled", err)
	}
}

func newWrapped(t *testing.T, cfg faultinject.Config) runtime.Backend {
	t.Helper()
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := runtime.NewFactory(spec, runtime.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := faultinject.Factory(f, cfg)()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTriggerError(t *testing.T) {
	b := newWrapped(t, faultinject.Config{Triggers: true})
	if _, err := b.Feed([]byte("if true then "), nil); err != nil {
		t.Fatal(err)
	}
	_, err := b.Feed(append([]byte("go "), faultinject.TriggerError...), nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Feed = %v, want ErrInjected", err)
	}
}

func TestTriggerPanic(t *testing.T) {
	b := newWrapped(t, faultinject.Config{Triggers: true})
	defer func() {
		if recover() == nil {
			t.Fatal("TriggerPanic did not panic")
		}
	}()
	_, _ = b.Feed(faultinject.TriggerPanic, nil)
}

// TestTriggerStraddlesChunks splits a marker across two Feed calls; the
// rolling tail must still detect it.
func TestTriggerStraddlesChunks(t *testing.T) {
	for split := 1; split < len(faultinject.TriggerError); split++ {
		b := newWrapped(t, faultinject.Config{Triggers: true})
		if _, err := b.Feed(faultinject.TriggerError[:split], nil); err != nil {
			t.Fatalf("split %d: first half = %v", split, err)
		}
		if _, err := b.Feed(faultinject.TriggerError[split:], nil); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("split %d: second half = %v, want ErrInjected", split, err)
		}
	}
}

// TestResetClearsTail: a half-marker before Reset must not combine with
// the other half after it.
func TestResetClearsTail(t *testing.T) {
	b := newWrapped(t, faultinject.Config{Triggers: true})
	if _, err := b.Feed(faultinject.TriggerError[:4], nil); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if _, err := b.Feed(faultinject.TriggerError[4:], nil); err != nil {
		t.Fatalf("Feed after Reset = %v, want nil (tail must clear)", err)
	}
}

// TestErrorRateIsDeterministic: same seed, same faults.
func TestErrorRateIsDeterministic(t *testing.T) {
	run := func() []int {
		b := newWrapped(t, faultinject.Config{Seed: 42, ErrorRate: 0.3})
		var failed []int
		for i := 0; i < 100; i++ {
			if _, err := b.Feed([]byte("if "), nil); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, c := run(), run()
	if len(a) == 0 {
		t.Fatal("30% error rate injected nothing in 100 feeds")
	}
	if len(a) != len(c) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same seed, different fault positions at %d: %d vs %d", i, a[i], c[i])
		}
	}
}

// TestSlowRateInjectsLatency bounds-checks the sleep path.
func TestSlowRateInjectsLatency(t *testing.T) {
	b := newWrapped(t, faultinject.Config{SlowRate: 1, Latency: time.Millisecond})
	start := time.Now()
	if _, err := b.Feed([]byte("if "), nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Fatalf("Feed took %v, want >= 1ms injected latency", d)
	}
}

type nullSink struct{ n int }

func (s *nullSink) Deliver(*runtime.Batch) error { return nil }
func (s *nullSink) Close() error                 { return nil }

func deliverAll(s runtime.Sink, b *runtime.Batch) (failures int, panicked bool) {
	for {
		err := func() (err error) {
			defer func() {
				if recover() != nil {
					panicked = true
					err = errors.New("panicked")
				}
			}()
			return s.Deliver(b)
		}()
		if err == nil {
			return
		}
		failures++
		if failures > 10 {
			return
		}
	}
}

func TestWrapSinkFailsPickedBatches(t *testing.T) {
	s := faultinject.WrapSink(&nullSink{}, faultinject.SinkConfig{FailEvery: 2, FailCount: 2})
	b1, b2, b3, b4 := &runtime.Batch{}, &runtime.Batch{}, &runtime.Batch{}, &runtime.Batch{}
	if f, _ := deliverAll(s, b1); f != 0 {
		t.Fatalf("batch 1: %d failures, want 0", f)
	}
	if f, _ := deliverAll(s, b2); f != 2 {
		t.Fatalf("batch 2: %d failures, want FailCount=2", f)
	}
	if f, _ := deliverAll(s, b3); f != 0 {
		t.Fatalf("batch 3: %d failures, want 0", f)
	}
	if f, _ := deliverAll(s, b4); f != 2 {
		t.Fatalf("batch 4: %d failures, want 2", f)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapSinkRetriesAreCountedOnce(t *testing.T) {
	// Re-delivering the SAME batch pointer after a failure must not
	// advance the batch counter: that is how the wrapper distinguishes
	// pipeline retries from new traffic. Once a delivery has succeeded the
	// pipeline recycles the batch, so the same pointer is then new traffic.
	s := faultinject.WrapSink(&nullSink{}, faultinject.SinkConfig{FailEvery: 2, FailCount: 1})
	b := &runtime.Batch{}
	for i := 0; i < 3; i++ {
		if f, _ := deliverAll(s, b); f != 0 { // odd batches: clean
			t.Fatalf("round %d, odd batch: %d failures, want 0", i, f)
		}
		// Even batches are picked: one failure, then the retry of the same
		// pointer goes through without being counted as a new batch.
		if f, _ := deliverAll(s, b); f != 1 {
			t.Fatalf("round %d, even batch: %d failures, want 1", i, f)
		}
	}
}

func TestWrapSinkPanics(t *testing.T) {
	s := faultinject.WrapSink(&nullSink{}, faultinject.SinkConfig{PanicEvery: 2})
	if _, p := deliverAll(s, &runtime.Batch{}); p {
		t.Fatal("batch 1 panicked, want clean")
	}
	f, p := deliverAll(s, &runtime.Batch{})
	if !p {
		t.Fatal("batch 2 did not panic")
	}
	if f != 1 {
		t.Fatalf("batch 2: %d failures, want 1 (the panic, then clean)", f)
	}
}

func TestWrapSinkCustomError(t *testing.T) {
	custom := errors.New("boom")
	s := faultinject.WrapSink(&nullSink{}, faultinject.SinkConfig{FailEvery: 1, FailCount: 1, Err: custom})
	if err := s.Deliver(&runtime.Batch{}); !errors.Is(err, custom) {
		t.Fatalf("Deliver = %v, want custom error", err)
	}
}

// TestWrappedBackendDelegates sanity-checks pass-through of the whole
// Backend surface, including Unwrap for invariant audits.
func TestWrappedBackendDelegates(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("if true then go else stop ")
	ref := stream.NewTagger(spec)
	want := ref.Tag(text)

	b := newWrapped(t, faultinject.Config{Triggers: true})
	got, err := b.Feed(text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = b.Close(got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wrapped backend: %d matches, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if c := b.Counters(); c.Bytes != int64(len(text)) {
		t.Fatalf("Counters().Bytes = %d, want %d", c.Bytes, len(text))
	}
	u, ok := b.(interface{ Unwrap() runtime.Backend })
	if !ok || u.Unwrap() == nil {
		t.Fatal("wrapped backend does not expose Unwrap")
	}
}
