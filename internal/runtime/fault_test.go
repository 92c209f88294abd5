package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
)

// fakeBackend is a content-triggered test backend: chunks containing
// "PANIC" panic, chunks containing "ERROR" fail, everything else is
// swallowed quietly.
type fakeBackend struct{}

func (f *fakeBackend) Reset() {}
func (f *fakeBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if bytes.Contains(p, []byte("PANIC")) {
		panic("fake backend exploded")
	}
	if bytes.Contains(p, []byte("ERROR")) {
		return out, errors.New("fake backend error")
	}
	return out, nil
}
func (f *fakeBackend) Close(out []stream.Match) ([]stream.Match, error) { return out, nil }
func (f *fakeBackend) Counters() Counters                               { return Counters{} }

func fakeFactory() (Backend, error) { return &fakeBackend{}, nil }

// sendUntilQuarantined polls Send until the key is rejected with
// ErrQuarantined (poisoning happens on the shard goroutine, so there is a
// window where Sends still enqueue and are discarded).
func sendUntilQuarantined(t *testing.T, p *Pipeline, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		err := p.Send(key, []byte("after the fault"))
		if errors.Is(err, ErrQuarantined) {
			return
		}
		if err != nil {
			t.Fatalf("Send(%q) = %v, want nil or ErrQuarantined", key, err)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stream %q never became quarantined", key)
}

func TestPipelinePanicIsolation(t *testing.T) {
	var mc MetricCounters
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, Factory: fakeFactory, Metrics: &mc}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("good", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("bad", []byte("xx PANIC xx")); err != nil {
		t.Fatal(err)
	}
	sendUntilQuarantined(t, p, "bad")
	if err := p.Send("good", []byte("world")); err != nil {
		t.Fatalf("healthy stream rejected after another stream's panic: %v", err)
	}
	if err := p.CloseStream("good"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close = %v (a backend panic must not fail the pipeline)", err)
	}

	if !sink.eos["bad"] {
		t.Error("panicking stream got no EOS batch")
	}
	if err := sink.errs["bad"]; !errors.Is(err, ErrBackendPanic) {
		t.Errorf("panicking stream Err = %v, want ErrBackendPanic", err)
	}
	if err := sink.errs["good"]; err != nil {
		t.Errorf("healthy stream Err = %v, want nil", err)
	}
	if !sink.eos["good"] {
		t.Error("healthy stream got no EOS batch")
	}
	f := mc.Faults()
	if f.PanicsRecovered == 0 {
		t.Error("no panics counted")
	}
	if f.StreamsQuarantined != 1 {
		t.Errorf("quarantined = %d, want 1", f.StreamsQuarantined)
	}
}

func TestPipelineFeedErrorQuarantines(t *testing.T) {
	var mc MetricCounters
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, Factory: fakeFactory, Metrics: &mc}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("bad", []byte("xx ERROR xx")); err != nil {
		t.Fatal(err)
	}
	sendUntilQuarantined(t, p, "bad")
	if err := p.CloseStream("bad"); !errors.Is(err, ErrQuarantined) {
		t.Errorf("CloseStream on quarantined key = %v, want ErrQuarantined", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.eos["bad"] {
		t.Error("failed stream got no EOS batch")
	}
	if sink.errs["bad"] == nil {
		t.Error("failed stream carries no error")
	}
	if f := mc.Faults(); f.StreamsQuarantined != 1 || f.PanicsRecovered != 0 {
		t.Errorf("faults = %+v, want exactly one quarantine and no panics", f)
	}
}

// verdictBackend fails its Close after a chunk containing "REJECT", the
// way an exact recognizer reports a non-sentence.
type verdictBackend struct {
	fakeBackend
	reject bool
}

var errVerdict = errors.New("not a sentence")

func (v *verdictBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	v.reject = v.reject || bytes.Contains(p, []byte("REJECT"))
	return out, nil
}

func (v *verdictBackend) Close(out []stream.Match) ([]stream.Match, error) {
	if v.reject {
		return out, errVerdict
	}
	return out, nil
}

// TestPipelineCloseErrorOnEOS pins where a backend's Close error goes: into
// Err of the stream's EOS batch, once — a verdict, not a fault, so nothing
// is quarantined and the stream next to it ends clean.
func TestPipelineCloseErrorOnEOS(t *testing.T) {
	var mc MetricCounters
	eos := make(map[string]int)
	errs := make(map[string][]error)
	sink := SinkFunc(func(b *Batch) error {
		if b.EOS {
			eos[b.Key]++
		}
		if b.Err != nil {
			errs[b.Key] = append(errs[b.Key], b.Err)
			if !b.EOS {
				t.Errorf("%s: Err %v on a batch that is not EOS", b.Key, b.Err)
			}
		}
		return nil
	})
	p, err := NewPipeline(Config{
		Shards:  2,
		Metrics: &mc,
		Factory: func() (Backend, error) { return &verdictBackend{}, nil },
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ key, data string }{{"good", "a sentence"}, {"bad", "xx REJECT xx"}, {"bad", "more"}} {
		if err := p.Send(s.key, []byte(s.data)); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"good", "bad"} {
		if err := p.CloseStream(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if eos["good"] != 1 || eos["bad"] != 1 {
		t.Errorf("EOS batches = %v, want one per stream", eos)
	}
	if len(errs["good"]) != 0 {
		t.Errorf("clean stream carries %v", errs["good"])
	}
	if got := errs["bad"]; len(got) != 1 || !errors.Is(got[0], errVerdict) {
		t.Errorf("rejected stream carries %v, want the Close error once", got)
	}
	if f := mc.Faults(); f.StreamsQuarantined != 0 || f.PanicsRecovered != 0 {
		t.Errorf("faults = %+v, want none: a Close verdict is not a fault", f)
	}
}

func TestPipelineQuarantineTTLExpires(t *testing.T) {
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, Factory: fakeFactory, Quarantine: 40 * time.Millisecond}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("s", []byte("ERROR")); err != nil {
		t.Fatal(err)
	}
	sendUntilQuarantined(t, p, "s")
	time.Sleep(60 * time.Millisecond)
	if err := p.Send("s", []byte("recovered traffic")); err != nil {
		t.Fatalf("Send after TTL expiry = %v, want nil", err)
	}
	if err := p.CloseStream("s"); err != nil {
		t.Fatalf("CloseStream after TTL expiry = %v, want nil", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The stream faulted once (error EOS) and then completed cleanly on a
	// fresh backend (clean EOS): the last word is the clean one.
	if err := sink.errs["s"]; err == nil {
		t.Error("first incarnation's error batch missing")
	}
	if !sink.eos["s"] {
		t.Error("no EOS after recovery")
	}
}

func TestPipelineQuarantineDisabled(t *testing.T) {
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, Factory: fakeFactory, Quarantine: -1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("s", []byte("ERROR")); err != nil {
		t.Fatal(err)
	}
	// With quarantining disabled the key must stay sendable: each fault
	// just retires that backend.
	for i := 0; i < 20; i++ {
		if err := p.Send("s", []byte("more")); err != nil {
			t.Fatalf("Send %d = %v, want nil with quarantine disabled", i, err)
		}
	}
	if err := p.CloseStream("s"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineEviction(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("if true then go else stop")
	var mc MetricCounters
	sink := newCollectSink()
	evicted := make(map[string]bool)
	p, err := NewPipeline(Config{Shards: 1, MaxStreams: 2, Factory: testFactory(t, spec, Limits{}), Metrics: &mc},
		SinkFunc(func(b *Batch) error {
			if b.Evicted {
				evicted[b.Key] = true
			}
			return sink.Deliver(b)
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c", "d"} {
		if err := p.Send(key, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Opening c evicted a (the least recently active), opening d evicted
	// b; c and d were flushed by Close.
	want := stream.NewTagger(spec).Tag(text)
	for _, key := range []string{"a", "b"} {
		if !sink.eos[key] {
			t.Errorf("evicted stream %s got no EOS batch", key)
		}
		if !evicted[key] {
			t.Errorf("stream %s not reported evicted", key)
		}
		if !reflect.DeepEqual(sink.tags[key], want) {
			t.Errorf("evicted stream %s tags = %v, want %v (eviction must flush)", key, sink.tags[key], want)
		}
	}
	for _, key := range []string{"c", "d"} {
		if evicted[key] {
			t.Errorf("stream %s evicted, want kept until Close", key)
		}
		if !reflect.DeepEqual(sink.tags[key], want) {
			t.Errorf("stream %s tags = %v, want %v", key, sink.tags[key], want)
		}
	}
	if f := mc.Faults(); f.StreamsEvicted != 2 {
		t.Errorf("evicted counter = %d, want 2", f.StreamsEvicted)
	}
}

func TestPipelineEvictedStreamNotQuarantined(t *testing.T) {
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, MaxStreams: 1, Factory: fakeFactory}, sink)
	if err != nil {
		t.Fatal(err)
	}
	p.Send("a", []byte("one"))
	p.Send("b", []byte("two")) // evicts a
	// An evicted stream is not poisoned: new traffic on the key opens a
	// fresh backend.
	if err := p.Send("a", []byte("back again")); err != nil {
		t.Fatalf("Send on evicted key = %v, want nil", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.eos["a"] || !sink.eos["b"] {
		t.Error("missing EOS batches")
	}
}

// countingSink fails the first failPer attempts of every batch, then
// succeeds — a transient sink the retry policy should absorb.
type countingSink struct {
	failPer   int
	attempts  map[*Batch]int
	delivered int
}

func (s *countingSink) Deliver(b *Batch) error {
	if s.attempts == nil {
		s.attempts = make(map[*Batch]int)
	}
	s.attempts[b]++
	if s.attempts[b] <= s.failPer {
		return fmt.Errorf("transient failure %d", s.attempts[b])
	}
	delete(s.attempts, b) // delivered: the address may carry a later batch
	s.delivered++
	return nil
}
func (s *countingSink) Close() error { return nil }

func TestPipelineSinkRetryAbsorbsTransientFailures(t *testing.T) {
	var mc MetricCounters
	sink := &countingSink{failPer: 2}
	p, err := NewPipeline(Config{
		Shards: 1, Factory: fakeFactory, Metrics: &mc,
		SinkAttempts: 3, SinkBackoff: 100 * time.Microsecond,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	p.Send("s", []byte("chunk one"))
	p.Send("s", []byte("chunk two"))
	p.CloseStream("s")
	if err := p.Close(); err != nil {
		t.Fatalf("Close = %v, want nil (failures were transient)", err)
	}
	if sink.delivered != 3 { // two data batches + EOS
		t.Errorf("delivered %d batches, want 3", sink.delivered)
	}
	f := mc.Faults()
	if f.SinkRetries != 6 {
		t.Errorf("sink retries = %d, want 6 (2 per batch)", f.SinkRetries)
	}
	if f.DeadLetters != 0 {
		t.Errorf("dead letters = %d, want 0", f.DeadLetters)
	}
	if p.Err() != nil {
		t.Errorf("Err() = %v, want nil", p.Err())
	}
}

func TestPipelineDeadLetterKeepsPipelineAlive(t *testing.T) {
	var mc MetricCounters
	var dead []string
	alwaysFail := SinkFunc(func(*Batch) error { return errors.New("down") })
	p, err := NewPipeline(Config{
		Shards: 1, Factory: fakeFactory, Metrics: &mc,
		SinkAttempts: 2, SinkBackoff: 100 * time.Microsecond,
		DeadLetter: func(b *Batch, err error) {
			if err == nil {
				panic("dead letter without error")
			}
			dead = append(dead, b.Key)
		},
	}, alwaysFail)
	if err != nil {
		t.Fatal(err)
	}
	p.Send("x", []byte("one"))
	p.Send("y", []byte("two"))
	p.CloseStream("x")
	p.CloseStream("y")
	if err := p.Close(); err != nil {
		t.Fatalf("Close = %v, want nil (dead-lettering keeps the sink non-fatal)", err)
	}
	if len(dead) != 4 { // 2 data + 2 EOS batches
		t.Errorf("dead-lettered %d batches, want 4 (got %v)", len(dead), dead)
	}
	if f := mc.Faults(); f.DeadLetters != 4 {
		t.Errorf("dead-letter counter = %d, want 4", f.DeadLetters)
	}
	if p.Err() != nil {
		t.Errorf("Err() = %v, want nil (no permanent failure)", p.Err())
	}
}

func TestPipelinePermanentSinkFailureFailsFast(t *testing.T) {
	var mc MetricCounters
	cause := errors.New("backend connection lost for good")
	sink := SinkFunc(func(*Batch) error { return PermanentError(cause) })
	p, err := NewPipeline(Config{Shards: 1, Factory: fakeFactory, Metrics: &mc}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("s", []byte("data")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(p.Err(), cause) {
		t.Fatalf("Err() = %v, want %v", p.Err(), cause)
	}
	if err := p.Send("s", []byte("more")); !errors.Is(err, cause) {
		t.Errorf("Send after permanent failure = %v, want the sink error", err)
	}
	if err := p.CloseStream("s"); !errors.Is(err, cause) {
		t.Errorf("CloseStream after permanent failure = %v, want the sink error", err)
	}
	if err := p.Close(); !errors.Is(err, cause) {
		t.Errorf("Close = %v, want the sink error", err)
	}
	if f := mc.Faults(); f.SinkRetries != 0 {
		t.Errorf("sink retries = %d, want 0 (permanent errors are not retried)", f.SinkRetries)
	}
}

func TestPipelineExhaustedRetriesWithoutDeadLetterFailSink(t *testing.T) {
	sinkErr := errors.New("still down")
	p, err := NewPipeline(Config{
		Shards: 1, Factory: fakeFactory,
		SinkAttempts: 2, SinkBackoff: 100 * time.Microsecond,
	}, SinkFunc(func(*Batch) error { return sinkErr }))
	if err != nil {
		t.Fatal(err)
	}
	p.Send("s", []byte("data"))
	deadline := time.Now().Add(5 * time.Second)
	for p.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := p.Err(); err != sinkErr {
		t.Fatalf("Err() = %v, want the raw sink error", err)
	}
	if err := p.Send("s", []byte("more")); !errors.Is(err, sinkErr) {
		t.Errorf("Send = %v, want the sink error", err)
	}
	if err := p.Close(); err != sinkErr {
		t.Errorf("Close = %v, want the raw sink error", err)
	}
}

func TestPipelineSinkPanicIsRetried(t *testing.T) {
	var mc MetricCounters
	first := true
	delivered := 0
	sink := SinkFunc(func(*Batch) error {
		if first {
			first = false
			panic("sink exploded once")
		}
		delivered++
		return nil
	})
	p, err := NewPipeline(Config{
		Shards: 1, Factory: fakeFactory,
		SinkBackoff: 100 * time.Microsecond, Metrics: &mc,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	p.Send("s", []byte("data"))
	p.CloseStream("s")
	if err := p.Close(); err != nil {
		t.Fatalf("Close = %v, want nil (one panic, then healthy)", err)
	}
	if delivered != 2 {
		t.Errorf("delivered %d batches, want 2", delivered)
	}
	f := mc.Faults()
	if f.PanicsRecovered != 1 {
		t.Errorf("panics recovered = %d, want 1", f.PanicsRecovered)
	}
	if f.SinkRetries != 1 {
		t.Errorf("sink retries = %d, want 1", f.SinkRetries)
	}
}

// TestPipelineFactoryErrorPath covers the Factory-error branch in
// shard.process: the stream's only batch is an error-carrying EOS, the
// key does not leak into the shard's stream table, and the key is
// poisoned so repeat traffic is rejected at dispatch.
func TestPipelineFactoryErrorPath(t *testing.T) {
	var mc MetricCounters
	factoryErr := errors.New("factory refused")
	factory := func() (Backend, error) { return nil, factoryErr }
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, Factory: factory, Metrics: &mc}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("s", []byte("some bytes")); err != nil {
		t.Fatal(err)
	}
	sendUntilQuarantined(t, p, "s")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.eos["s"] {
		t.Error("factory-error stream got no EOS batch")
	}
	if err := sink.errs["s"]; !errors.Is(err, factoryErr) {
		t.Errorf("stream Err = %v, want the factory error", err)
	}
	if n := len(p.shards[0].streams); n != 0 {
		t.Errorf("%d streams leaked in the shard table, want 0", n)
	}
	if l := p.shards[0].lru.Len(); l != 0 {
		t.Errorf("%d entries leaked in the recency list, want 0", l)
	}
	if f := mc.Faults(); f.StreamsQuarantined == 0 {
		t.Error("factory failure did not quarantine the key")
	}
}

func TestPipelineBufferPoolDropsOversizedChunks(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, Factory: fakeFactory}, SinkFunc(func(*Batch) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A unit comes back from the pool with its arena and tag buffer still
	// attached… (sync.Pool drops Puts at random under the race detector,
	// so give the round trip a few attempts)
	recycled := false
	for i := 0; i < 50 && !recycled; i++ {
		u := p.getUnit()
		u.data = make([]byte, 0, 777)
		u.tags = make([]stream.Match, 0, 333)
		p.putUnit(u)
		v := p.getUnit()
		recycled = cap(v.data) == 777 && cap(v.tags) == 333
	}
	if !recycled {
		t.Error("a unit's buffers never came back through the pool")
	}
	// …a full dense unit's tag buffer is within the bound…
	u := p.getUnit()
	u.data = make([]byte, 0, maxPooledBufCap)
	u.tags = make([]stream.Match, 0, maxPooledTagCap)
	p.putUnit(u)
	if cap(u.data) != maxPooledBufCap || cap(u.tags) != maxPooledTagCap {
		t.Errorf("buffers at the retention bounds were dropped (arena cap %d, tags cap %d)", cap(u.data), cap(u.tags))
	}
	// …while oversized ones are dropped for the GC instead of pinning
	// multi-megabyte capacity in the pool forever.
	u = p.getUnit()
	u.data = make([]byte, 0, maxPooledBufCap+1)
	u.tags = make([]stream.Match, 0, maxPooledTagCap+1)
	p.putUnit(u)
	if u.data != nil || u.tags != nil {
		t.Errorf("oversized buffers were pooled (arena cap %d, tags cap %d)", cap(u.data), cap(u.tags))
	}
}
