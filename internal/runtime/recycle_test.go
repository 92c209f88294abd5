package runtime

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
)

// cycleLife counts what a shard did with the backends of one factory. All
// of it happens on the shard goroutine; read it after Pipeline.Close.
type cycleLife struct {
	made, resets int
	misuse       []string // each way a backend was used past its stream
}

func (l *cycleLife) factory() (Backend, error) {
	l.made++
	return &cycleBackend{life: l, open: true}, nil
}

// cycleBackend checks its own life: it opens when minted or Reset and
// closes at Close. A Feed or Close of a closed backend, or a Reset of an
// open one, would have it serve two live streams; a Reset after a fault
// would hand a suspect backend to a new stream. A chunk naming ERROR
// fails its Feed, and one naming CLOSEERR fails the stream's Close.
type cycleBackend struct {
	life                     *cycleLife
	open, faulted, closeFail bool
}

func (b *cycleBackend) Reset() {
	b.life.resets++
	if b.open || b.faulted {
		b.life.misuse = append(b.life.misuse, "Reset of an open or faulted backend")
	}
	b.open, b.closeFail = true, false
}

func (b *cycleBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if !b.open {
		b.life.misuse = append(b.life.misuse, "Feed of a closed backend")
	}
	if bytes.Contains(p, []byte("ERROR")) {
		b.faulted = true
		return out, errors.New("cycle backend: Feed fault")
	}
	b.closeFail = b.closeFail || bytes.Contains(p, []byte("CLOSEERR"))
	return out, nil
}

func (b *cycleBackend) Close(out []stream.Match) ([]stream.Match, error) {
	if !b.open {
		b.life.misuse = append(b.life.misuse, "Close of a closed backend")
	}
	b.open = false
	if b.closeFail {
		b.faulted = true
		return out, errors.New("cycle backend: Close error")
	}
	return out, nil
}

func (b *cycleBackend) Counters() Counters { return Counters{} }

// endSignal is a sink that announces each delivered EOS batch (its key,
// version and error), so a test can run streams one after another.
func endSignal(ended chan<- *Batch) Sink {
	return SinkFunc(func(b *Batch) error {
		if b.EOS {
			ended <- &Batch{Key: b.Key, Version: b.Version, Err: b.Err}
		}
		return nil
	})
}

// oneMessage sends msg as the whole of stream key and waits for its EOS.
func oneMessage(t *testing.T, p *Pipeline, ended <-chan *Batch, key string, msg []byte) *Batch {
	t.Helper()
	if err := p.Send(key, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseStream(key); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-ended:
		if b.Key != key {
			t.Fatalf("EOS for %q, want %q", b.Key, key)
		}
		return b
	case <-time.After(5 * time.Second):
		t.Fatalf("stream %q never ended", key)
	}
	return nil
}

// TestPipelineRecycleCounters runs one-message streams one at a time
// through one shard of a lazy table, so one runner serves them all. Its
// cache totals span its life; folding them whole at every end would count
// each byte again per stream, so the fold must take only what they gained:
// hits+misses is then every byte fed, the per-stream invariant
// stream.Runner.CacheStats documents.
func TestPipelineRecycleCounters(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	inner := testFactory(t, spec, Limits{})
	made := 0
	var mc MetricCounters
	ended := make(chan *Batch, 1)
	p, err := NewPipeline(Config{Shards: 1, Metrics: &mc, Factory: func() (Backend, error) {
		made++
		return inner()
	}}, endSignal(ended))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("<methodCall> <methodName>deposit</methodName> <params> <param> <i4>7</i4> </param> </params> </methodCall>\n")
	const streams = 200
	for i := 0; i < streams; i++ {
		oneMessage(t, p, ended, "s", msg)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if made != 1 {
		t.Fatalf("%d backends made for %d streams run one at a time, want 1 recycled for all", made, streams)
	}
	c, _ := mc.Snapshot()
	if want := int64(streams * len(msg)); c.Bytes != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes, want)
	}
	if c.CacheHits+c.CacheMisses != c.Bytes {
		t.Errorf("CacheHits %d + CacheMisses %d = %d, want Bytes %d: a recycled runner's totals were folded more than once",
			c.CacheHits, c.CacheMisses, c.CacheHits+c.CacheMisses, c.Bytes)
	}
}

// TestPipelineRecycleVersions: the free list holds one version's
// backends. After SwapFactory a new stream is minted by the new factory,
// never popped from the old version's list — that backend closes over the
// old version's table and sink — and the old version still retires once
// its streams are out. The new version's ended streams are recycled in
// turn.
func TestPipelineRecycleVersions(t *testing.T) {
	var v1, v2 cycleLife
	ended := make(chan *Batch, 1)
	sink := endSignal(ended)
	p, err := NewPipeline(Config{Shards: 1, Factory: v1.factory}, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		if b := oneMessage(t, p, ended, key, []byte("old")); b.Version != 1 {
			t.Fatalf("%q ended on version %d, want 1", key, b.Version)
		}
	}
	if _, err := p.SwapFactory(v2.factory, sink); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"d", "e"} {
		if b := oneMessage(t, p, ended, key, []byte("new")); b.Version != 2 {
			t.Fatalf("%q ended on version %d, want 2", key, b.Version)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !reflect.DeepEqual(p.LiveVersions(), []int{2}) {
		if time.Now().After(deadline) {
			t.Fatalf("LiveVersions = %v, want [2] once version 1's streams are out", p.LiveVersions())
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if v1.made != 1 || v1.resets != 2 {
		t.Errorf("version 1: %d made, %d reset, want 1 backend serving its 3 streams", v1.made, v1.resets)
	}
	if v2.made != 1 || v2.resets != 1 {
		t.Errorf("version 2: %d made, %d reset, want a fresh backend for its first stream, recycled for its second", v2.made, v2.resets)
	}
	if m := append(v1.misuse, v2.misuse...); len(m) > 0 {
		t.Errorf("backends used past their stream: %v", m)
	}
}

// TestPipelineRecycleFaults: a stream whose Feed faulted and one whose
// Close returned an error both lose their backend — its state is suspect —
// so the streams after them are minted fresh; a clean end donates its
// backend to the next stream.
func TestPipelineRecycleFaults(t *testing.T) {
	var life cycleLife
	ended := make(chan *Batch, 1)
	p, err := NewPipeline(Config{Shards: 1, Factory: life.factory}, endSignal(ended))
	if err != nil {
		t.Fatal(err)
	}
	// A faulted Feed ends the stream by itself: no CloseStream.
	if err := p.Send("feed-fault", []byte("ERROR")); err != nil {
		t.Fatal(err)
	}
	if b := <-ended; b.Err == nil {
		t.Fatalf("%q ended with no error", b.Key)
	}
	if b := oneMessage(t, p, ended, "close-error", []byte("CLOSEERR")); b.Err == nil {
		t.Fatalf("%q ended with no error", b.Key)
	}
	oneMessage(t, p, ended, "clean-1", []byte("fine"))
	oneMessage(t, p, ended, "clean-2", []byte("fine"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if life.made != 3 || life.resets != 1 {
		t.Errorf("%d made, %d reset, want 3 made (feed-fault, close-error, clean-1) and clean-1's backend reset for clean-2",
			life.made, life.resets)
	}
	if len(life.misuse) > 0 {
		t.Errorf("backends used past their stream: %v", life.misuse)
	}
}
