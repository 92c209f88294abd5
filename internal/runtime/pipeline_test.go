package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/xmlrpc"
)

// collectSink gathers per-stream tags and bytes; Deliver runs on the sink
// goroutine, so no locking is needed until the pipeline is closed.
type collectSink struct {
	tags   map[string][]stream.Match
	data   map[string][]byte
	eos    map[string]bool
	errs   map[string]error
	closed bool
}

func newCollectSink() *collectSink {
	return &collectSink{
		tags: make(map[string][]stream.Match),
		data: make(map[string][]byte),
		eos:  make(map[string]bool),
		errs: make(map[string]error),
	}
}

func (s *collectSink) Deliver(b *Batch) error {
	s.tags[b.Key] = append(s.tags[b.Key], b.Tags...)
	s.data[b.Key] = append(s.data[b.Key], b.Data...) // Data is pooled: copy
	if b.EOS {
		s.eos[b.Key] = true
	}
	if b.Err != nil {
		s.errs[b.Key] = b.Err
	}
	return nil
}

func (s *collectSink) Close() error {
	s.closed = true
	return nil
}

func TestPipelineTagsManyStreams(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 4, Factory: testFactory(t, spec, FactoryOptions{})}, sink)
	if err != nil {
		t.Fatal(err)
	}

	// 10 independent streams, interleaved chunk by chunk.
	const streams = 10
	texts := make([][]byte, streams)
	for i := range texts {
		gen := xmlrpc.NewGenerator(int64(i+1), xmlrpc.Options{})
		corpus, _ := gen.Corpus(3)
		texts[i] = []byte(corpus)
	}
	for off := 0; ; off++ {
		sent := false
		for i, text := range texts {
			lo, hi := off*17, (off+1)*17
			if lo >= len(text) {
				continue
			}
			if hi > len(text) {
				hi = len(text)
			}
			if err := p.Send(fmt.Sprintf("stream-%d", i), text[lo:hi]); err != nil {
				t.Fatal(err)
			}
			sent = true
		}
		if !sent {
			break
		}
	}
	for i := range texts {
		if err := p.CloseStream(fmt.Sprintf("stream-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Error("sink not closed")
	}

	// Every stream's batches must reassemble its exact input and carry the
	// same tags a standalone tagger finds.
	ref := stream.NewTagger(spec)
	for i, text := range texts {
		key := fmt.Sprintf("stream-%d", i)
		if !sink.eos[key] {
			t.Errorf("%s: no EOS batch", key)
		}
		if err := sink.errs[key]; err != nil {
			t.Errorf("%s: backend error: %v", key, err)
		}
		if !reflect.DeepEqual(sink.data[key], text) {
			t.Errorf("%s: reassembled bytes differ from input", key)
		}
		want := ref.Tag(text)
		if !reflect.DeepEqual(sink.tags[key], want) {
			t.Errorf("%s: tags = %v\nwant %v", key, sink.tags[key], want)
		}
	}
}

func TestPipelineStreamAffinity(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shardOf := make(map[string]map[int]bool)
	var mu sync.Mutex
	sink := SinkFunc(func(b *Batch) error {
		mu.Lock()
		defer mu.Unlock()
		if shardOf[b.Key] == nil {
			shardOf[b.Key] = make(map[int]bool)
		}
		shardOf[b.Key][b.Shard] = true
		return nil
	})
	p, err := NewPipeline(Config{Shards: 8, Factory: testFactory(t, spec, FactoryOptions{})}, sink)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		p.Send(key, []byte("if true then go"))
		p.Send(key, []byte(" else stop"))
		p.CloseStream(key)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for key, shards := range shardOf {
		if len(shards) != 1 {
			t.Errorf("stream %s visited %d shards, want 1", key, len(shards))
		}
	}
}

func TestPipelineCloseFlushesOpenStreams(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 2, Factory: testFactory(t, spec, FactoryOptions{})}, sink)
	if err != nil {
		t.Fatal(err)
	}
	p.Send("open", []byte("if true then go else stop"))
	// No CloseStream: pipeline Close must synthesize the EOS flush (the
	// final byte's detection is pending in the lookahead).
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.eos["open"] {
		t.Error("open stream was not flushed with EOS on pipeline Close")
	}
	want := stream.NewTagger(spec).Tag([]byte("if true then go else stop"))
	if !reflect.DeepEqual(sink.tags["open"], want) {
		t.Errorf("tags = %v, want %v", sink.tags["open"], want)
	}
}

func TestPipelineSendAfterClose(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(Config{Shards: 1, Factory: testFactory(t, spec, FactoryOptions{})}, SinkFunc(func(*Batch) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("x", []byte("go")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := p.CloseStream("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("CloseStream after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close = %v, want ErrClosed", err)
	}
}

// TestPipelineSendCloseRace hammers Send from many goroutines while the
// pipeline closes underneath them: every Send must either fully succeed
// (its bytes show up in delivered batches) or fail with ErrClosed —
// nothing in between, and nothing lost. Run under -race this also audits
// the dispatch/Close locking.
func TestPipelineSendCloseRace(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delivered := make(map[string]int) // stream key -> bytes delivered
	sink := SinkFunc(func(b *Batch) error {
		mu.Lock()
		delivered[b.Key] += len(b.Data)
		mu.Unlock()
		return nil
	})
	p, err := NewPipeline(Config{Shards: 4, Queue: 4, Factory: testFactory(t, spec, FactoryOptions{})}, sink)
	if err != nil {
		t.Fatal(err)
	}
	const senders = 8
	accepted := make([]int, senders) // bytes whose Send returned nil
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("s%d", g)
			chunk := []byte("if true then go else stop ")
			<-start
			for i := 0; i < 200; i++ {
				err := p.Send(key, chunk)
				if err == nil {
					accepted[g] += len(chunk)
				} else if !errors.Is(err, ErrClosed) {
					t.Errorf("sender %d: Send = %v, want nil or ErrClosed", g, err)
					return
				} else {
					return
				}
			}
		}(g)
	}
	close(start)
	p.Close() // races the senders by design
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for g := 0; g < senders; g++ {
		key := fmt.Sprintf("s%d", g)
		if delivered[key] != accepted[g] {
			t.Errorf("stream %s: %d bytes delivered, %d accepted by Send", key, delivered[key], accepted[g])
		}
	}
}

// TestPipelineOrderingUnderConcurrency checks per-stream batch order: with
// many streams fed from concurrent senders, each stream's delivered bytes
// must reassemble exactly in Send order, with EOS last. The sink copies
// Data (it is pooled and invalid after Deliver returns).
func TestPipelineOrderingUnderConcurrency(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	const streams = 16
	const chunks = 120
	type state struct {
		data     []byte
		eosSeen  bool
		afterEOS bool
	}
	got := make(map[string]*state)
	sink := SinkFunc(func(b *Batch) error {
		s := got[b.Key]
		if s == nil {
			s = &state{}
			got[b.Key] = s
		}
		if s.eosSeen {
			s.afterEOS = true
		}
		s.data = append(s.data, b.Data...)
		if b.EOS {
			s.eosSeen = true
		}
		return nil
	})
	p, err := NewPipeline(Config{Shards: 4, Queue: 8, Factory: testFactory(t, spec, FactoryOptions{})}, sink)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		key := fmt.Sprintf("s%d", g)
		var full []byte
		for i := 0; i < chunks; i++ {
			full = append(full, []byte(fmt.Sprintf("%s:%d;", key, i))...)
		}
		want[key] = full
		wg.Add(1)
		go func(key string, full []byte) {
			defer wg.Done()
			for off := 0; off < len(full); {
				n := 7
				if off+n > len(full) {
					n = len(full) - off
				}
				if err := p.Send(key, full[off:off+n]); err != nil {
					t.Errorf("%s: Send: %v", key, err)
					return
				}
				off += n
			}
			if err := p.CloseStream(key); err != nil {
				t.Errorf("%s: CloseStream: %v", key, err)
			}
		}(key, full)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for key, full := range want {
		s := got[key]
		if s == nil {
			t.Fatalf("stream %s: no batches delivered", key)
		}
		if !bytes.Equal(s.data, full) {
			t.Errorf("stream %s: batches out of order or corrupted (%d bytes vs %d sent)", key, len(s.data), len(full))
		}
		if !s.eosSeen {
			t.Errorf("stream %s: no EOS batch", key)
		}
		if s.afterEOS {
			t.Errorf("stream %s: batch delivered after EOS", key)
		}
	}
}

func TestPipelineConcurrentSenders(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	var mc MetricCounters
	total := 0
	sink := SinkFunc(func(b *Batch) error {
		total += len(b.Tags)
		return nil
	})
	p, err := NewPipeline(Config{Shards: 4, Queue: 8, Factory: testFactory(t, spec, FactoryOptions{}), Hooks: mc.Hooks()}, sink)
	if err != nil {
		t.Fatal(err)
	}
	gen := xmlrpc.NewGenerator(99, xmlrpc.Options{})
	msg, _ := gen.Message()
	var wg sync.WaitGroup
	const senders = 8
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			key := fmt.Sprintf("conn-%d", s)
			for i := 0; i < 20; i++ {
				if err := p.Send(key, []byte(msg+"\n")); err != nil {
					t.Error(err)
					return
				}
			}
			p.CloseStream(key)
		}(s)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Error("no tags delivered")
	}
	counters, maxDepth := mc.Snapshot()
	if counters.Matches != int64(total) {
		t.Errorf("hooks saw %d matches, sink saw %d", counters.Matches, total)
	}
	if want := int64(senders * 20 * len(msg+"\n")); counters.Bytes != want {
		t.Errorf("hooks saw %d bytes, want %d", counters.Bytes, want)
	}
	if maxDepth == 0 {
		t.Log("queue depth high-water mark stayed 0 (fast consumer)")
	}
}

func TestPipelineSinkErrorPropagates(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := fmt.Errorf("sink exploded")
	p, err := NewPipeline(Config{Shards: 1, Factory: testFactory(t, spec, FactoryOptions{})}, SinkFunc(func(*Batch) error { return sinkErr }))
	if err != nil {
		t.Fatal(err)
	}
	p.Send("x", []byte("go"))
	p.CloseStream("x")
	if err := p.Close(); err != sinkErr {
		t.Errorf("Close error = %v, want %v", err, sinkErr)
	}
}

// TestPipelineIdleFlushDelivers checks a partially filled dispatch batch
// reaches the sink without further traffic or a close: the idle flusher
// must bound batching latency.
func TestPipelineIdleFlushDelivers(t *testing.T) {
	delivered := make(chan string, 16)
	sink := SinkFunc(func(b *Batch) error {
		delivered <- b.Key
		return nil
	})
	p, err := NewPipeline(Config{
		Shards:     1,
		Factory:    fakeFactory,
		BatchBytes: 1 << 20, // far above the chunk size: only idle can flush
		BatchIdle:  time.Millisecond,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Prime the shard queue so the enqueue-time "queue empty" flush does
	// not fire for the probe chunk.
	if err := p.Send("warm", []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("probe", []byte("idle-flushed chunk")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case key := <-delivered:
			if key == "probe" {
				return
			}
		case <-deadline:
			t.Fatal("idle flusher never delivered the pending batch")
		}
	}
}

// TestPipelineSinkWorkers runs multiple sink workers and checks the
// per-stream contract still holds: bytes reassemble exactly, tags equal a
// standalone run, EOS arrives last — with a Sink that must now be
// concurrency safe.
func TestPipelineSinkWorkers(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	data := make(map[string][]byte)
	tags := make(map[string][]stream.Match)
	eos := make(map[string]bool)
	sink := SinkFunc(func(b *Batch) error {
		mu.Lock()
		defer mu.Unlock()
		if eos[b.Key] {
			return fmt.Errorf("%s: batch after EOS", b.Key)
		}
		data[b.Key] = append(data[b.Key], b.Data...)
		tags[b.Key] = append(tags[b.Key], b.Tags...)
		if b.EOS {
			eos[b.Key] = true
		}
		return nil
	})
	p, err := NewPipeline(Config{
		Shards:      4,
		Factory:     testFactory(t, spec, FactoryOptions{}),
		SinkWorkers: 4,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}

	const streams = 12
	texts := make([][]byte, streams)
	for i := range texts {
		gen := xmlrpc.NewGenerator(int64(i+1), xmlrpc.Options{})
		corpus, _ := gen.Corpus(3)
		texts[i] = []byte(corpus)
	}
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("ws-%d", i)
			text := texts[i]
			for off := 0; off < len(text); off += 119 {
				hi := off + 119
				if hi > len(text) {
					hi = len(text)
				}
				if err := p.Send(key, text[off:hi]); err != nil {
					t.Errorf("%s: Send = %v", key, err)
					return
				}
			}
			if err := p.CloseStream(key); err != nil {
				t.Errorf("%s: CloseStream = %v", key, err)
			}
		}(i)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	ref := stream.NewTagger(spec)
	for i := range texts {
		key := fmt.Sprintf("ws-%d", i)
		if !eos[key] {
			t.Errorf("%s: no EOS batch", key)
		}
		if !bytes.Equal(data[key], texts[i]) {
			t.Errorf("%s: reassembled %d bytes, sent %d", key, len(data[key]), len(texts[i]))
		}
		if want := ref.Tag(texts[i]); !reflect.DeepEqual(tags[key], want) {
			t.Errorf("%s: tags diverge from standalone run (%d vs %d)", key, len(tags[key]), len(want))
		}
	}
}

// TestPipelineSteadyStateSendAllocs pins the allocation budget of the
// batched Send path: the dispatch unit is pooled with its arena, its
// batch slots and its tag buffer, so steady state costs nothing per
// message but amortized noise (the exact zero is pinned, without the race
// detector, by TestPipelineZeroTagRoundTripAllocs).
func TestPipelineSteadyStateSendAllocs(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(Config{
		Shards:  1,
		Factory: testFactory(t, spec, FactoryOptions{Kind: KindDFA}),
	}, SinkFunc(func(*Batch) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte(" "), 4096)
	// Warm the stream, its backend and the pools.
	for i := 0; i < 64; i++ {
		if err := p.Send("steady", chunk); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := p.Send("steady", chunk); err != nil {
			t.Fatal(err)
		}
	})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The bound leaves slack for pool misses after a GC (and the random
	// drops sync.Pool makes under the race detector), while still catching
	// any per-byte or per-tag regression.
	if avg > 6 {
		t.Errorf("steady-state Send averages %.1f allocs, want <= 6", avg)
	}
}

// TestPipelineBatchMore pins the Batch.More contract a buffering sink
// builds on: while a worker's queue holds further batches More is set, the
// batch that empties the queue has it unset, and so has the last batch
// each worker delivers before Close returns.
func TestPipelineBatchMore(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	const shards, perShard = 2, 6
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			type seen struct {
				key       string
				more, eos bool
			}
			var mu sync.Mutex
			got := make([][]seen, workers) // per worker, in delivery order
			blocked := make(chan int, workers)
			release := make(chan struct{})
			sink := SinkFunc(func(b *Batch) error {
				w := b.Shard % workers
				mu.Lock()
				first := len(got[w]) == 0
				got[w] = append(got[w], seen{b.Key, b.More, b.EOS})
				mu.Unlock()
				if first {
					blocked <- w
					<-release
				}
				return nil
			})
			// No dispatch coalescing: every Send is one group of one batch.
			p, err := NewPipeline(Config{Shards: shards, SinkWorkers: workers, BatchBytes: -1, Factory: testFactory(t, spec, FactoryOptions{})}, sink)
			if err != nil {
				t.Fatal(err)
			}
			keys := shardKeys(p, "k", perShard)
			// One batch per worker to block on, then the run behind it.
			for w := 0; w < workers; w++ {
				if err := p.Send(keys[w][0], []byte(" ")); err != nil {
					t.Fatal(err)
				}
				<-blocked
			}
			for sh := range keys {
				for _, key := range keys[sh][1:] {
					if err := p.Send(key, []byte(" ")); err != nil {
						t.Fatal(err)
					}
				}
			}
			queued := (perShard - 1) * shards / workers
			waitQueued := time.Now().Add(10 * time.Second)
			for w := 0; w < workers; w++ {
				for len(p.sinkChs[w]) < queued {
					if time.Now().After(waitQueued) {
						t.Fatalf("worker %d: %d groups queued, want %d", w, len(p.sinkChs[w]), queued)
					}
					time.Sleep(time.Millisecond)
				}
			}
			close(release)
			// Close flushes every open stream: one group of EOS batches per
			// shard, behind the queued run.
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			for w, run := range got {
				// The blocker's own More depends on what was queued when the
				// worker took it; everything after it is determined.
				run = run[1:]
				if len(run) < queued {
					t.Fatalf("worker %d delivered %d batches after the blocker, want at least %d", w, len(run), queued)
				}
				for i, b := range run[:queued-1] {
					if !b.more {
						t.Errorf("worker %d: batch %d (%s) of a queued run has More unset", w, i, b.key)
					}
				}
				if last := run[len(run)-1]; last.more || !last.eos {
					t.Errorf("worker %d: last batch before Close returned = %+v, want an EOS batch with More unset", w, last)
				}
				// Within the final groups only a group's last batch can end
				// a run.
				unset := 0
				for _, b := range run {
					if b.eos && !b.more {
						unset++
					}
				}
				if max := shards / workers; unset > max {
					t.Errorf("worker %d: %d EOS batches with More unset, want at most %d (one per final group)", w, unset, max)
				}
			}
		})
	}
}
