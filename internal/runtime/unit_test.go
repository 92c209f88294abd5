package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
)

// liveHeap reports the heap still reachable after a collection.
func liveHeap() int64 {
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPipelineQueueFootprint parks 4 MiB of one-KiB chunks that confirm
// nothing behind a blocked sink and checks that queue memory follows the
// queued bytes: the gauge — and the heap it estimates — stay within twice
// the bytes queued plus one unit's retention. (Starved shards flush units
// holding a single chunk until the sink queue fills, hence the factor.)
// A match buffer parked behind every chunk would be 16× the bytes queued.
func TestPipelineQueueFootprint(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	const chunks, keys, chunkLen = 4096, 8, 1024
	mem := &MemGauge{}
	blocked, release := make(chan struct{}), make(chan struct{})
	first := true // sink-goroutine state
	sink := SinkFunc(func(b *Batch) error {
		if first {
			first = false
			close(blocked)
			<-release
		}
		if len(b.Tags) != 0 {
			return PermanentError(fmt.Errorf("%s: blank chunk confirmed %d tags", b.Key, len(b.Tags)))
		}
		return nil
	})
	before := liveHeap()
	p, err := NewPipeline(Config{Shards: 2, Factory: testFactory(t, spec, Limits{}), Mem: mem}, sink)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte(" "), chunkLen)
	for i := 0; i < chunks; i++ {
		if err := p.Send(fmt.Sprintf("k%d", i%keys), chunk); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-blocked
		}
	}
	const queued = chunks * chunkLen
	const bound = 2*queued + maxPooledBufCap + matchBytes*maxPooledTagCap
	gauge := mem.Load()
	if gauge < queued || gauge > bound {
		t.Errorf("gauge reads %d bytes with %d queued, want within [%d, %d]", gauge, queued, queued, bound)
	}
	if heap := liveHeap() - before; heap > bound {
		t.Errorf("live heap grew %d bytes with %d queued (gauge %d), want <= %d", heap, queued, gauge, bound)
	}
	close(release)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Load(); got != 0 {
		t.Errorf("gauge reads %d after Close, want 0", got)
	}
}

// gateFirst wraps inner so that the first shards backends minted block in
// their first Feed until gate closes, each signalling started — the lever
// that lets a test coalesce a known run of messages into one unit. When
// each shard's first message carries data, that is one backend per shard:
// a shard blocked in its first Feed mints nothing more.
func gateFirst(inner Factory, shards int, started chan<- struct{}, gate <-chan struct{}) Factory {
	var minted atomic.Int64
	return func() (Backend, error) {
		b, err := inner()
		if err != nil || minted.Add(1) > int64(shards) {
			return b, err
		}
		return &gatedBackend{Backend: b, started: started, gate: gate}, nil
	}
}

type gatedBackend struct {
	Backend
	started chan<- struct{}
	gate    <-chan struct{}
	passed  bool
}

func (g *gatedBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if !g.passed {
		g.passed = true
		g.started <- struct{}{}
		<-g.gate
	}
	return g.Backend.Feed(p, out)
}

// shardKeys finds n stream keys per shard, named prefix + a number.
func shardKeys(p *Pipeline, prefix string, n int) [][]string {
	keys := make([][]string, len(p.shards))
	for i, short := 0, len(keys); short > 0; i++ {
		key := fmt.Sprintf("%s%d", prefix, i)
		if sh := p.shardFor(key); len(keys[sh]) < n {
			if keys[sh] = append(keys[sh], key); len(keys[sh]) == n {
				short--
			}
		}
	}
	return keys
}

// TestPipelineTagWindows builds, per shard, one unit whose tag buffer
// regrows mid-unit — a fresh buffer, many sparse chunks, then a dense one —
// and checks the windows cut at emit: every batch's Tags equal what a
// serial backend confirms for that chunk, the windows tile one array back
// to back (none was left pointing into an array the buffer outgrew), each
// is capped at its length, and a sink that scribbles over its window and
// appends to it cannot reach the next batch's.
func TestPipelineTagWindows(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	msg := "<methodCall> <methodName>buy</methodName> <params> <param> <i4>42</i4> </param> </params> </methodCall>\n"
	var text []byte
	for i := 0; i < 5; i++ {
		text = append(text, bytes.Repeat([]byte(" "), 70)...)
		text = append(text, msg...)
	}
	var chunks [][]byte
	for off := 0; off < len(text); off += 48 {
		chunks = append(chunks, text[off:min(off+48, len(text))])
	}
	chunks = append(chunks, bytes.Repeat([]byte(msg), 7)) // the dense one
	// What a serial run confirms per chunk, and at Close.
	var want [][]stream.Match
	ref, err := testFactory(t, spec, Limits{})()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range chunks {
		ms, _ := ref.Feed(c, nil)
		want = append(want, ms)
		total += len(ms)
	}
	flush, _ := ref.Close(nil)
	want = append(want, flush)
	if total < 100 || len(want[0]) != 0 {
		t.Fatalf("degenerate input: %d tags, %d in the first chunk", total, len(want[0]))
	}

	for _, batchBytes := range []int{0, 4096} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("batch-%d-workers-%d", batchBytes, workers), func(t *testing.T) {
				const shards = 2
				var mu sync.Mutex
				seen := make(map[string]int) // batches delivered per stream
				var tiled [shards]uintptr    // where the shard's next data window must start
				scribble := stream.Match{InstanceID: -7, End: -7}
				sink := SinkFunc(func(b *Batch) error {
					mu.Lock()
					i := seen[b.Key]
					seen[b.Key]++
					mu.Unlock()
					if b.Key[0] != 's' {
						return nil // gate and pad streams
					}
					if i >= len(want) {
						return PermanentError(fmt.Errorf("%s: batch %d past the stream's end", b.Key, i))
					}
					if len(b.Tags) != len(want[i]) || (len(b.Tags) > 0 && !reflect.DeepEqual(b.Tags, want[i])) {
						return PermanentError(fmt.Errorf("%s: batch %d carries %v, the serial run confirms %v", b.Key, i, b.Tags, want[i]))
					}
					if cap(b.Tags) != len(b.Tags) {
						return PermanentError(fmt.Errorf("%s: batch %d window has cap %d over len %d", b.Key, i, cap(b.Tags), len(b.Tags)))
					}
					if len(b.Tags) > 0 && i < len(chunks) {
						// The data batches of a shard's streams share one unit
						// and arrive in its order, on one worker.
						at := uintptr(unsafe.Pointer(&b.Tags[0]))
						if next := tiled[b.Shard]; next != 0 && at != next {
							return PermanentError(fmt.Errorf("%s: batch %d window does not start where the previous one ends", b.Key, i))
						}
						tiled[b.Shard] = at + uintptr(len(b.Tags))*matchBytes
					}
					for j := range b.Tags {
						b.Tags[j] = scribble
					}
					b.Tags = append(b.Tags, scribble, scribble)
					return nil
				})
				started, gate := make(chan struct{}, shards), make(chan struct{})
				p, err := NewPipeline(Config{
					Shards: shards, SinkWorkers: workers, BatchBytes: batchBytes,
					Factory: gateFirst(testFactory(t, spec, Limits{}), shards, started, gate),
				}, sink)
				if err != nil {
					t.Fatal(err)
				}
				// Per shard: a gated unit the shard blocks in, then a unit
				// that keeps the queue non-empty — everything sent after
				// them (two streams per shard) coalesces into one fresh unit.
				keys := shardKeys(p, "s", 2)
				for _, gatePad := range shardKeys(p, "g", 2) {
					if err := p.Send(gatePad[0], []byte(" ")); err != nil {
						t.Fatal(err)
					}
					<-started
					if err := p.Send(gatePad[1], []byte(" ")); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range chunks {
					for sh := range keys {
						for _, key := range keys[sh] {
							if err := p.Send(key, c); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for sh := range p.shards {
					s := p.shards[sh]
					s.pendMu.Lock()
					pend, queued := s.pend, len(s.in)
					s.pendMu.Unlock()
					if queued != 1 || pend == nil || len(pend.msgs) != 2*len(chunks) {
						t.Fatalf("shard %d: the streams did not coalesce into one pending unit (%d queued)", sh, queued)
					}
				}
				close(gate)
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				for sh := range keys {
					for _, key := range keys[sh] {
						if seen[key] != len(want) {
							t.Errorf("%s: %d batches delivered, want %d", key, seen[key], len(want))
						}
					}
				}
			})
		}
	}
}

// byteBackend accepts every Feed but "feed error" (refused) and "feed
// panic", adding the bytes of the Feeds it accepts to accepted. The first
// Feed of a gated backend waits for the gate, so the Sends behind it
// coalesce into shared units.
type byteBackend struct {
	accepted *atomic.Int64
	gate     chan struct{}
}

func (b *byteBackend) Reset()             {}
func (b *byteBackend) Counters() Counters { return Counters{} }
func (b *byteBackend) Close(out []stream.Match) ([]stream.Match, error) {
	return out, nil
}

func (b *byteBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if b.gate != nil {
		<-b.gate
		b.gate = nil
	}
	switch string(p) {
	case "feed error":
		return out, errFeed
	case "feed panic":
		panic("feed panic")
	}
	b.accepted.Add(int64(len(p)))
	return out, nil
}

// TestPipelineBytesCounted pins the byte count when bytes are counted per
// unit: clean, Feed-faulted, panicking and evicted streams share units on
// two shards capped at three live streams each, and after Close the
// pipeline's Bytes equal the bytes the backends accepted — no faulted or
// panicking Feed, no chunk dropped behind a quarantine, and every chunk of
// an evicted (and later reopened) stream.
func TestPipelineBytesCounted(t *testing.T) {
	var accepted atomic.Int64
	gate := make(chan struct{})
	var made atomic.Int64
	var mc MetricCounters
	p, err := NewPipeline(Config{
		Shards: 2, MaxStreams: 3, Quarantine: time.Hour, Metrics: &mc,
		Factory: func() (Backend, error) {
			b := &byteBackend{accepted: &accepted}
			if made.Add(1) <= 2 {
				b.gate = gate // the first streams hold their shards
			}
			return b, nil
		},
	}, SinkFunc(func(*Batch) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for k := 0; k < 16; k++ {
			key := fmt.Sprintf("k%02d", k)
			chunk := bytes.Repeat([]byte{'a' + byte(k)}, 1+17*k+round)
			switch {
			case round == 2 && k%5 == 1:
				chunk = []byte("feed error")
			case round == 3 && k%5 == 2:
				chunk = []byte("feed panic")
			}
			err := p.Send(key, chunk)
			if err != nil && !errors.Is(err, ErrQuarantined) {
				t.Fatal(err)
			}
		}
		if round == 0 {
			close(gate)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	f := mc.Faults()
	if f.StreamsEvicted == 0 || f.PanicsRecovered == 0 || f.StreamsQuarantined < 2 {
		t.Fatalf("mix not exercised: %+v", f)
	}
	c, _ := mc.Snapshot()
	if want := accepted.Load(); c.Bytes != want {
		t.Fatalf("Bytes = %d, backends accepted %d", c.Bytes, want)
	}
}
