package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cfgtag/internal/stream"
)

// endStall is how long endBackend sleeps in a stalled call; endDeadline is
// the FeedDeadline the taxonomy pipelines run with.
const (
	endStall    = 60 * time.Millisecond
	endDeadline = 10 * time.Millisecond
)

// flushTag marks the match endBackend's Close confirms, so a test can tell
// whether a stream's Close flush reached the sink.
const flushTag = 7

var (
	errFeed      = errors.New("feed refused")
	errNoBackend = errors.New("factory refused")
	errSinkGone  = errors.New("sink gone")
)

// endBackend ends a stream whichever way its chunks ask: a Feed of
// "feed error", "feed panic", "feed budget" or "feed stall" faults that
// Feed, and any other chunk names what its Close will do ("close
// verdict", "close panic", "close budget", "close stall"; anything else
// closes clean). Each Feed confirms one data tag, each Close one flushTag.
type endBackend struct {
	closeMode string
	n         int64
}

func (b *endBackend) Reset()             {}
func (b *endBackend) Counters() Counters { return Counters{} }

func (b *endBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	b.n += int64(len(p))
	out = append(out, stream.Match{End: b.n - 1})
	switch s := string(p); s {
	case "feed error":
		return out, errFeed
	case "feed panic":
		panic("feed panic")
	case "feed budget":
		return out, fmt.Errorf("%w: feed", ErrResourceExhausted)
	case "feed stall":
		time.Sleep(endStall)
	default:
		b.closeMode = s
	}
	return out, nil
}

func (b *endBackend) Close(out []stream.Match) ([]stream.Match, error) {
	out = append(out, stream.Match{InstanceID: flushTag, End: b.n})
	switch b.closeMode {
	case "close verdict":
		return out, errVerdict
	case "close panic":
		panic("close panic")
	case "close budget":
		return out, fmt.Errorf("%w: close", ErrResourceExhausted)
	case "close stall":
		time.Sleep(endStall)
	}
	return out, nil
}

// endRec is what the sink saw of stream "k" up to and including its EOS
// batch. fail, when set, decides each Deliver attempt of k's batches
// first: an error fails the attempt, and the batch is not recorded.
type endRec struct {
	mu        sync.Mutex
	eosN      int
	evicted   bool
	err       error
	flushKept bool
	done      chan struct{} // closed at k's first EOS batch
	fail      func(b *Batch) error
}

func (r *endRec) Deliver(b *Batch) error {
	if b.Key != "k" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.eosN > 0 {
		return nil // a later incarnation of the key
	}
	if r.fail != nil {
		if err := r.fail(b); err != nil {
			return err
		}
	}
	for _, m := range b.Tags {
		r.flushKept = r.flushKept || m.InstanceID == flushTag
	}
	if b.EOS {
		r.eosN++
		r.evicted, r.err = b.Evicted, b.Err
		close(r.done)
	}
	return nil
}

func (r *endRec) Close() error { return nil }

// TestStreamEndTaxonomy is the end-cause table of DESIGN.md §6e and §6j,
// one row per way a stream can end. Each row checks the stream's final
// batch (EOS, Evicted, the Err sentinel), whether what its backend's Close
// flushed reached the sink, whether the key is quarantined afterwards, the
// FaultStats the end counted and the pipeline's Err. Whichever way it
// ends, the stream gives back its Quota.MaxStreams slot and its version
// binding, so no superseded version stays live.
func TestStreamEndTaxonomy(t *testing.T) {
	closeStream := func(p *Pipeline) error { return p.CloseStream("k") }
	failOnce := func() func(*Batch) error {
		failed := false
		return func(*Batch) error {
			if failed {
				return nil
			}
			failed = true
			return errors.New("sink down once")
		}
	}
	rows := []struct {
		name        string
		factoryErr  bool
		sink        func(b *Batch) error // endRec.fail
		chunk       string
		end         func(p *Pipeline) error // nil: the chunk itself ends the stream
		undelivered bool                    // the EOS batch never reaches the sink
		evicted     bool
		err         error // the Err sentinel; nil for a clean end
		flushKept   bool
		quarantined bool
		faults      FaultStats
		pipeErr     error // the pipeline's Err afterwards; nil for a live sink
	}{
		{name: "feed error", chunk: "feed error", err: errFeed, quarantined: true,
			faults: FaultStats{StreamsQuarantined: 1}},
		{name: "feed panic", chunk: "feed panic", err: ErrBackendPanic, quarantined: true,
			faults: FaultStats{PanicsRecovered: 1, StreamsQuarantined: 1}},
		{name: "feed budget", chunk: "feed budget", err: ErrResourceExhausted, quarantined: true,
			faults: FaultStats{StreamsQuarantined: 1, ResourceExhausted: 1}},
		{name: "feed stall", chunk: "feed stall", err: ErrBackendStalled, quarantined: true,
			faults: FaultStats{StreamsQuarantined: 1, WatchdogTrips: 1}},
		{name: "factory error", factoryErr: true, chunk: "data", err: errNoBackend, quarantined: true,
			faults: FaultStats{StreamsQuarantined: 1}},
		{name: "clean CloseStream", chunk: "data", end: closeStream, flushKept: true},
		{name: "close verdict", chunk: "close verdict", end: closeStream, err: errVerdict, flushKept: true},
		{name: "close panic", chunk: "close panic", end: closeStream, err: ErrBackendPanic, quarantined: true,
			faults: FaultStats{PanicsRecovered: 1, StreamsQuarantined: 1}},
		{name: "close budget", chunk: "close budget", end: closeStream, err: ErrResourceExhausted, flushKept: true, quarantined: true,
			faults: FaultStats{StreamsQuarantined: 1, ResourceExhausted: 1}},
		{name: "close stall", chunk: "close stall", end: closeStream, err: ErrBackendStalled, flushKept: true, quarantined: true,
			faults: FaultStats{StreamsQuarantined: 1, WatchdogTrips: 1}},
		{name: "eviction", chunk: "data", end: func(p *Pipeline) error { return p.Send("other", []byte("data")) },
			evicted: true, flushKept: true, faults: FaultStats{StreamsEvicted: 1}},
		{name: "pipeline Close", chunk: "data", end: func(p *Pipeline) error { return p.Close() }, flushKept: true},
		{name: "sink retry absorbed", sink: failOnce(), chunk: "data", end: closeStream, flushKept: true,
			faults: FaultStats{SinkRetries: 1}},
		{name: "sink permanent", chunk: "data", undelivered: true, pipeErr: errSinkGone,
			sink: func(b *Batch) error {
				if b.EOS {
					return PermanentError(errSinkGone)
				}
				return nil
			},
			end: func(p *Pipeline) error {
				// Once k's chunk is fed, k is bound to version 1:
				// supersede it, so the EOS batch's release retires it.
				for p.m.bytes.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				if _, err := p.SwapFactory(func() (Backend, error) { return &endBackend{}, nil }, &endRec{done: make(chan struct{})}); err != nil {
					return err
				}
				return p.CloseStream("k")
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var mc MetricCounters
			rec := &endRec{done: make(chan struct{}), fail: row.sink}
			p, err := NewPipeline(Config{
				Shards: 1, MaxStreams: 1, Quarantine: time.Hour, FeedDeadline: endDeadline, Metrics: &mc,
				Quota: Quota{MaxStreams: 2},
				Factory: func() (Backend, error) {
					if row.factoryErr {
						return nil, errNoBackend
					}
					return &endBackend{}, nil
				},
			}, rec)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := p.Send("k", []byte(row.chunk)); err != nil {
				t.Fatal(err)
			}
			if row.end != nil {
				if err := row.end(p); err != nil {
					t.Fatal(err)
				}
			}
			// The stream has ended once its slot is free: the sink worker
			// releases it, with the version binding, after the EOS batch
			// is out, delivered or not.
			kLive := func() bool {
				p.live.mu.Lock()
				defer p.live.mu.Unlock()
				_, ok := p.live.keys["k"]
				return ok
			}
			deadline := time.Now().Add(5 * time.Second)
			for kLive() {
				if time.Now().After(deadline) {
					t.Fatal("the stream never ended: its Quota.MaxStreams slot is still held")
				}
				time.Sleep(time.Millisecond)
			}
			faults := mc.Faults()
			if vs, cur := p.LiveVersions(), p.CurrentVersion(); len(vs) != 1 || vs[0] != cur {
				t.Errorf("live versions %v with version %d current: a superseded version was not retired", vs, cur)
			}
			if err := p.Err(); row.pipeErr == nil && err != nil || row.pipeErr != nil && !errors.Is(err, row.pipeErr) {
				t.Errorf("pipeline Err = %v, want %v", err, row.pipeErr)
			}
			// The next Send on the key answers whether it is quarantined;
			// once the row has closed the pipeline, the table does.
			err = p.Send("k", []byte("again"))
			closed := errors.Is(err, ErrClosed)
			if err != nil && !closed && !errors.Is(err, ErrQuarantined) && (row.pipeErr == nil || !errors.Is(err, row.pipeErr)) {
				t.Fatalf("next Send = %v", err)
			}
			quarantined := errors.Is(err, ErrQuarantined) || closed && p.shards[0].poisoned("k")

			rec.mu.Lock()
			defer rec.mu.Unlock()
			wantEOS := 1
			if row.undelivered {
				wantEOS = 0
			}
			if rec.eosN != wantEOS || rec.evicted != row.evicted {
				t.Errorf("EOS batches %d, Evicted %v; want %d and %v", rec.eosN, rec.evicted, wantEOS, row.evicted)
			}
			if row.err == nil && rec.err != nil || row.err != nil && !errors.Is(rec.err, row.err) {
				t.Errorf("Err = %v, want %v", rec.err, row.err)
			}
			if rec.flushKept != row.flushKept {
				t.Errorf("Close flush delivered = %v, want %v", rec.flushKept, row.flushKept)
			}
			if quarantined != row.quarantined {
				t.Errorf("key quarantined = %v, want %v", quarantined, row.quarantined)
			}
			if faults != row.faults {
				t.Errorf("FaultStats = %+v\nwant %+v", faults, row.faults)
			}
		})
	}

	testRefusals(t)
}

// refusedChunk is what a refusal row sends on k: 7 bytes, one past the
// rate row's burst, and never part of a setup's traffic.
const refusedChunk = "refused"

// refusalRec is what the sink saw in a refusal row. hook, when set, sees
// every batch first; an error fails the attempt.
type refusalRec struct {
	mu      sync.Mutex
	kEOS    int  // EOS batches of k
	carried bool // a batch carried the refused chunk
	hook    func(b *Batch) error
}

func (r *refusalRec) Deliver(b *Batch) error {
	if r.hook != nil {
		if err := r.hook(b); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.carried = r.carried || strings.Contains(string(b.Data), refusedChunk)
	if b.Key == "k" && b.EOS {
		r.kEOS++
	}
	return nil
}

func (r *refusalRec) Close() error { return nil }

func (r *refusalRec) eos() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kEOS
}

// refusalRow is one way the pipeline refuses a Send before it enqueues
// anything (DESIGN.md §6e and §6j).
type refusalRow struct {
	name   string
	cfg    func(c *Config, rec *refusalRec)
	setup  func(t *testing.T, p *Pipeline, rec *refusalRec) // brings the pipeline to refuse k
	after  func()                                           // runs after the refusal
	err    error                                            // the sentinel
	says   string                                           // in the refusal's text
	faults FaultStats
	bytes  int64 // the setup's accepted bytes: all the pipeline counts
	kEOS   int   // k's EOS batches, all from the setup
}

// testRefusals holds the refusal rows of TestStreamEndTaxonomy: each row
// sends k a chunk the pipeline must refuse, and checks the sentinel, the
// FaultStats, that the refusal took no Quota.MaxStreams slot, and, after
// Close, that no batch carried the chunk, k got no EOS batch beyond the
// setup's, and the pipeline counted only the setup's bytes.
func testRefusals(t *testing.T) {
	send := func(key string) func(*testing.T, *Pipeline, *refusalRec) {
		return func(t *testing.T, p *Pipeline, _ *refusalRec) {
			if err := p.Send(key, []byte("data")); err != nil {
				t.Fatal(err)
			}
		}
	}
	await := func(t *testing.T, what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never %s", what)
			}
		}
	}
	shedRow := func(name string, timeout time.Duration) refusalRow {
		started, gate := make(chan struct{}, 1), make(chan struct{})
		return refusalRow{name: name, err: ErrOverloaded, faults: FaultStats{SendsShed: 1}, bytes: 9,
			cfg: func(c *Config, _ *refusalRec) {
				c.Queue, c.BatchBytes, c.SendTimeout = 1, -1, timeout
				c.Factory = blockingFactory(started, gate)
			},
			setup: func(t *testing.T, p *Pipeline, _ *refusalRec) { fillShard(t, p, started) },
			after: func() { close(gate) }}
	}
	evictedHeld := func() refusalRow {
		held, release := make(chan struct{}), make(chan struct{})
		return refusalRow{name: "evicted key, EOS held in the sink", err: ErrQuarantined, says: "evicted",
			faults: FaultStats{StreamsEvicted: 1}, bytes: 8, kEOS: 1,
			cfg: func(c *Config, rec *refusalRec) {
				c.MaxStreams = 1
				rec.hook = func(b *Batch) error {
					if b.Key == "k" && b.Evicted {
						close(held)
						<-release
					}
					return nil
				}
			},
			setup: func(t *testing.T, p *Pipeline, rec *refusalRec) {
				send("k")(t, p, rec)
				send("other")(t, p, rec) // evicts k
				<-held
			},
			after: func() { close(release) }}
	}
	rows := []refusalRow{
		{name: "pipeline closed", err: ErrClosed,
			setup: func(t *testing.T, p *Pipeline, _ *refusalRec) { p.Close() }},
		{name: "sink failed", err: errSinkGone, bytes: 4,
			cfg: func(_ *Config, rec *refusalRec) {
				rec.hook = func(*Batch) error { return PermanentError(errSinkGone) }
			},
			setup: func(t *testing.T, p *Pipeline, rec *refusalRec) {
				send("other")(t, p, rec)
				await(t, "failed the sink", func() bool { return p.Err() != nil })
			}},
		{name: "quarantined key", err: ErrQuarantined, faults: FaultStats{StreamsQuarantined: 1}, kEOS: 1,
			setup: func(t *testing.T, p *Pipeline, rec *refusalRec) {
				if err := p.Send("k", []byte("feed error")); err != nil {
					t.Fatal(err)
				}
				await(t, "delivered k's fault batch", func() bool { return rec.eos() == 1 })
			}},
		evictedHeld(),
		{name: "quota rate", err: ErrQuotaExceeded,
			cfg: func(c *Config, _ *refusalRec) { c.Quota.BytesPerSec = int64(len(refusedChunk)) - 1 }},
		{name: "quota slots", err: ErrQuotaExceeded, bytes: 4,
			cfg:   func(c *Config, _ *refusalRec) { c.Quota.MaxStreams = 1 },
			setup: send("other")},
		{name: "memory budget", err: ErrResourceExhausted,
			cfg: func(c *Config, _ *refusalRec) {
				c.Mem = &MemGauge{}
				c.Mem.Add(1)
				c.Quota.MemBudgetBytes = 1
			}},
		shedRow("immediate shed", -1),
		shedRow("bounded-wait shed timed out", 20*time.Millisecond),
	}
	for _, row := range rows {
		t.Run("refused/"+row.name, func(t *testing.T) {
			var mc MetricCounters
			rec := &refusalRec{}
			cfg := Config{
				Shards: 1, Quarantine: time.Hour, Metrics: &mc, Quota: Quota{MaxStreams: 2},
				Factory: func() (Backend, error) { return &endBackend{}, nil },
			}
			if row.cfg != nil {
				row.cfg(&cfg, rec)
			}
			p, err := NewPipeline(cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if row.setup != nil {
				row.setup(t, p, rec)
			}
			live := p.LiveStreams()
			err = p.Send("k", []byte(refusedChunk))
			if !errors.Is(err, row.err) || !strings.Contains(fmt.Sprint(err), row.says) {
				t.Errorf("Send = %v, want %v saying %q", err, row.err, row.says)
			}
			if n := p.LiveStreams(); n != live {
				t.Errorf("live streams %d after the refusal, %d before: it took a slot", n, live)
			}
			if row.after != nil {
				row.after()
			}
			if err := p.Close(); err != nil && !errors.Is(err, row.err) {
				t.Fatalf("Close = %v", err)
			}
			if rec.carried {
				t.Error("a batch carried the refused chunk")
			}
			if rec.kEOS != row.kEOS {
				t.Errorf("k got %d EOS batches, want %d", rec.kEOS, row.kEOS)
			}
			if c, _ := mc.Snapshot(); c.Bytes != row.bytes {
				t.Errorf("Bytes = %d, want the setup's %d", c.Bytes, row.bytes)
			}
			if f := mc.Faults(); f != row.faults {
				t.Errorf("FaultStats = %+v\nwant %+v", f, row.faults)
			}
		})
	}
}

// TestPipelineClosePanicQuarantines pins DESIGN.md §6e for a backend whose
// Close panics: the panic is a fault wherever the Close runs — on
// CloseStream, on eviction and in the flush at pipeline Close — so the
// stream ends on an ErrBackendPanic EOS batch and its key is quarantined
// and counted.
func TestPipelineClosePanicQuarantines(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(p *Pipeline) error
	}{
		{"CloseStream", func(p *Pipeline) error { return p.CloseStream("k") }},
		{"eviction", func(p *Pipeline) error { return p.Send("other", []byte("data")) }},
		{"pipeline Close", func(p *Pipeline) error { return p.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mc MetricCounters
			rec := &endRec{done: make(chan struct{})}
			p, err := NewPipeline(Config{
				Shards: 1, MaxStreams: 1, Quarantine: time.Hour, Metrics: &mc,
				Factory: func() (Backend, error) { return &endBackend{}, nil },
			}, rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Send("k", []byte("close panic")); err != nil {
				t.Fatal(err)
			}
			if err := tc.end(p); err != nil {
				t.Fatal(err)
			}
			<-rec.done
			p.Close()
			if !errors.Is(rec.err, ErrBackendPanic) {
				t.Errorf("EOS Err = %v, want ErrBackendPanic", rec.err)
			}
			if !p.shards[0].poisoned("k") {
				t.Error("key not quarantined after its Close panicked")
			}
			if f := mc.Faults(); f.StreamsQuarantined != 1 || f.PanicsRecovered != 1 {
				t.Errorf("quarantined %d, panics %d; want 1 and 1", f.StreamsQuarantined, f.PanicsRecovered)
			}
		})
	}
}

// TestPipelineGoroutines pins the pipeline's goroutine budget: one per
// shard, one per sink worker, one watchdog when FeedDeadline is set, and
// none left once Close returns. An idle pipeline has nothing else to run.
func TestPipelineGoroutines(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: 3, SinkWorkers: 2},
		{Shards: 2},
		{Shards: 2, SinkWorkers: 2, FeedDeadline: time.Second},
	} {
		t.Run(fmt.Sprintf("shards=%d,workers=%d,deadline=%v", cfg.Shards, cfg.SinkWorkers, cfg.FeedDeadline), func(t *testing.T) {
			want := cfg.Shards + max(cfg.SinkWorkers, 1)
			if cfg.FeedDeadline > 0 {
				want++
			}
			cfg.Factory = fakeFactory
			// Goroutines of earlier tests may still be exiting: retry until
			// one construction is measured against a settled baseline.
			var added int
			for attempt := 0; attempt < 20; attempt++ {
				before := goruntime.NumGoroutine()
				p, err := NewPipeline(cfg, SinkFunc(func(*Batch) error { return nil }))
				if err != nil {
					t.Fatal(err)
				}
				added = goruntime.NumGoroutine() - before
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for goruntime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after Close, %d before NewPipeline", goruntime.NumGoroutine(), before)
					}
					time.Sleep(time.Millisecond)
				}
				if added == want {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Errorf("NewPipeline added %d goroutines, want %d", added, want)
		})
	}
}
