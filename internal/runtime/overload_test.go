package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
)

// blockingBackend blocks inside Feed on chunks containing "BLOCK" until its
// gate closes, signalling started on entry — the lever that fills a shard
// queue deterministically for the admission-control tests.
type blockingBackend struct {
	fakeBackend
	started chan struct{}
	gate    chan struct{}
}

func (g *blockingBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if bytes.Contains(p, []byte("BLOCK")) {
		select {
		case g.started <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return out, nil
}

func blockingFactory(started, gate chan struct{}) Factory {
	return func() (Backend, error) {
		return &blockingBackend{started: started, gate: gate}, nil
	}
}

// fillShard drives one shard into the shed state: the "busy" stream's
// Feed is blocking on the gate (queue drained), and one more message
// occupies the single queue slot.
func fillShard(t *testing.T, p *Pipeline, started chan struct{}) {
	t.Helper()
	if err := p.Send("busy", []byte("BLOCK")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never started blocking")
	}
	if err := p.Send("busy", []byte("fill")); err != nil {
		t.Fatalf("queue-filling Send = %v, want nil", err)
	}
}

func TestSendShedImmediate(t *testing.T) {
	var mc MetricCounters
	started, gate := make(chan struct{}, 1), make(chan struct{})
	sink := newCollectSink()
	p, err := NewPipeline(Config{
		Shards:      1,
		Queue:       1,
		BatchBytes:  -1, // dispatch every message: queue depth == messages
		SendTimeout: -1, // immediate shed
		Factory:     blockingFactory(started, gate),
		Metrics:     &mc,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	fillShard(t, p, started)

	// Queue is at the high watermark: the next Send must shed, typed and
	// without touching the victim stream.
	serr := p.Send("victim", []byte("shed me"))
	if !errors.Is(serr, ErrOverloaded) {
		t.Fatalf("Send over watermark = %v, want ErrOverloaded", serr)
	}
	if !strings.Contains(serr.Error(), `"victim"`) {
		t.Errorf("shed error %q does not name the rejected key", serr)
	}

	// EOS always blocks: CloseStream on the full queue waits instead of
	// shedding, and completes once the backend unblocks.
	closed := make(chan error, 1)
	go func() { closed <- p.CloseStream("busy") }()
	select {
	case err := <-closed:
		t.Fatalf("CloseStream returned %v while the queue was full, want it to block", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("CloseStream after drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CloseStream never completed after the backend unblocked")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	if f := mc.Faults(); f.SendsShed != 1 {
		t.Errorf("SendsShed = %d, want 1", f.SendsShed)
	}
	// A shed Send never creates the stream: no batch, no EOS.
	if sink.eos["victim"] {
		t.Error("shed stream produced an EOS batch")
	}
	if !sink.eos["busy"] || sink.errs["busy"] != nil {
		t.Errorf("surviving stream eos=%v err=%v, want clean EOS", sink.eos["busy"], sink.errs["busy"])
	}
}

func TestSendShedBoundedWait(t *testing.T) {
	var mc MetricCounters
	started, gate := make(chan struct{}, 1), make(chan struct{})
	sink := newCollectSink()
	p, err := NewPipeline(Config{
		Shards:      1,
		Queue:       1,
		BatchBytes:  -1,
		SendTimeout: 10 * time.Second, // bounded wait, generous for CI
		Factory:     blockingFactory(started, gate),
		Metrics:     &mc,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	fillShard(t, p, started)

	// Unblock the backend shortly; the waiting Send must wait on the
	// shard's space condition under pendMu until a slot frees, instead of
	// shedding.
	time.AfterFunc(30*time.Millisecond, func() { close(gate) })
	if err := p.Send("later", []byte("waited")); err != nil {
		t.Fatalf("bounded-wait Send = %v, want nil after drain", err)
	}
	for _, key := range []string{"busy", "later"} {
		if err := p.CloseStream(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if f := mc.Faults(); f.SendsShed != 0 {
		t.Errorf("SendsShed = %d, want 0 (the queue drained within SendTimeout)", f.SendsShed)
	}
	if !sink.eos["later"] || sink.errs["later"] != nil {
		t.Errorf("waited stream eos=%v err=%v, want clean EOS", sink.eos["later"], sink.errs["later"])
	}
}

// stallBackend sleeps through Feed on chunks containing "STALL",
// simulating a wedged backend for the watchdog.
type stallBackend struct {
	fakeBackend
	d time.Duration
}

func (s *stallBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if bytes.Contains(p, []byte("STALL")) {
		time.Sleep(s.d)
	}
	return out, nil
}

func TestWatchdogStalledFeed(t *testing.T) {
	var mc MetricCounters
	sink := newCollectSink()
	p, err := NewPipeline(Config{
		Shards:       1,
		FeedDeadline: 5 * time.Millisecond,
		Factory: func() (Backend, error) {
			return &stallBackend{d: 60 * time.Millisecond}, nil
		},
		Metrics: &mc,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("stuck", []byte("xx STALL xx")); err != nil {
		t.Fatal(err)
	}
	sendUntilQuarantined(t, p, "stuck")
	// The surviving stream keeps flowing on the same shard.
	if err := p.Send("fine", []byte("hello")); err != nil {
		t.Fatalf("healthy stream rejected after a stall: %v", err)
	}
	if err := p.CloseStream("fine"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	if !sink.eos["stuck"] {
		t.Error("stalled stream got no EOS batch")
	}
	if err := sink.errs["stuck"]; !errors.Is(err, ErrBackendStalled) {
		t.Errorf("stalled stream Err = %v, want ErrBackendStalled", err)
	} else if !strings.Contains(err.Error(), `: Feed on "stuck"`) {
		t.Errorf("stalled stream Err = %q, want it to name the overdue Feed", err)
	}
	if sink.errs["fine"] != nil || !sink.eos["fine"] {
		t.Errorf("healthy stream eos=%v err=%v, want clean EOS", sink.eos["fine"], sink.errs["fine"])
	}
	// One overdue call, one ErrBackendStalled batch.
	f := mc.Faults()
	if f.WatchdogTrips != 1 {
		t.Errorf("WatchdogTrips = %d, want 1", f.WatchdogTrips)
	}
	if f.StreamsQuarantined == 0 {
		t.Error("stalled stream was not quarantined")
	}
}

// xRunSpec compiles the grammar s : s s | "x" — the match-bomb workload:
// every byte of a run of x's is a token of its own, so one chunk confirms
// as many matches as it has bytes and a long enough chunk overruns any
// MaxPendingMatches.
func xRunSpec(t testing.TB) *core.Spec {
	t.Helper()
	g, err := grammar.Parse("amb", `
%%
s : s s | "x" ;
`)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.Compile(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBufferAndPendingBudgets(t *testing.T) {
	t.Run("tagger-pending", func(t *testing.T) {
		spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
		if err != nil {
			t.Fatal(err)
		}
		factory := testFactory(t, spec, Limits{MaxPendingMatches: 1})
		// One chunk carrying several matches overflows the pending bound
		// before the batch's drain.
		chunk := []byte("<methodCall><methodName>a</methodName></methodCall>")
		assertBudgetTrip(t, factory, chunk)
	})
}

// assertBudgetTrip sends one chunk expected to trip a per-stream budget
// and asserts the typed EOS, the quarantine and the fault counter.
func assertBudgetTrip(t *testing.T, factory Factory, chunk []byte) {
	t.Helper()
	var mc MetricCounters
	sink := newCollectSink()
	p, err := NewPipeline(Config{Shards: 1, Factory: factory, Metrics: &mc}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("hog", chunk); err != nil {
		t.Fatal(err)
	}
	sendUntilQuarantined(t, p, "hog")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.eos["hog"] {
		t.Fatal("budget-tripped stream got no EOS batch")
	}
	if err := sink.errs["hog"]; !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("budget-tripped stream Err = %v, want ErrResourceExhausted", err)
	}
	if f := mc.Faults(); f.ResourceExhausted != 1 {
		t.Fatalf("ResourceExhausted = %d, want 1", f.ResourceExhausted)
	}
}

// TestTenantMemBudget holds one dispatch unit in a blocked sink: its arena
// stays charged to the tenant's gauge, the tenant is over budget and new
// Sends are rejected until the sink lets go.
func TestTenantMemBudget(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	sink := SinkFunc(func(b *Batch) error {
		if b.Key == "big" && !b.EOS {
			entered <- struct{}{}
			<-gate
		}
		return nil
	})
	// No Config.Mem: NewPipeline installs the gauge the budget reads.
	p, err := NewPipeline(Config{
		Shards:  1,
		Factory: testFactory(t, spec, Limits{}),
		Quota:   Quota{MemBudgetBytes: 1024},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer openGate() // a failing test must not leave Close waiting on the sink

	// 4 KiB travel in a unit whose arena alone is over the 1 KiB budget;
	// while the sink sits on it the charge cannot be released.
	if err := p.Send("big", []byte(strings.Repeat("a", 4096))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the sink never received the batch")
	}
	if u := p.cfg.Mem.Load(); u < 4096 {
		t.Fatalf("memory with a unit held by the sink = %d; want at least its 4096-byte arena", u)
	}
	if err := p.Send("other", []byte("x")); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("Send over memory budget = %v, want ErrResourceExhausted", err)
	}

	// Releasing the sink recycles the unit; the gauge returns to zero and
	// admission recovers.
	openGate()
	deadline := time.Now().Add(5 * time.Second)
	for p.cfg.Mem.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tenant memory never drained to zero: %d bytes", p.cfg.Mem.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Send("other", []byte("x")); err != nil {
		t.Fatalf("Send after drain = %v, want nil", err)
	}
}

// TestQuarantineSweepBound churns unique faulted keys through the
// quarantine table and asserts the map is reaped: amortized sweeps keep
// it O(live) during churn, and the periodic sweep empties it at rest.
func TestQuarantineSweepBound(t *testing.T) {
	var mc MetricCounters
	p, err := NewPipeline(Config{
		Shards:     1,
		Quarantine: time.Millisecond,
		Factory:    fakeFactory,
		Metrics:    &mc,
	}, newCollectSink())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 400
	for i := 0; i < keys; i++ {
		if err := p.Send(fmt.Sprintf("bad-%d", i), []byte("ERROR")); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			// Let earlier entries expire so the shard's reaper timer has
			// something to reap.
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Wait for the shard to process (and poison) every faulted key.
	deadline := time.Now().Add(10 * time.Second)
	s := p.shards[0]
	for mc.Faults().StreamsQuarantined != keys {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d faulted keys processed", mc.Faults().StreamsQuarantined, keys)
		}
		time.Sleep(time.Millisecond)
	}
	s.quarMu.Lock()
	size := len(s.quar)
	s.quarMu.Unlock()
	if size >= keys {
		t.Fatalf("quarantine map holds %d entries after churning %d expiring keys; sweep is not bounding it", size, keys)
	}
	// At rest, the reaper timer must empty the table without any further
	// dispatch touching it.
	for s.quarN.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("quarantine table never drained: %d live entries", s.quarN.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// soakSink is a concurrency-safe collectSink for soaks running multiple
// sink workers.
type soakSink struct {
	mu   sync.Mutex
	data map[string][]byte
	tags map[string][]stream.Match
	eos  map[string]int
	errs map[string]error
}

func newSoakSink() *soakSink {
	return &soakSink{
		data: make(map[string][]byte),
		tags: make(map[string][]stream.Match),
		eos:  make(map[string]int),
		errs: make(map[string]error),
	}
}

func (s *soakSink) Deliver(b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[b.Key] = append(s.data[b.Key], b.Data...)
	s.tags[b.Key] = append(s.tags[b.Key], b.Tags...)
	if b.EOS {
		s.eos[b.Key]++
	}
	if b.Err != nil {
		s.errs[b.Key] = b.Err
	}
	return nil
}

func (s *soakSink) Close() error { return nil }

// stallWrapBackend injects a Feed stall on chunks containing '!' in front
// of a real backend.
type stallWrapBackend struct {
	Backend
	d time.Duration
}

func (s *stallWrapBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if bytes.Contains(p, []byte("!")) {
		time.Sleep(s.d)
	}
	return s.Backend.Feed(p, out)
}

// TestOverloadSoak is the overload chaos soak: hundreds to thousands of
// concurrent streams — short runs well inside the match budget, match
// bombs over it, wedged-backend stalls — pushed at a deliberately
// undersized pipeline in immediate-shed mode, with the sink failing each
// batch's first attempt for a window mid-run. It asserts that every
// overload intervention is typed, that surviving streams are byte- and
// tag-identical to a serial run of the same backend, that the memory
// gauge returns to zero, and that every FaultStats counter reconciles
// exactly with what the callers saw: the errors Send returned, the
// failures the sink injected and the batches it was handed.
func TestOverloadSoak(t *testing.T) {
	streams := 2400
	if testing.Short() {
		streams = 500
	}
	const (
		workers      = 8
		stallEvery   = 149 // ~0.7% of streams stall (each costs a FeedDeadline)
		advEvery     = 11  // ~9% match bombs
		feedDeadline = 100 * time.Millisecond
		stallFor     = 400 * time.Millisecond
	)

	spec := xRunSpec(t)
	mem := &MemGauge{}
	// Conforming streams confirm at most 3 matches per chunk, a bomb 19 in
	// its first.
	baseFactory, release, err := NewFactory(spec, Limits{MaxPendingMatches: 16, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (Backend, error) {
		b, err := baseFactory()
		if err != nil {
			return nil, err
		}
		return &stallWrapBackend{Backend: b, d: stallFor}, nil
	}

	// Every batch leaves through the sink (a failed first attempt is
	// retried once and then delivered, so no failure is permanent), so
	// tallying the errors the delivered batches carry gives the fault
	// counters an oracle that does not read them.
	var mc MetricCounters
	var outMu sync.Mutex
	var stalledN, exhaustedN, errEOSN int64
	tally := func(b *Batch) {
		outMu.Lock()
		defer outMu.Unlock()
		if errors.Is(b.Err, ErrBackendStalled) {
			stalledN++
		}
		if errors.Is(b.Err, ErrResourceExhausted) {
			exhaustedN++
		}
		if b.EOS && b.Err != nil {
			errEOSN++ // a faulted stream's last batch: one per quarantine
		}
	}

	// While down is set the sink fails each batch's first attempt: the
	// transient-sink window the retry absorbs. A batch is retried on its
	// worker before its unit is recycled, so its address names it until
	// it is delivered.
	var down atomic.Bool
	collect := newSoakSink()
	var failMu sync.Mutex
	failed := make(map[*Batch]bool)
	var injectedN int64
	sink := SinkFunc(func(b *Batch) error {
		failMu.Lock()
		retry := failed[b]
		delete(failed, b)
		if !retry && down.Load() {
			failed[b] = true
			injectedN++
			failMu.Unlock()
			return errors.New("sink wedged")
		}
		failMu.Unlock()
		tally(b)
		return collect.Deliver(b)
	})
	p, err := NewPipeline(Config{
		Shards:       4,
		Queue:        2,
		BatchBytes:   -1, // dispatch per message: shed pressure is real
		SendTimeout:  -1, // immediate shed at the high watermark
		FeedDeadline: feedDeadline,
		SinkWorkers:  2,
		SinkAttempts: 2,
		Quarantine:   time.Minute, // no expiry mid-soak: faulted keys stay dead
		Factory:      factory,
		Metrics:      &mc,
		Mem:          mem,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}

	type streamPlan struct {
		key    string
		chunks [][]byte
		kind   string // "ok", "adv", "stall"
	}
	plans := make([]streamPlan, streams)
	for i := range plans {
		sp := streamPlan{key: fmt.Sprintf("s-%d", i), kind: "ok"}
		switch {
		case i%stallEvery == stallEvery-1:
			sp.kind = "stall"
			sp.chunks = [][]byte{[]byte("!!!")}
		case i%advEvery == advEvery-1:
			sp.kind = "adv"
			x := strings.Repeat("x", 64)
			sp.chunks = [][]byte{[]byte(x[:20]), []byte(x[20:])}
		default:
			// 1..8 x's split into up to 3 chunks.
			x := strings.Repeat("x", 1+i%8)
			for len(x) > 0 {
				n := 1 + i%3
				if n > len(x) {
					n = len(x)
				}
				sp.chunks = append(sp.chunks, []byte(x[:n]))
				x = x[n:]
			}
		}
		plans[i] = sp
	}

	var (
		exclMu     sync.Mutex
		shedStream = make(map[string]bool) // lost ≥1 chunk to admission shed
		shedErrN   int64                   // ErrOverloaded returns observed at call sites
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(plans); i += workers {
				sp := plans[i]
				dead := false
				for _, chunk := range sp.chunks {
					// A shed rejects the whole chunk, never part of it, so
					// retrying the same chunk keeps the stream intact; only
					// a chunk still shed after the retries is dropped (and
					// the stream excluded from the oracle comparison).
					var err error
					for attempt := 0; attempt < 25; attempt++ {
						if err = p.Send(sp.key, chunk); !errors.Is(err, ErrOverloaded) {
							break
						}
						exclMu.Lock()
						shedErrN++
						exclMu.Unlock()
						time.Sleep(time.Millisecond)
					}
					switch {
					case err == nil:
					case errors.Is(err, ErrOverloaded):
						exclMu.Lock()
						shedStream[sp.key] = true
						exclMu.Unlock()
					case errors.Is(err, ErrQuarantined):
						dead = true
					default:
						t.Errorf("Send(%q) = %v", sp.key, err)
						dead = true
					}
					if dead {
						break
					}
				}
				if !dead {
					if err := p.CloseStream(sp.key); err != nil && !errors.Is(err, ErrQuarantined) {
						t.Errorf("CloseStream(%q) = %v", sp.key, err)
					}
				}
			}
		}(w)
	}

	// Fail first attempts for a window mid-run, then heal the sink. The
	// window lasts until some batches have failed (bounded), so the soak
	// always exercises the retry.
	time.Sleep(30 * time.Millisecond)
	down.Store(true)
	wedgeDeadline := time.Now().Add(5 * time.Second)
	for mc.Faults().SinkRetries < 8 && time.Now().Before(wedgeDeadline) {
		time.Sleep(time.Millisecond)
	}
	down.Store(false)

	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	release()

	// --- Liveness: every stream ended exactly once, shed streams aside.
	collect.mu.Lock()
	defer collect.mu.Unlock()
	for _, sp := range plans {
		if n := collect.eos[sp.key]; n != 1 {
			t.Fatalf("stream %q (%s): %d EOS batches, want exactly 1", sp.key, sp.kind, n)
		}
	}

	// --- Typed faults and serial-oracle conformance for untouched streams.
	serial := func(sp streamPlan) ([]stream.Match, error) {
		b, err := baseFactory()
		if err != nil {
			t.Fatal(err)
		}
		var ms []stream.Match
		for _, c := range sp.chunks {
			var ferr error
			if ms, ferr = b.Feed(c, ms); ferr != nil {
				return ms, ferr
			}
		}
		return b.Close(ms)
	}
	compared := 0
	for _, sp := range plans {
		if shedStream[sp.key] {
			continue // a chunk was deliberately dropped
		}
		got, gotErr := collect.tags[sp.key], collect.errs[sp.key]
		switch sp.kind {
		case "stall":
			if !errors.Is(gotErr, ErrBackendStalled) {
				t.Errorf("stalled stream %q Err = %v, want ErrBackendStalled", sp.key, gotErr)
			}
			continue
		case "adv":
			if !errors.Is(gotErr, ErrResourceExhausted) {
				t.Errorf("adversarial stream %q Err = %v, want ErrResourceExhausted", sp.key, gotErr)
			}
			if _, serr := serial(sp); !errors.Is(serr, ErrResourceExhausted) {
				t.Errorf("serial run of %q = %v, want the same ErrResourceExhausted", sp.key, serr)
			}
			continue
		}
		want, wantErr := serial(sp)
		if gotErr != nil || wantErr != nil {
			t.Errorf("conforming stream %q: pipeline err %v, serial err %v", sp.key, gotErr, wantErr)
			continue
		}
		var sent []byte
		for _, c := range sp.chunks {
			sent = append(sent, c...)
		}
		if !bytes.Equal(collect.data[sp.key], sent) {
			t.Errorf("stream %q: delivered %d bytes, sent %d — not byte-identical", sp.key, len(collect.data[sp.key]), len(sent))
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("stream %q: pipeline tags %v, serial oracle %v", sp.key, got, want)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("every conforming stream was shed; the soak compared nothing")
	}

	// --- Counter reconciliation against returned errors, injected sink
	// failures and delivered batches.
	f := mc.Faults()
	if f.SendsShed != shedErrN {
		t.Errorf("SendsShed = %d, ErrOverloaded returns %d", f.SendsShed, shedErrN)
	}
	if f.WatchdogTrips != stalledN {
		t.Errorf("WatchdogTrips = %d, ErrBackendStalled batches %d", f.WatchdogTrips, stalledN)
	}
	if f.ResourceExhausted != exhaustedN {
		t.Errorf("ResourceExhausted = %d, ErrResourceExhausted batches %d", f.ResourceExhausted, exhaustedN)
	}
	if f.StreamsQuarantined != errEOSN {
		t.Errorf("StreamsQuarantined = %d, error-carrying EOS batches %d", f.StreamsQuarantined, errEOSN)
	}
	// Each injected failure is retried exactly once.
	if f.SinkRetries != injectedN {
		t.Errorf("SinkRetries = %d, injected sink failures %d", f.SinkRetries, injectedN)
	}
	if injectedN == 0 {
		t.Error("no sink failures injected; the transient window never bit")
	}
	if f.ResourceExhausted == 0 {
		t.Error("no resource budgets tripped; the adversarial load never bit")
	}
	if f.WatchdogTrips == 0 {
		t.Error("no watchdog trips; the stall load never bit")
	}

	// --- Bounded memory: every gauge charge (arenas and tag buffers) was
	// discharged when its unit was recycled.
	if got := mem.Load(); got != 0 {
		t.Errorf("memory gauge = %d bytes after Close, want 0", got)
	}
}
