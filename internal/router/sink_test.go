package router

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/runtime"
	"cfgtag/internal/xmlrpc"
)

// streamFactory builds the stream-engine backend factory of spec.
func streamFactory(t *testing.T, spec *core.Spec) runtime.Factory {
	t.Helper()
	f, _, err := runtime.NewFactory(spec, runtime.FactoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sinkPipeline wires a Sink behind a sharded pipeline over the same spec,
// the way cmd/xmlrouter does in -shards mode.
func sinkPipeline(t *testing.T, shards int) (*runtime.Pipeline, *Sink) {
	t.Helper()
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(spec, "methodName", FigureTwelve(), 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runtime.NewPipeline(runtime.Config{Shards: shards, Factory: streamFactory(t, spec)}, sink)
	if err != nil {
		t.Fatal(err)
	}
	return p, sink
}

func TestSinkRoutesInterleavedStreams(t *testing.T) {
	p, sink := sinkPipeline(t, 4)
	type routedFrom struct {
		stream  string
		service string
		port    int
	}
	var got []routedFrom
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		got = append(got, routedFrom{stream, service, port})
	}

	// Three connections, each carrying its own message sequence, fed in
	// interleaved chunks so messages straddle batch boundaries.
	const conns = 3
	texts := make([][]byte, conns)
	wantSvc := make([][]string, conns)
	for i := range texts {
		gen := xmlrpc.NewGenerator(int64(100+i), xmlrpc.Options{})
		corpus, services := gen.Corpus(5)
		texts[i] = []byte(corpus)
		wantSvc[i] = services
	}
	for off := 0; ; off++ {
		sent := false
		for i, text := range texts {
			lo, hi := off*13, (off+1)*13
			if lo >= len(text) {
				continue
			}
			if hi > len(text) {
				hi = len(text)
			}
			if err := p.Send(fmt.Sprintf("conn-%d", i), text[lo:hi]); err != nil {
				t.Fatal(err)
			}
			sent = true
		}
		if !sent {
			break
		}
	}
	for i := range texts {
		p.CloseStream(fmt.Sprintf("conn-%d", i))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Per-stream order must match that stream's generated sequence.
	perStream := make(map[string][]routedFrom)
	for _, r := range got {
		perStream[r.stream] = append(perStream[r.stream], r)
	}
	for i := range texts {
		key := fmt.Sprintf("conn-%d", i)
		rs := perStream[key]
		if len(rs) != len(wantSvc[i]) {
			t.Fatalf("%s: routed %d messages, want %d", key, len(rs), len(wantSvc[i]))
		}
		for j, want := range wantSvc[i] {
			if rs[j].service != want {
				t.Errorf("%s message %d: service %q, want %q", key, j, rs[j].service, want)
			}
			if rs[j].port != xmlrpc.ServiceDestination(want) {
				t.Errorf("%s message %d: port %d, want %d", key, j, rs[j].port, xmlrpc.ServiceDestination(want))
			}
		}
	}
	st := sink.Stats()
	if want := conns * 5; st.Messages != want {
		t.Errorf("stats.Messages = %d, want %d", st.Messages, want)
	}
	if st.Unknown != 0 || st.Incomplete != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSinkCountsIncompleteStreams(t *testing.T) {
	p, sink := sinkPipeline(t, 2)
	p.Send("cut", []byte("<methodCall> <methodName>buy</methodName>"))
	p.CloseStream("cut")
	if err := p.Close(); err != nil {
		t.Fatalf("truncated stream failed the pipeline: %v", err)
	}
	st := sink.Stats()
	if st.Incomplete != 1 {
		t.Errorf("stats.Incomplete = %d, want 1", st.Incomplete)
	}
	if st.Messages != 0 {
		t.Errorf("stats.Messages = %d, want 0", st.Messages)
	}
}

func TestSinkValidationDivertsPerStream(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(spec, "methodName", FigureTwelve(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.EnableValidation(0, 66); err != nil {
		t.Fatal(err)
	}
	ports := make(map[string]int)
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		ports[stream] = port
	}
	p, err := runtime.NewPipeline(runtime.Config{Shards: 2, Factory: streamFactory(t, spec)}, sink)
	if err != nil {
		t.Fatal(err)
	}
	good := "<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>\n"
	// Inner struct closed, outer left open: the stack-less tagger accepts
	// it, the stack extension catches it (the recursion-collapse hole).
	bad := "<methodCall> <methodName>sell</methodName> <params> <param> " +
		"<struct> <member> <name>a</name> " +
		"<struct> <member> <name>b</name> <i4>1</i4> </member> </struct> " +
		"</param> </params> </methodCall>\n"
	p.Send("ok", []byte(good))
	p.Send("evil", []byte(bad))
	p.CloseStream("ok")
	p.CloseStream("evil")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if ports["ok"] != xmlrpc.ServiceDestination("buy") {
		t.Errorf("valid stream routed to %d", ports["ok"])
	}
	if ports["evil"] != 66 {
		t.Errorf("mis-nested stream routed to %d, want invalid port 66", ports["evil"])
	}
	if st := sink.Stats(); st.Invalid != 1 {
		t.Errorf("stats.Invalid = %d, want 1", st.Invalid)
	}
}

// routeOracle runs one stream of corpus through a fresh single-shard
// pipeline on spec and returns the routed service sequence — the reference
// for what that grammar version routes.
func routeOracle(t *testing.T, spec *core.Spec, corpus string) []string {
	t.Helper()
	sink, err := NewSink(spec, "methodName", FigureTwelve(), 9)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		got = append(got, service)
	}
	p, err := runtime.NewPipeline(runtime.Config{Shards: 1, Factory: streamFactory(t, spec)}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("oracle", []byte(corpus)); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseStream("oracle"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// seenSink wraps the router Sink to record which streams have had a batch
// delivered — the signal that a stream's entry exists and its factory
// version is bound.
type seenSink struct {
	*Sink
	mu   sync.Mutex
	keys map[string]bool
}

func (w *seenSink) Deliver(b *runtime.Batch) error {
	w.mu.Lock()
	w.keys[b.Key] = true
	w.mu.Unlock()
	return w.Sink.Deliver(b)
}

func (w *seenSink) seen(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.keys[key]
}

// TestSinkHotSwapVersions swaps the pipeline's grammar mid-run and checks
// the version-aware sink decodes every stream with the spec that tagged it:
// streams opened before the swap route exactly what the old grammar routes,
// streams opened after it what the new grammar routes, and the retired
// version's spec is dropped.
func TestSinkHotSwapVersions(t *testing.T) {
	specA, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	specB, err := core.Compile(grammar.XMLRPCFull(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := xmlrpc.NewGenerator(7, xmlrpc.Options{})
	corpus, _ := gen.Corpus(4)
	half := len(corpus) / 2
	// The two grammars genuinely route this corpus differently (the full
	// dialect resynchronizes past messages the figure 14 dialect accepts),
	// which is exactly what makes per-version decode observable.
	wantOld := routeOracle(t, specA, corpus)
	wantNew := routeOracle(t, specB, corpus)
	if reflect.DeepEqual(wantOld, wantNew) {
		t.Fatalf("oracles agree (%v); the swap would be unobservable", wantOld)
	}

	sink, err := NewSink(specA, "methodName", FigureTwelve(), 9)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	routed := make(map[string][]string)
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		mu.Lock()
		routed[stream] = append(routed[stream], service)
		mu.Unlock()
	}
	ws := &seenSink{Sink: sink, keys: make(map[string]bool)}
	p, err := runtime.NewPipeline(runtime.Config{
		Shards:         2,
		Factory:        streamFactory(t, specA),
		VersionRetired: sink.DropVersion,
	}, ws)
	if err != nil {
		t.Fatal(err)
	}

	// Old streams open before the swap; wait until each has a delivered
	// batch so its factory-version binding (v1) is committed.
	const n = 4
	for i := 0; i < n; i++ {
		if err := p.Send(fmt.Sprintf("old-%d", i), []byte(corpus[:half])); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		for !ws.seen(fmt.Sprintf("old-%d", i)) {
			if time.Now().After(deadline) {
				t.Fatal("old streams never delivered their first batch")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Hot-swap: stage the new spec, swap the factory, bind the id.
	if err := sink.StageVersion(specB); err != nil {
		t.Fatal(err)
	}
	v, err := p.SwapFactory(streamFactory(t, specB))
	if err != nil {
		t.Fatal(err)
	}
	sink.CommitVersion(v)
	if v != 2 {
		t.Fatalf("SwapFactory returned version %d, want 2", v)
	}

	// New streams bind the new version; old streams finish on the old one.
	for i := 0; i < n; i++ {
		nk := fmt.Sprintf("new-%d", i)
		if err := p.Send(nk, []byte(corpus)); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream(nk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ok := fmt.Sprintf("old-%d", i)
		if err := p.Send(ok, []byte(corpus[half:])); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream(ok); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if got := routed[fmt.Sprintf("old-%d", i)]; !reflect.DeepEqual(got, wantOld) {
			t.Errorf("old-%d routed %v, want old-grammar %v", i, got, wantOld)
		}
		if got := routed[fmt.Sprintf("new-%d", i)]; !reflect.DeepEqual(got, wantNew) {
			t.Errorf("new-%d routed %v, want new-grammar %v", i, got, wantNew)
		}
	}
	// The old version drained and retired, so its spec was dropped.
	sink.verMu.RLock()
	_, live1 := sink.versions[1]
	_, live2 := sink.versions[2]
	sink.verMu.RUnlock()
	if live1 {
		t.Error("version 1 spec not dropped after retirement")
	}
	if !live2 {
		t.Error("version 2 spec missing")
	}
}
