package router_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/router"
	"cfgtag/internal/stream"
	"cfgtag/internal/xmlrpc"
)

// sinkDeliver adapts sink to a cfgtag deliver callback: each batch is
// switched with the spec of the engine that tagged it.
func sinkDeliver(sink *router.Sink) func(*cfgtag.TagBatch) error {
	var ms []stream.Match
	return func(b *cfgtag.TagBatch) error {
		ms = ms[:0]
		for _, m := range b.Tags {
			ms = append(ms, stream.Match{InstanceID: m.InstanceID, End: m.End})
		}
		return sink.Deliver(b.Stream, b.Engine().Spec(), b.Data, ms, b.EOS)
	}
}

// newSink builds a figure 12 sink over src, compiled free-running.
func newSink(t *testing.T, src string) (*cfgtag.Engine, *router.Sink) {
	t.Helper()
	engine, err := cfgtag.Compile("xml", src, cfgtag.FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	sink, err := router.NewSink(engine.Spec(), "methodName", router.FigureTwelve(), 9)
	if err != nil {
		t.Fatal(err)
	}
	return engine, sink
}

// routeOracle runs one stream of corpus through a fresh single-shard
// pipeline on src and returns the routed service sequence — the reference
// for what that grammar routes.
func routeOracle(t *testing.T, src, corpus string) []string {
	t.Helper()
	engine, sink := newSink(t, src)
	var got []string
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		got = append(got, service)
	}
	p, err := engine.NewPipeline(cfgtag.PipelineConfig{Shards: 1}, sinkDeliver(sink))
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

// TestSinkHotSwapVersions reloads a platform tenant's grammar mid-run and
// checks the sink decodes every stream with the spec that tagged it:
// streams opened before the reload route exactly what the old grammar
// routes, streams opened after it what the new grammar routes, and the
// old version retires.
func TestSinkHotSwapVersions(t *testing.T) {
	gen := xmlrpc.NewGenerator(7, xmlrpc.Options{})
	corpus, _ := gen.Corpus(4)
	half := len(corpus) / 2
	// The two grammars genuinely route this corpus differently (the full
	// dialect resynchronizes past messages the figure 14 dialect accepts),
	// which is exactly what makes per-version decode observable.
	wantOld := routeOracle(t, cfgtag.XMLRPCSource, corpus)
	wantNew := routeOracle(t, cfgtag.XMLRPCFullSource, corpus)
	if reflect.DeepEqual(wantOld, wantNew) {
		t.Fatalf("oracles agree (%v); the swap would be unobservable", wantOld)
	}

	_, sink := newSink(t, cfgtag.XMLRPCSource)
	var mu sync.Mutex
	routed := make(map[string][]string)
	seen := make(map[string]bool)
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		mu.Lock()
		routed[stream] = append(routed[stream], service)
		mu.Unlock()
	}
	deliver := sinkDeliver(sink)
	p, err := cfgtag.NewPlatform(&cfgtag.PlatformConfig{Tenants: []cfgtag.TenantDef{{
		Name:    "xml",
		Grammar: cfgtag.XMLRPCSource,
		Options: []string{"free-running-start"},
		Shards:  2,
	}}}, func(_ string, b *cfgtag.TagBatch) error {
		mu.Lock()
		seen[b.Stream] = true
		mu.Unlock()
		return deliver(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Old streams open before the reload; wait until each has a delivered
	// batch so it provably runs version 1.
	const n = 4
	for i := 0; i < n; i++ {
		if err := p.Send("xml", fmt.Sprintf("old-%d", i), []byte(corpus[:half])); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		for {
			mu.Lock()
			ok := seen[fmt.Sprintf("old-%d", i)]
			mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("old streams never delivered their first batch")
			}
			time.Sleep(time.Millisecond)
		}
	}

	v, err := p.Reload("xml", cfgtag.XMLRPCFullSource)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("Reload returned version %d, want 2", v)
	}

	// New streams bind the new version; old streams finish on the old one.
	for i := 0; i < n; i++ {
		nk := fmt.Sprintf("new-%d", i)
		if err := p.Send("xml", nk, []byte(corpus)); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream("xml", nk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ok := fmt.Sprintf("old-%d", i)
		if err := p.Send("xml", ok, []byte(corpus[half:])); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream("xml", ok); err != nil {
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
	// The old version drained and retired.
	if lv, err := p.LiveVersions("xml"); err != nil || !reflect.DeepEqual(lv, []int{2}) {
		t.Errorf("LiveVersions = %v (%v), want [2]", lv, err)
	}
}
