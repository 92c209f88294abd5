package runtime

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
)

func testSpec(t *testing.T, opts core.Options) *core.Spec {
	t.Helper()
	spec, err := core.Compile(grammar.XMLRPC(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRegistryRoutesTenantsIndependently runs two tenants with different
// grammars through one registry and checks each stream is tagged by its
// own tenant's grammar, with per-tenant metrics kept apart.
func TestRegistryRoutesTenantsIndependently(t *testing.T) {
	specA := testSpec(t, core.Options{FreeRunningStart: true})
	specB, err := core.Compile(grammar.IfThenElse(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	genA := workload.NewGenerator(specA, 5, workload.SentenceOptions{MaxDepth: 6})
	inputA, _ := genA.Sentence()
	inputB := []byte("if true then go else stop")

	r := NewRegistry()
	defer r.Close()
	sinkA, sinkB := newReloadSink(), newReloadSink()
	// Caller-owned hooks chain with the registry's internal metrics.
	var mcA, mcB MetricCounters
	if err := r.Add(Tenant{Name: "alpha", Config: Config{Shards: 2, Factory: testFactory(t, specA, FactoryOptions{Kind: KindDFA}), Hooks: mcA.Hooks()}}, sinkA); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Tenant{Name: "beta", Config: Config{Shards: 1, Factory: testFactory(t, specB, FactoryOptions{}), Hooks: mcB.Hooks()}}, sinkB); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Tenant{Name: "alpha", Config: Config{Factory: fakeFactory}}, sinkA); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate Add: %v, want ErrTenantExists", err)
	}
	if got := r.Tenants(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Tenants = %v", got)
	}

	const n = 8
	for i := 0; i < n; i++ {
		if err := r.Send("alpha", key("a", i), inputA); err != nil {
			t.Fatal(err)
		}
		if err := r.Send("beta", key("b", i), inputB); err != nil {
			t.Fatal(err)
		}
		if err := r.CloseStream("alpha", key("a", i)); err != nil {
			t.Fatal(err)
		}
		if err := r.CloseStream("beta", key("b", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Send("gamma", "x", inputA); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant Send: %v", err)
	}
	// The registry's own per-tenant counters, while the tenants live.
	ca, _, err := r.Counters("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Faults("alpha"); err != nil {
		t.Fatal(err)
	}
	_ = ca
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	wantA := stream.NewTagger(specA).Tag(inputA)
	wantB := stream.NewTagger(specB).Tag(inputB)
	for i := 0; i < n; i++ {
		if got := sinkA.tags[key("a", i)]; !reflect.DeepEqual(got, wantA) {
			t.Fatalf("alpha stream %d: tags %v, want %v", i, got, wantA)
		}
		if got := sinkB.tags[key("b", i)]; !reflect.DeepEqual(got, wantB) {
			t.Fatalf("beta stream %d: tags %v, want %v", i, got, wantB)
		}
	}
	// Post-Close totals come from the caller-owned chained hooks.
	ca, _ = mcA.Snapshot()
	cb, _ := mcB.Snapshot()
	if ca.Bytes != int64(n*len(inputA)) || cb.Bytes != int64(n*len(inputB)) {
		t.Fatalf("per-tenant bytes: alpha %d (want %d), beta %d (want %d)",
			ca.Bytes, n*len(inputA), cb.Bytes, n*len(inputB))
	}
	if ca.Matches == 0 || cb.Matches == 0 {
		t.Fatal("a tenant recorded no matches")
	}
}

func TestRegistryMaxStreamsQuota(t *testing.T) {
	spec := testSpec(t, core.Options{FreeRunningStart: true})
	r := NewRegistry()
	defer r.Close()
	sink := newReloadSink()
	err := r.Add(Tenant{
		Name:   "capped",
		Config: Config{Shards: 1, Factory: testFactory(t, spec, FactoryOptions{Kind: KindDFA})},
		Quota:  Quota{MaxStreams: 2},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Send("capped", "s1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Send("capped", "s2", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Existing streams keep flowing; a third stream is rejected.
	if err := r.Send("capped", "s1", []byte("y")); err != nil {
		t.Fatalf("existing stream rejected: %v", err)
	}
	if err := r.Send("capped", "s3", []byte("x")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Send: %v, want ErrQuotaExceeded", err)
	}
	if n, _ := r.LiveStreams("capped"); n != 2 {
		t.Fatalf("LiveStreams = %d, want 2", n)
	}
	// Ending a stream frees its slot once the EOS batch is delivered.
	if err := r.CloseStream("capped", "s1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.Send("capped", "s3", []byte("x")); err == nil {
			break
		} else if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after CloseStream")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegistryBytesPerSecQuota(t *testing.T) {
	spec := testSpec(t, core.Options{FreeRunningStart: true})
	r := NewRegistry()
	defer r.Close()
	err := r.Add(Tenant{
		Name:   "throttled",
		Config: Config{Shards: 1, Factory: testFactory(t, spec, FactoryOptions{Kind: KindDFA})},
		Quota:  Quota{BytesPerSec: 1024},
	}, newReloadSink())
	if err != nil {
		t.Fatal(err)
	}
	// The burst allows one second of rate up front; the next byte is shed.
	if err := r.Send("throttled", "s", make([]byte, 1024)); err != nil {
		t.Fatalf("burst Send rejected: %v", err)
	}
	if err := r.Send("throttled", "s", []byte("x")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-rate Send: %v, want ErrQuotaExceeded", err)
	}
	// Tokens refill with time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.Send("throttled", "s", []byte("x")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("token bucket never refilled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRegistrySwapAndRemove(t *testing.T) {
	specA := testSpec(t, core.Options{FreeRunningStart: true})
	specB, err := core.Compile(grammar.XMLRPCFull(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	sink := newReloadSink()
	if err := r.Add(Tenant{Name: "t", Config: Config{Shards: 2, Factory: testFactory(t, specA, FactoryOptions{Kind: KindDFA})}}, sink); err != nil {
		t.Fatal(err)
	}
	v, err := r.Swap("t", testFactory(t, specB, FactoryOptions{Kind: KindDFA}))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("Swap returned version %d, want 2", v)
	}
	p, err := r.Pipeline("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CurrentVersion(); got != 2 {
		t.Fatalf("CurrentVersion = %d, want 2", got)
	}
	if _, err := r.Swap("nope", fakeFactory); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Swap on unknown tenant: %v", err)
	}
	if err := r.Remove("t"); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("t"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("second Remove: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Tenant{Name: "late", Config: Config{Factory: fakeFactory}}, sink); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
}

func TestRegistryRejectsInvalidTenant(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	sink := newReloadSink()
	cases := []Tenant{
		{Name: "", Config: Config{Factory: fakeFactory}},
		{Name: "t", Config: Config{Factory: nil}},
		{Name: "t", Config: Config{Factory: fakeFactory, Shards: -1}},
		{Name: "t", Config: Config{Factory: fakeFactory}, Quota: Quota{MaxStreams: -1}},
		{Name: "t", Config: Config{Factory: fakeFactory}, Quota: Quota{BytesPerSec: -5}},
	}
	for i, tc := range cases {
		if err := r.Add(tc, sink); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("case %d: Add = %v, want ErrInvalidConfig", i, err)
		}
	}
	if got := r.Tenants(); len(got) != 0 {
		t.Fatalf("invalid tenants were registered: %v", got)
	}
}
