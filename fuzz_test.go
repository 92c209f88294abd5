package cfgtag

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// FuzzGrammarParse throws arbitrary text at the grammar front end: parsing
// and compiling must reject garbage with an error, never a panic, and any
// source that does compile must yield an engine that can tag a probe
// stream through the NFA, the served table and a closed table.
//
// Seed corpus: testdata/fuzz/FuzzGrammarParse (plus the built-in grammars
// added here).
func FuzzGrammarParse(f *testing.F) {
	f.Add(BalancedParensSource)
	f.Add(IfThenElseSource)
	f.Add(XMLRPCSource)
	f.Add(XMLRPCFullSource)
	probe := []byte("if (true) then <methodCall>go</methodCall> 0 else stop")
	f.Fuzz(func(t *testing.T, src string) {
		engine, err := Compile("fuzz", src)
		if err != nil {
			return // rejecting is fine; panicking is the bug
		}
		stream.NewTagger(engine.Spec()).Tag(probe)
		tg := engine.NewTagger()
		tg.Write(probe)
		tg.Close()
		b, err := engine.NewBackend(DFABackend)
		if err != nil {
			t.Fatalf("compiled grammar has no table backend: %v", err)
		}
		b.Feed(probe)
		b.Close()
		b.Matches()
		// Closure may legitimately refuse a grammar whose table does not
		// close within the budget; refusing is fine, panicking is the bug.
		// A tiny budget keeps pathological fuzz grammars from spending the
		// whole run determinizing.
		if tbl, err := stream.Determinize(engine.Spec(), stream.TableConfig{MaxStates: 64}); err == nil {
			tbl.NewRunner().Tag(probe)
		}
	})
}

// differ is what the differential fuzzers drive: a runtime.Backend, or a
// table form only tests build, as a runnerForm.
type differ interface {
	Reset()
	Feed(p []byte, out []stream.Match) ([]stream.Match, error)
	Close(out []stream.Match) ([]stream.Match, error)
	Counters() runtime.Counters
}

// runnerForm drives a stream.Runner as a differ.
type runnerForm struct{ *stream.Runner }

func (r runnerForm) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	return r.Write(p, out)
}

func (r runnerForm) Close(out []stream.Match) ([]stream.Match, error) {
	return r.Runner.Close(out), nil
}

func (r runnerForm) Counters() runtime.Counters {
	return runtime.Counters{Recoveries: r.Errors, Collisions: r.Collisions}
}

// fsaForms are the table forms FuzzDifferential holds equal to the stream
// NFA: the served table as NewBackend mints it, and runners of the lazy
// table with a two-state bound that resets on real traffic and without
// skip-ahead, and of the table Determinize closes, with and without
// skip-ahead.
var fsaForms = []fsaForm{
	{name: "dfa", served: true},
	{name: "dfa-tiny", cfg: stream.TableConfig{MaxStates: 2}},
	{name: "dfa-noaccel", cfg: stream.TableConfig{NoAccel: true}},
	{name: "closed", closed: true},
	{name: "closed-noaccel", closed: true, cfg: stream.TableConfig{NoAccel: true}},
}

type fsaForm struct {
	name   string
	served bool // minted by NewBackend through runtime.NewFactory, as a pipeline mints it
	closed bool // filled to closure by Determinize
	cfg    stream.TableConfig
}

// mint builds the form over engine's spec; like mintBackend it keeps the
// rig's first failure in *rigErr.
func (form fsaForm) mint(engine *Engine, rigErr *error) differ {
	if form.served {
		return mintBackend(engine, DFABackend, rigErr)
	}
	spec := engine.Spec()
	if !form.closed {
		return runnerForm{stream.NewTable(spec, form.cfg).NewRunner()}
	}
	tbl, err := stream.Determinize(spec, form.cfg)
	if err != nil {
		*rigErr = err
		return nil
	}
	return runnerForm{tbl.NewRunner()}
}

// diffRig lazily builds the differential fuzz fixture over the
// free-running if-then-else grammar, reused (via Reset) across inputs: the
// stream reference, every fsaForm and the gate-level simulation, and the
// stream reference plus every fsaForm again under the recovery compile,
// whose dead-state/re-arm path random bytes exercise constantly.
type diffRig struct {
	stream, gates runtime.Backend
	forms         []differ // aligned with fsaForms
	recStream     runtime.Backend
	recForms      []differ
}

var (
	rigOnce sync.Once
	rig     diffRig
	rigErr  error
)

// mintBackend builds one backend of engine through Engine.NewBackend —
// the served table through runtime.NewFactory, a reference through
// oracle.NewFactory — and returns the runtime backend under the facade.
// The first failure of a rig is kept in *rigErr and stops further minting.
func mintBackend(engine *Engine, kind BackendKind, rigErr *error) runtime.Backend {
	if *rigErr != nil {
		return nil
	}
	b, err := engine.NewBackend(kind)
	if err != nil {
		*rigErr = err
		return nil
	}
	return b.inner
}

func buildRig() {
	for i, opts := range [][]Option{{FreeRunningStart()}, {FreeRunningStart(), RecoverResync()}} {
		engine, err := Compile("fuzz-diff", IfThenElseSource, opts...)
		if err != nil {
			rigErr = err
			return
		}
		ref := mintBackend(engine, StreamBackend, &rigErr)
		var forms []differ
		for _, form := range fsaForms {
			forms = append(forms, form.mint(engine, &rigErr))
		}
		if i == 0 {
			rig.stream, rig.forms = ref, forms
			rig.gates = mintBackend(engine, GatesBackend, &rigErr)
		} else {
			rig.recStream, rig.recForms = ref, forms
		}
	}
}

func runDiff(b differ, data []byte) []stream.Match {
	b.Reset()
	ms, _ := b.Feed(data, nil)
	ms, _ = b.Close(ms)
	return ms
}

// runDiffChunked is runDiff with the input split into random 1–9 byte
// chunks drawn from seed, so every chunk boundary — including ones that
// straddle the held-lookahead byte — is differentially exercised.
func runDiffChunked(b differ, data []byte, seed uint64) []stream.Match {
	b.Reset()
	rng := rand.New(rand.NewSource(int64(seed)))
	var ms []stream.Match
	for i := 0; i < len(data); {
		n := 1 + rng.Intn(9)
		if i+n > len(data) {
			n = len(data) - i
		}
		ms, _ = b.Feed(data[i:i+n], ms)
		i += n
	}
	ms, _ = b.Close(ms)
	return ms
}

// FuzzDifferential feeds arbitrary bytes to the stream NFA, every table
// form (fsaForms) and the gate-level simulation, and requires the exact
// same match sequence from all of them — each table form both whole-buffer
// and under a random chunking drawn from seed — plus recovery/collision
// counter agreement with the NFA under the recovery compile. The run-heavy
// seeds park the tables in accelerable states (long delimiter runs, long
// non-matching runs, long token-interior runs) so skip-ahead is exercised
// exactly where it fires.
//
// Seed corpus: testdata/fuzz/FuzzDifferential.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte("if true then go else stop"), uint64(1))
	f.Add([]byte("if tru# then go if false then stop else go"), uint64(7))
	f.Add([]byte{0, 255, 'i', 'f', ' ', 0xC3, 0x28}, uint64(3))
	// Accelerable-state seeds: delimiter runs, dead non-matching runs and
	// mid-token runs around real sentences.
	pad := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	rep := func(b byte, n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = b
		}
		return out
	}
	f.Add(pad(rep(' ', 600), []byte("if true then go"), rep(' ', 900), []byte("else stop"), rep(' ', 600)), uint64(13))
	f.Add(pad(rep('\n', 700), []byte("if true then go else stop"), rep('\t', 700)), uint64(17))
	f.Add(pad(rep('z', 800), []byte(" if true then go else stop "), rep('z', 800)), uint64(19))
	f.Add(pad(rep(0xee, 900), rep(' ', 300), []byte("if true then stop"), rep(0xee, 500)), uint64(23))
	f.Add(pad([]byte("if tr"), rep('u', 1200), []byte(" then go")), uint64(29)) // run inside a token attempt
	f.Add([]byte("if         true then go else stop        if"), uint64(11))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) > 1<<12 {
			return // keep the byte-per-cycle gate simulation tractable
		}
		rigOnce.Do(buildRig)
		if rigErr != nil {
			t.Fatal(rigErr)
		}
		want := runDiff(rig.stream, data)
		if got := runDiff(rig.gates, data); !reflect.DeepEqual(got, want) {
			t.Fatalf("gates diverged on %q:\ngates  %v\nstream %v", data, got, want)
		}
		recWant := runDiff(rig.recStream, data)
		sc := rig.recStream.Counters()
		for i, form := range fsaForms {
			for mode, got := range map[string][]stream.Match{
				"whole":   runDiff(rig.forms[i], data),
				"chunked": runDiffChunked(rig.forms[i], data, seed),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (%s, seed %d) diverged on %q:\n%s %v\nstream %v", form.name, mode, seed, data, form.name, got, want)
				}
			}
			b := rig.recForms[i]
			if got := runDiffChunked(b, data, seed); !reflect.DeepEqual(got, recWant) {
				t.Fatalf("recovery %s (seed %d) diverged on %q:\n%s %v\nstream %v", form.name, seed, data, form.name, got, recWant)
			}
			if c := b.Counters(); sc.Recoveries != c.Recoveries || sc.Collisions != c.Collisions {
				t.Fatalf("recovery counters diverged on %q: stream (%d recov, %d coll), %s (%d recov, %d coll)",
					data, sc.Recoveries, sc.Collisions, form.name, c.Recoveries, c.Collisions)
			}
		}
	})
}

// FuzzAOTDifferential holds the closed table (the closed fsaForms) to the
// served lazy one (fsaForms[0], dfa) on inputs up to 64 KiB, past
// FuzzDifferential's gate-simulation cap, so long runs reach skip-ahead in
// both fills. The closed table is the lazy fill run to fixpoint: the two
// must agree whole-buffer and under the seeded chunking, counters included
// under the recovery compile. Nothing served runs a closed table, so this
// is the only check of the two past 4 KiB.
func FuzzAOTDifferential(f *testing.F) {
	f.Add([]byte("if true then go else stop"), uint64(1))
	f.Add([]byte("if tru# then go if false then stop else go"), uint64(7))
	f.Add([]byte{0, 255, 'i', 'f', ' ', 0xC3, 0x28}, uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) > 1<<16 {
			return
		}
		rigOnce.Do(buildRig)
		if rigErr != nil {
			t.Fatal(rigErr)
		}
		want := runDiff(rig.forms[0], data)
		recWant := runDiff(rig.recForms[0], data)
		lc := rig.recForms[0].Counters()
		for i, form := range fsaForms {
			if !form.closed {
				continue
			}
			for mode, got := range map[string][]stream.Match{
				"whole":   runDiff(rig.forms[i], data),
				"chunked": runDiffChunked(rig.forms[i], data, seed),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (%s, seed %d) diverged from dfa on %q:\n%s %v\ndfa %v", form.name, mode, seed, data, form.name, got, want)
				}
			}
			b := rig.recForms[i]
			if got := runDiffChunked(b, data, seed); !reflect.DeepEqual(got, recWant) {
				t.Fatalf("recovery %s (seed %d) diverged from dfa on %q:\n%s %v\ndfa %v", form.name, seed, data, form.name, got, recWant)
			}
			if c := b.Counters(); lc.Recoveries != c.Recoveries || lc.Collisions != c.Collisions {
				t.Fatalf("recovery counters diverged on %q: dfa (%d recov, %d coll), %s (%d recov, %d coll)",
					data, lc.Recoveries, lc.Collisions, form.name, c.Recoveries, c.Collisions)
			}
		}
	})
}

// earleyRig lazily builds the oracle-vs-parser fuzz fixture: earley,
// parser and stream backends over the anchored if-then-else grammar
// (LL(1), unambiguous lexicon — the class where the two exact recognizers
// must agree completely), reused via Reset across inputs.
type earleyRig struct {
	earley, parser, stream runtime.Backend
}

var (
	earleyRigOnce sync.Once
	earleyRigV    earleyRig
	earleyRigErr  error
)

func buildEarleyRig() {
	engine, err := Compile("fuzz-earley", IfThenElseSource)
	if err != nil {
		earleyRigErr = err
		return
	}
	earleyRigV.earley = mintBackend(engine, EarleyBackend, &earleyRigErr)
	earleyRigV.parser = mintBackend(engine, ParserBackend, &earleyRigErr)
	earleyRigV.stream = mintBackend(engine, StreamBackend, &earleyRigErr)
}

// runVerdict is runDiff plus the Close verdict, which the exact-language
// backends use to reject non-sentences.
func runVerdict(b runtime.Backend, data []byte) ([]stream.Match, error) {
	b.Reset()
	ms, _ := b.Feed(data, nil)
	return b.Close(ms)
}

// FuzzEarleyDifferential feeds arbitrary bytes to both exact-language
// recognizers — the Earley oracle and the LL(1) predictive parser — over
// an LL(1) grammar where they must agree completely: same accept/reject
// verdict, and identical tags on accept. Accepted inputs additionally
// check the precision-rail invariant that the oracle's tags are among the
// FSA path's tags.
//
// Seed corpus: testdata/fuzz/FuzzEarleyDifferential.
func FuzzEarleyDifferential(f *testing.F) {
	f.Add([]byte("if true then go else stop"))
	f.Add([]byte("if false then if true then go else stop else go"))
	f.Add([]byte("  if   true\tthen go  "))
	f.Add([]byte("if true then go")) // missing else: both must reject
	f.Add([]byte("if tru then go"))  // lexeme near-miss
	f.Add([]byte("go stop"))         // two sentences, not one
	f.Add([]byte{0, 255, 'i', 'f', ' ', 0xC3, 0x28})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return // quadratic-worst-case oracle chart on adversarial input
		}
		earleyRigOnce.Do(buildEarleyRig)
		if earleyRigErr != nil {
			t.Fatal(earleyRigErr)
		}
		em, eErr := runVerdict(earleyRigV.earley, data)
		pm, pErr := runVerdict(earleyRigV.parser, data)
		if (eErr == nil) != (pErr == nil) {
			t.Fatalf("verdicts diverged on %q: earley %v, parser %v", data, eErr, pErr)
		}
		if eErr != nil {
			return
		}
		if !reflect.DeepEqual(em, pm) {
			t.Fatalf("tags diverged on accepted %q:\nearley %v\nparser %v", data, em, pm)
		}
		sm, _ := runVerdict(earleyRigV.stream, data)
		fsa := make(map[stream.Match]bool, len(sm))
		for _, m := range sm {
			fsa[m] = true
		}
		for _, m := range em {
			if !fsa[m] {
				t.Fatalf("earley tag %v missing from stream tags on %q", m, data)
			}
		}
	})
}

// FuzzConfig throws arbitrary bytes at the declarative platform-config
// parser: decoding and validating must reject garbage with a clean error
// (validation failures specifically with ErrInvalidConfig), never a panic,
// and any config that validates must survive a marshal/re-parse round trip
// unchanged — so a config written back to disk keeps meaning the same
// platform.
//
// Seed corpus: testdata/fuzz/FuzzConfig.
func FuzzConfig(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"name":"t","grammar":"%%\nE : \"a\" ;\n"}]}`))
	f.Add([]byte(`{"tenants":[
		{"name":"xml","grammar":"g","backend":"dfa","shards":4,"options":["free-running-start"],
		 "quarantine":"30s","batch_bytes":65536,"quota":{"max_streams":64,"bytes_per_sec":1048576}},
		{"name":"lang","grammar_file":"lang.y","backend":"stream"}]}`)) // "stream" is a reference kind: Validate rejects it
	f.Add([]byte(`{"tenants":[{"name":"t","grammar":"g","quarantine":-1}]}`))
	f.Add([]byte(`{"tenants":[{"name":"t"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"t","grammar":"g","backend":"fpga"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","grammar":"g"},{"name":"a","grammar":"g"}]}`))
	f.Add([]byte(`{"unknown_knob":1}`))
	f.Add([]byte(`{"tenants":[]}{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParsePlatformConfig(data)
		if err != nil {
			return // rejecting is fine; panicking is the bug
		}
		if err := cfg.Validate(); err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate rejected without ErrInvalidConfig: %v", err)
			}
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("valid config failed to marshal: %v", err)
		}
		cfg2, err := ParsePlatformConfig(out)
		if err != nil {
			t.Fatalf("marshaled config failed to re-parse: %v\n%s", err, out)
		}
		if err := cfg2.Validate(); err != nil {
			t.Fatalf("marshaled config failed to re-validate: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("config changed across marshal round trip:\nin  %+v\nout %+v", cfg, cfg2)
		}
	})
}

// FuzzTagText holds TagBatch.AppendText's pre-rendered path — a pooled
// batch from the sink adapter, rendered from the engine's matches and the
// grammar version's line tails — to the Tags path of a hand-built batch
// with the same header, byte for byte and in the running total it
// advances. Every grammar the repo carries gets a random batch of
// (instance, End) pairs drawn from seed; flags pick EOS, Evicted and an
// error, and prefix and errText go on the wire as given.
//
// Seed corpus: the f.Add calls below.
func FuzzTagText(f *testing.F) {
	f.Add(uint64(1), uint8(0), "", "")
	f.Add(uint64(2), uint8(1), "key-1 ", "")
	f.Add(uint64(3), uint8(3), "k ", "")
	f.Add(uint64(4), uint8(5), "stream-000017 ", "backend panic:\nline two\x7f")
	f.Add(uint64(5), uint8(7), "", string(bytes.Repeat([]byte("e\r"), 400)))
	f.Add(uint64(6), uint8(8), "p ", "")
	sources := grammarSources(f)
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	engines := make([]*Engine, len(names))
	for i, name := range names {
		e, err := Compile(name, sources[name])
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		engines[i] = e
	}
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8, prefix, errText string) {
		r := rand.New(rand.NewSource(int64(seed)))
		for i, e := range engines {
			rb := &runtime.Batch{Key: "s", EOS: flags&1 != 0, Evicted: flags&2 != 0, Version: 1}
			if flags&4 != 0 {
				rb.Err = errors.New(errText)
			}
			n := r.Intn(300)
			if flags&8 != 0 {
				n = 0
			}
			for range n {
				end := r.Int63n(1 << uint(r.Intn(63)))
				rb.Tags = append(rb.Tags, stream.Match{InstanceID: r.Intn(len(e.tags)), End: end})
			}
			start := r.Intn(1 << 20)
			got, want, gotTotal, wantTotal := renderBoth(e, rb, prefix, start)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: pre-rendered text differs from the Tags path:\n got %q\nwant %q", names[i], got, want)
			}
			if gotTotal != wantTotal || gotTotal != start+n {
				t.Fatalf("%s: total %d on the pre-rendered path, %d on the Tags path, want %d", names[i], gotTotal, wantTotal, start+n)
			}
		}
	})
}

// renderBoth renders rb after "x" twice, from a running total of start:
// as the pooled batch the sink adapter hands out (the pre-rendered path)
// and as a hand-built batch with the same header and Tags (the reference).
func renderBoth(e *Engine, rb *runtime.Batch, prefix string, start int) (got, want []byte, gotTotal, wantTotal int) {
	pb := e.getBatch(rb)
	hand := batchHeader(rb)
	hand.Tags = e.matches(nil, rb.Tags)
	gotTotal, wantTotal = start, start
	got = pb.batch.AppendText([]byte("x"), prefix, &gotTotal)
	want = hand.AppendText([]byte("x"), prefix, &wantTotal)
	putBatch(pb)
	return got, want, gotTotal, wantTotal
}

// TestTagTextEndDigits pins the pre-rendered path's End digits at every
// boundary of its split into a head (End / 10000, rendered when it
// changes) and four low digits (zero padded from a digit-pair table): a
// pooled batch and a hand-built batch with the same End values must
// render byte-identical text, for the values in ascending and descending
// order and with repeats, with and without a prefix.
func TestTagTextEndDigits(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	asc := []int64{0, 9, 10, 99, 100, 9999, 10000, 10001, 10099, 19999, 20000,
		99999, 100000, 999999, 1 << 31, 1 << 40, math.MaxInt64}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	var repeats []int64
	for _, v := range asc {
		repeats = append(repeats, v, v, v)
	}
	repeats = append(repeats, asc...)
	orders := map[string][]int64{"ascending": asc, "descending": desc, "repeats": repeats}
	for name, ends := range orders {
		for _, prefix := range []string{"", "key-7 "} {
			rb := &runtime.Batch{Key: "s", EOS: true, Version: 1}
			for i, end := range ends {
				rb.Tags = append(rb.Tags, stream.Match{InstanceID: i % len(engine.tags), End: end})
			}
			got, want, gotTotal, wantTotal := renderBoth(engine, rb, prefix, 0)
			if !bytes.Equal(got, want) {
				t.Errorf("%s, prefix %q: pre-rendered text differs from the Tags path:\n got %q\nwant %q", name, prefix, got, want)
			}
			if gotTotal != len(ends) || wantTotal != len(ends) {
				t.Errorf("%s, prefix %q: totals %d and %d, want %d", name, prefix, gotTotal, wantTotal, len(ends))
			}
		}
	}
}
