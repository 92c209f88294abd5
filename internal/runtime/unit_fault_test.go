package runtime_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/faultinject"
	"cfgtag/internal/grammar"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// TestPipelineUnitFaults faults the third message of a unit whose first
// two messages already appended tags to the shared buffer — by an injected
// error, an injected panic, and a per-Feed match budget — and then lets an
// eviction Close append into the same unit. The first two batches must be
// intact, the faulted stream must end on an error EOS batch carrying what
// its Feed returned before the fault (nothing when the injector fires
// ahead of the backend, the chunk's matches when the budget trips behind
// it), and the streams behind the fault must be untouched.
func TestPipelineUnitFaults(t *testing.T) {
	spec, err := core.Compile(grammar.IfThenElse(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := []byte("if true then go else stop "), []byte("if false then stop else go ")
	held := []byte("if true then go") // "go" waits for its lookahead byte
	cases := []struct {
		name    string
		lim     runtime.Limits
		fault   []byte
		wantErr error
		tagged  bool // the error batch carries the fault chunk's matches
	}{
		{name: "error", fault: append(append([]byte(nil), c1...), faultinject.TriggerError...), wantErr: faultinject.ErrInjected},
		{name: "panic", fault: faultinject.TriggerPanic, wantErr: runtime.ErrBackendPanic},
		{name: "budget", lim: runtime.Limits{MaxPendingMatches: 8}, fault: append(append([]byte(nil), c1...), c2...), wantErr: runtime.ErrResourceExhausted, tagged: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := func(chunks ...[]byte) (perChunk [][]stream.Match, flush []stream.Match) {
				b, err := runtime.MustFactory(t, spec, runtime.Limits{})()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range chunks {
					ms, _ := b.Feed(c, nil)
					perChunk = append(perChunk, ms)
				}
				flush, _ = b.Close(nil)
				return perChunk, flush
			}
			wantS, _ := serial(c1, c2, tc.fault)
			if !tc.tagged {
				wantS[2] = nil
			}
			_, wantEvicted := serial(held)
			if len(wantS[0]) == 0 || len(wantS[1]) == 0 || len(wantEvicted) == 0 {
				t.Fatal("degenerate input: a chunk meant to confirm tags confirms none")
			}

			type rec struct {
				key          string
				tags         []stream.Match
				eos, evicted bool
				err          error
				sameArena    bool // Data starts where the previous batch's ended
			}
			var seq []rec
			var prev []byte
			sink := runtime.SinkFunc(func(b *runtime.Batch) error {
				r := rec{key: b.Key, tags: append([]stream.Match(nil), b.Tags...), eos: b.EOS, evicted: b.Evicted, err: b.Err}
				if len(b.Data) > 0 {
					r.sameArena = cap(prev) > len(prev) && &prev[:len(prev)+1][len(prev)] == &b.Data[0]
					prev = b.Data
				}
				seq = append(seq, r)
				return nil
			})
			var mc runtime.MetricCounters
			started, gate := make(chan struct{}, 1), make(chan struct{})
			inner := faultinject.Factory(runtime.MustFactory(t, spec, tc.lim), faultinject.Config{Triggers: true})
			p, err := runtime.NewPipeline(runtime.Config{
				Shards: 1, MaxStreams: 3, Metrics: &mc,
				Quarantine: time.Hour,
				Factory:    runtime.GateFirst(inner, 1, started, gate),
			}, sink)
			if err != nil {
				t.Fatal(err)
			}
			send := func(key string, data []byte) {
				t.Helper()
				if err := p.Send(key, data); err != nil {
					t.Fatalf("Send(%q) = %v", key, err)
				}
			}
			send("old", held) // the shard blocks in this Feed…
			<-started
			send("pad", []byte("if ")) // …this keeps its queue non-empty…
			send("s", c1)              // …and these five coalesce into one unit.
			send("s", c2)
			send("s", tc.fault)
			send("new", c1)
			send("newer", c2) // a fourth live stream: evicts "old"
			close(gate)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			byKey := make(map[string][]rec)
			evictedAt := -1
			for i, r := range seq {
				byKey[r.key] = append(byKey[r.key], r)
				if r.evicted {
					evictedAt = i
				}
			}
			s := byKey["s"]
			if len(s) != 3 {
				t.Fatalf("faulted stream delivered %d batches, want 3: %+v", len(s), s)
			}
			for i := 0; i < 2; i++ {
				if s[i].eos || s[i].err != nil || !reflect.DeepEqual(s[i].tags, wantS[i]) {
					t.Errorf("batch %d ahead of the fault = %+v, want the serial run's %v", i, s[i], wantS[i])
				}
			}
			if !s[1].sameArena || !s[2].sameArena {
				t.Error("the three messages did not share one unit's arena")
			}
			if !s[2].eos || !errors.Is(s[2].err, tc.wantErr) {
				t.Errorf("fault batch = %+v, want an EOS batch wrapping %v", s[2], tc.wantErr)
			}
			if len(s[2].tags) != len(wantS[2]) || (len(wantS[2]) > 0 && !reflect.DeepEqual(s[2].tags, wantS[2])) {
				t.Errorf("fault batch carries %v, want the pre-fault matches %v", s[2].tags, wantS[2])
			}
			// The eviction flush lands in the same unit, between the two
			// streams behind the fault.
			if evictedAt < 1 || evictedAt+1 >= len(seq) || seq[evictedAt].key != "old" ||
				seq[evictedAt-1].key != "new" || seq[evictedAt+1].key != "newer" || !seq[evictedAt+1].sameArena {
				t.Fatalf("evicted batch at %d of %+v, want old's between new and newer in one unit", evictedAt, seq)
			}
			if !reflect.DeepEqual(seq[evictedAt].tags, wantEvicted) || seq[evictedAt].err != nil {
				t.Errorf("evicted batch = %+v, want the held match %v", seq[evictedAt], wantEvicted)
			}
			for key, chunk := range map[string][]byte{"new": c1, "newer": c2} {
				per, flush := serial(chunk)
				var got []stream.Match
				for _, r := range byKey[key] {
					if r.err != nil {
						t.Errorf("%s: clean stream got %v", key, r.err)
					}
					got = append(got, r.tags...)
				}
				if want := append(per[0], flush...); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: tags %v, want the serial run's %v", key, got, want)
				}
			}
			f := mc.Faults()
			if f.StreamsQuarantined != 1 || f.StreamsEvicted != 1 {
				t.Errorf("quarantined %d, evicted %d, want 1 and 1", f.StreamsQuarantined, f.StreamsEvicted)
			}
		})
	}
}
