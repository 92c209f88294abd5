package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/workload"
)

// TestDFASharedCacheAmortizes runs N streams of identical traffic against
// one lazy table and asserts the fleet-wide fill count is what a single
// stream would have paid: determinization once per table, not per stream.
func TestDFASharedCacheAmortizes(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	gen := workload.NewGenerator(spec, 19, workload.SentenceOptions{MaxDepth: 8})
	text, _ := gen.Sentence()

	solo := NewTable(spec, TableConfig{})
	want := solo.NewRunner().Tag(text)
	soloFills, _ := solo.Stats()
	if soloFills == 0 {
		t.Fatal("solo stream recorded no fills; input too trivial for the test")
	}

	tbl := NewTable(spec, TableConfig{})
	const n = 16
	for i := 0; i < n; i++ {
		if got := tbl.NewRunner().Tag(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %d: shared-table tags %v, want %v", i, got, want)
		}
	}
	fills, resets := tbl.Stats()
	if resets != 0 {
		t.Fatalf("unexpected epoch resets: %d", resets)
	}
	if fills != soloFills {
		t.Errorf("%d streams filled %d transitions, single stream fills %d (want equal: O(1) in stream count)",
			n, fills, soloFills)
	}
	// Every byte of every stream is accounted for, and streams after the
	// first run entirely warm.
	r := tbl.NewRunner()
	r.Tag(text)
	hits, misses, _ := r.CacheStats()
	if got, want := hits+misses, int64(len(text)); got != want {
		t.Errorf("hits+misses = %d, want %d", got, want)
	}
	if misses != 0 {
		t.Errorf("warm sibling stream computed %d transitions, want 0", misses)
	}
}

// TestDFASharedCacheConcurrent hammers one lazy table from many goroutines
// — mixed traffic, so runners race to fill the same cells and to grow the
// same storage — and asserts every stream's output matches the serial NFA
// oracle. Run under -race this is the proof of the publication rule:
// atomic cells, copy-on-grow generations, no ref past a runner's snapshot.
func TestDFASharedCacheConcurrent(t *testing.T) {
	for name, opts := range optionMatrix() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			spec := mustSpec(t, grammar.XMLRPC(), opts)
			inputs := diffInputs(spec, 37, 8)
			tg := NewTagger(spec)
			wants := make([][]Match, len(inputs))
			for i, in := range inputs {
				wants[i] = tg.Tag(in)
			}
			tbl := NewTable(spec, TableConfig{})
			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					r := tbl.NewRunner()
					for rep := 0; rep < 4; rep++ {
						for i, in := range inputs {
							// Random chunking so streams desynchronize.
							r.Reset()
							var got []Match
							for off := 0; off < len(in); {
								n := 1 + rng.Intn(64)
								if off+n > len(in) {
									n = len(in) - off
								}
								got, _ = r.Write(in[off:off+n], got)
								off += n
							}
							got = r.Close(got)
							if !reflect.DeepEqual(got, wants[i]) {
								errs <- fmt.Errorf("worker %d input %d: got %v, want %v", w, i, got, wants[i])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if tbl.States() > tbl.MaxStates() {
				t.Errorf("table holds %d states, bound %d", tbl.States(), tbl.MaxStates())
			}
		})
	}
}

// TestDFASharedCacheConcurrentTinyBound races many runners through epoch
// resets: a 2-state bound forces constant reset churn while runners sit in
// superseded epochs. Outputs must stay exact.
func TestDFASharedCacheConcurrentTinyBound(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	inputs := diffInputs(spec, 53, 4)
	tg := NewTagger(spec)
	wants := make([][]Match, len(inputs))
	for i, in := range inputs {
		wants[i] = tg.Tag(in)
	}
	tbl := NewTable(spec, TableConfig{MaxStates: 2})
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := tbl.NewRunner()
			for rep := 0; rep < 3; rep++ {
				for i, in := range inputs {
					if got := r.Tag(in); !reflect.DeepEqual(got, wants[i]) {
						errs <- fmt.Errorf("worker %d input %d: got %v, want %v", w, i, got, wants[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, resets := tbl.Stats(); resets == 0 {
		t.Error("tiny shared table saw no resets")
	}
}

// TestDFAParkedEpoch parks a stream mid-message, drives a sibling through
// enough traffic to reset the table past it, and resumes: the parked
// stream reads its old epoch until its next miss re-canonicalises it, and
// must finish byte-identical to the NFA.
func TestDFAParkedEpoch(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	gen := workload.NewGenerator(spec, 61, workload.SentenceOptions{MaxDepth: 8})
	text, _ := gen.Sentence()
	other, _ := gen.Sentence()
	want := NewTagger(spec).Tag(text)

	tbl := NewTable(spec, TableConfig{MaxStates: 4})
	parked := tbl.NewRunner()
	half := len(text) / 2
	got, _ := parked.Write(text[:half], nil)
	epoch := parked.g.epoch
	tbl.NewRunner().Tag(other)
	if tbl.cur.Load().epoch == epoch {
		t.Fatal("sibling traffic did not reset the table; the stream is not parked")
	}
	got, _ = parked.Write(text[half:], got)
	got = parked.Close(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parked stream tagged %v, NFA %v", got, want)
	}

	// Parked on an accelerable state: the resumed Write starts with a scan
	// through the old epoch's plan, and its first miss re-canonicalises
	// the state from its row offset.
	pad := bytes.Repeat([]byte(" "), 64)
	text = append(append(append([]byte(nil), text...), pad...), other...)
	want = NewTagger(spec).Tag(text)
	cut := len(text) - len(other) - len(pad)/2
	parked = tbl.NewRunner()
	got, _ = parked.Write(text[:cut], nil)
	if parked.cur < accelTag {
		t.Fatalf("stream parked on plain ref %d mid-run of spaces; want an accelerable state", parked.cur)
	}
	epoch = parked.g.epoch
	tbl.NewRunner().Tag(other)
	if tbl.cur.Load().epoch == epoch {
		t.Fatal("sibling traffic did not reset the table; the stream is not parked")
	}
	got, _ = parked.Write(text[cut:], got)
	got = parked.Close(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream parked on an accelerable state tagged %v, NFA %v", got, want)
	}
}
