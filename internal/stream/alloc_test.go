//go:build !race

package stream

import (
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/workload"
)

// Allocation guards; excluded under -race, whose instrumentation
// allocates on its own.

// TestRunnerWriteAllocFree: Write on a closed table and on a warm lazy
// table, appending into a buffer with room, allocates nothing — matches go
// straight into the caller's buffer, and rare steps (skip-ahead entries,
// emissions) reuse what the table holds.
func TestRunnerWriteAllocFree(t *testing.T) {
	spec := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	gen := workload.NewGenerator(spec, 5, workload.SentenceOptions{MaxDepth: 8})
	var text []byte
	for i := 0; i < 8; i++ {
		s, _ := gen.Sentence()
		text = append(append(text, s...), "        "...)
	}
	closed, err := Determinize(spec, TableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lazy := NewTable(spec, TableConfig{})
	lazy.NewRunner().Tag(text) // warm: every cell this text crosses is filled
	for name, tbl := range map[string]*Table{"closed": closed, "lazy": lazy} {
		r := tbl.NewRunner()
		want := len(r.Tag(text))
		if want == 0 {
			t.Fatalf("%s: text confirms no tags", name)
		}
		out := make([]Match, 0, want)
		avg := testing.AllocsPerRun(100, func() {
			r.Reset()
			out, _ = r.Write(text[:len(text)/2], out[:0])
			out, _ = r.Write(text[len(text)/2:], out)
			out = r.Close(out)
		})
		if len(out) != want {
			t.Fatalf("%s: %d tags, want %d", name, len(out), want)
		}
		if avg != 0 {
			t.Errorf("%s: Write into a buffer with room averages %.1f allocs, want 0", name, avg)
		}
		if _, misses, _ := r.CacheStats(); misses != 0 {
			t.Errorf("%s: warm runner computed %d transitions", name, misses)
		}
	}
}
