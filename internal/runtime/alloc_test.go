//go:build !race

package runtime

import (
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
)

// Allocation guards; excluded under -race, whose instrumentation
// allocates on its own.

// TestPipelineStreamCycleAllocs opens, feeds and closes one-message
// streams on one key. A stream costs its backend and its bookkeeping; its
// match buffers are lent from the pool and go back to it, so nothing
// grows with the message's tag count and the pool keeps its full-size
// buffers.
func TestPipelineStreamCycleAllocs(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	ended := make(chan int, 1)
	tags := 0
	p, err := NewPipeline(Config{Shards: 1, Factory: DFAFactory(spec, 0)}, SinkFunc(func(b *Batch) error {
		tags += len(b.Tags)
		if b.EOS {
			ended <- tags
			tags = 0
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("<methodCall> <methodName>deposit</methodName> <params> " +
		"<param> <i4>1</i4> </param> <param> <i4>2</i4> </param> <param> <i4>3</i4> </param> <param> <i4>4</i4> </param> " +
		"<param> <string>abc</string> </param> <param> <string>def</string> </param> </params> </methodCall>\n")
	got := 0
	cycle := func() {
		if err := p.Send("churn", msg); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream("churn"); err != nil {
			t.Fatal(err)
		}
		got = <-ended
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the DFA cache and the pools
	}
	avg := testing.AllocsPerRun(200, cycle)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got < 32 {
		t.Fatalf("message confirms %d tags, want a few dozen so that a growing match slice shows", got)
	}
	// 12 today: the backend with its callbacks, the stream's bookkeeping
	// and two Batch headers. A pending slice grown from nil adds one per
	// doubling (19 for this message).
	if avg > 14 {
		t.Errorf("one-message stream averages %.1f allocs, want <= 14", avg)
	}
}
