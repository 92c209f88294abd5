//go:build !race

package runtime

import (
	"bytes"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
)

// Allocation guards; excluded under -race, whose instrumentation
// allocates on its own.

// TestPipelineStreamCycleAllocs opens, feeds and closes one-message
// streams on one key. A stream costs its backend and its bookkeeping and
// nothing else: its batches are slots of the pooled dispatch unit and its
// tags are appended to the unit's buffer, so nothing grows with the
// message's tag count.
func TestPipelineStreamCycleAllocs(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	ended := make(chan int, 1)
	tags := 0
	p, err := NewPipeline(Config{Shards: 1, Factory: testFactory(t, spec, Limits{})}, SinkFunc(func(b *Batch) error {
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
	// Exactly 4: the backend, the DFA runner (which counts its own rare
	// events, so no callback closure), and the stream's entry with its
	// recency-list element. A callback per event would add one each, a
	// Batch header per message two, a tag slice grown from nil one per
	// doubling.
	if avg > 4 {
		t.Errorf("one-message stream averages %.1f allocs, want <= 4", avg)
	}
}

// TestPipelineZeroTagRoundTripAllocs sends a chunk that confirms nothing
// through a warmed pipeline and waits for its delivery: the unit, its
// arena, its batch slot and the tag window all come from the pool, so the
// whole Send → Deliver round trip allocates nothing.
func TestPipelineZeroTagRoundTripAllocs(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan int, 1)
	p, err := NewPipeline(Config{Shards: 1, Factory: testFactory(t, spec, Limits{})}, SinkFunc(func(b *Batch) error {
		delivered <- len(b.Tags)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte(" "), 1024)
	tags := 0
	trip := func() {
		if err := p.Send("sparse", chunk); err != nil {
			t.Fatal(err)
		}
		tags += <-delivered
	}
	for i := 0; i < 64; i++ {
		trip() // warm the stream, the DFA cache and the unit pool
	}
	avg := testing.AllocsPerRun(500, trip)
	if tags != 0 {
		t.Fatalf("blank chunks confirmed %d tags, want 0", tags)
	}
	if avg != 0 {
		t.Errorf("zero-tag Send → Deliver round trip averages %.2f allocs, want 0", avg)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
