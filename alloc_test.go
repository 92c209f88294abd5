//go:build !race

package cfgtag

import (
	"testing"

	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// The tag path's allocation guards. They are excluded under -race: the
// race detector's instrumentation allocates on its own.

var sinkMatch Match

// TestMatchAllocFree pins the facade's per-detection cost to a table
// lookup: no formatting, no allocation.
func TestMatchAllocFree(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	n := len(engine.tags)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sinkMatch = engine.match(stream.Match{InstanceID: i % n, End: int64(i)})
		i++
	})
	if allocs != 0 {
		t.Fatalf("Engine.match allocates %.1f times per call, want 0", allocs)
	}
}

// TestPooledBatchAllocFree converts a dense 500-tag batch through the
// pooled sink adapter: once the pool is warm the conversion must reuse
// both the TagBatch and its Tags backing array.
func TestPooledBatchAllocFree(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	rb := &runtime.Batch{Key: "s", Data: make([]byte, 4096), Version: 1}
	for i := 0; i < 500; i++ {
		rb.Tags = append(rb.Tags, stream.Match{InstanceID: i % len(engine.tags), End: int64(8 * i)})
	}
	tags := 0
	allocs := testing.AllocsPerRun(200, func() {
		pb := engine.getBatch(rb)
		tags += len(pb.batch.Tags)
		putBatch(pb)
	})
	if allocs != 0 {
		t.Fatalf("pooled batch conversion allocates %.1f times per batch, want 0", allocs)
	}
	if tags != 201*500 {
		t.Fatalf("converted %d tags, want %d", tags, 201*500)
	}
}

// TestBackendDrainAllocFree feeds a message through the facade Backend and
// drains it after every call: once its buffers are warm, Matches converts
// into storage the Backend owns and the whole cycle allocates nothing.
func TestBackendDrainAllocFree(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.NewBackend(AOTBackend)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>\n")
	tags := 0
	allocs := testing.AllocsPerRun(200, func() {
		b.Reset()
		b.Feed(msg)
		tags += len(b.Matches())
		b.Close()
		tags += len(b.Matches())
	})
	if allocs != 0 {
		t.Fatalf("Feed/Matches/Close/Matches allocates %.1f times per message, want 0", allocs)
	}
	if tags == 0 {
		t.Fatal("the message produced no tags")
	}
}
