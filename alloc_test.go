//go:build !race

package cfgtag

import (
	"strings"
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

// TestPooledBatchAllocFree converts dense 500-tag batches through the
// pooled sink adapter and renders them as wire text: once the pool and the
// render buffer are warm, the conversion must reuse both the TagBatch and
// its Tags backing array, and AppendText must not grow the buffer. The
// first batch's End values stay below 10 000; the second's start at 1<<20
// and cross several multiples of 10 000, so its lines copy a head that
// changes mid-batch, and it carries the longest key the serve layer
// accepts (MaxNameLen, 256 bytes) plus its space.
func TestPooledBatchAllocFree(t *testing.T) {
	engine, err := Compile("xmlrpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		t.Fatal(err)
	}
	short := &runtime.Batch{Key: "s", Data: make([]byte, 4096), Version: 1}
	long := &runtime.Batch{Key: "s", Data: make([]byte, 4096), Version: 1}
	for i := 0; i < 500; i++ {
		short.Tags = append(short.Tags, stream.Match{InstanceID: i % len(engine.tags), End: int64(8 * i)})
		long.Tags = append(long.Tags, stream.Match{InstanceID: i % len(engine.tags), End: 1<<20 + int64(97*i)})
	}
	batches := []struct {
		rb     *runtime.Batch
		prefix string
	}{
		{short, "key-1 "},
		{long, strings.Repeat("k", 256) + " "},
	}
	tags, total := 0, 0
	var buf []byte
	allocs := testing.AllocsPerRun(200, func() {
		for _, b := range batches {
			pb := engine.getBatch(b.rb)
			tags += len(pb.batch.Tags)
			buf = pb.batch.AppendText(buf[:0], b.prefix, &total)
			putBatch(pb)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled batch conversion and rendering allocates %.1f times per batch pair, want 0", allocs)
	}
	if tags != 201*2*500 {
		t.Fatalf("converted %d tags, want %d", tags, 201*2*500)
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
