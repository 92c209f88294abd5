//go:build !race

package serve

import (
	"bytes"
	"testing"

	"cfgtag"
)

// Allocation guards of the wire path; excluded under -race, whose
// instrumentation allocates on its own.

// TestAppendBatchTextAllocFree renders a dense batch into a buffer that
// already has the capacity: no allocation, whatever the batch size.
func TestAppendBatchTextAllocFree(t *testing.T) {
	b := &cfgtag.TagBatch{Stream: "s", EOS: true}
	for i := 0; i < 500; i++ {
		b.Tags = append(b.Tags, cfgtag.Match{Term: "STRING", Context: "methodName[1]", Index: i % 40, End: int64(9 * i)})
	}
	total := 0
	buf := AppendBatchText(nil, "key-1 ", b, &total)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBatchText(buf[:0], "key-1 ", b, &total)
	})
	if allocs != 0 {
		t.Fatalf("AppendBatchText into a warmed buffer allocates %.1f times, want 0", allocs)
	}
}

// endlessReader serves the same bytes over and over.
type endlessReader struct {
	data []byte
	off  int
}

func (r *endlessReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestReadFrameKnownKeyAllocFree parses DATA frames of a stream whose key
// the caller already holds: the frame reuses that string.
func TestReadFrameKnownKeyAllocFree(t *testing.T) {
	const key = "stream-000017"
	wire := AppendFrame(nil, Frame{Op: FrameData, Key: key, Payload: bytes.Repeat([]byte("x"), 4096)})
	fr := NewFrameReader(&endlessReader{data: wire})
	known := func(b []byte) (string, bool) { return key, string(b) == key }
	var f Frame
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		f, err = fr.readFrame(known)
	})
	if err != nil || f.Key != key || len(f.Payload) != 4096 {
		t.Fatalf("readFrame = %+v, %v", f.Op, err)
	}
	if allocs != 0 {
		t.Fatalf("DATA frame of a known key allocates %.1f times, want 0", allocs)
	}
}

// TestConnOutputDeliverMoreAllocFree delivers batches with More set to a
// warmed connection: rendering into the connection's buffer, waiting on
// the server's flush list and the writes at the connFlushBytes mark
// allocate nothing.
func TestConnOutputDeliverMoreAllocFree(t *testing.T) {
	s := NewServer()
	conn, cw := newRecWriter(s)
	conn.discard = true
	co := &connOutput{srv: s, cw: cw, prefix: "key-1 "}
	b := tagBatch("key-1", 100, true)
	deliver := func() {
		if err := co.Deliver(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		deliver() // past the mark a few times: the buffer is at full size
	}
	if n := s.outWrites.Load(); n < 2 {
		t.Fatalf("%d writes while warming, want the mark crossed", n)
	}
	if allocs := testing.AllocsPerRun(200, deliver); allocs != 0 {
		t.Fatalf("connOutput.Deliver with More set allocates %.1f times, want 0", allocs)
	}
}
