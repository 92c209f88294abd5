//go:build !race

package serve

import (
	"bytes"
	"fmt"
	"testing"

	"cfgtag"
)

// Allocation guards of the wire path; excluded under -race, whose
// instrumentation allocates on its own.

// TestAppendTextAllocFree renders a dense hand-built batch (the Tags
// path) into a buffer that already has the capacity: no allocation,
// whatever the batch size.
func TestAppendTextAllocFree(t *testing.T) {
	b := &cfgtag.TagBatch{Stream: "s", EOS: true}
	for i := 0; i < 500; i++ {
		b.Tags = append(b.Tags, cfgtag.Match{Term: "STRING", Context: "methodName[1]", Index: i % 40, End: int64(9 * i)})
	}
	total := 0
	buf := b.AppendText(nil, "key-1 ", &total)
	allocs := testing.AllocsPerRun(100, func() {
		buf = b.AppendText(buf[:0], "key-1 ", &total)
	})
	if allocs != 0 {
		t.Fatalf("AppendText into a warmed buffer allocates %.1f times, want 0", allocs)
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

// TestReadFrameKnownKeyAllocFree parses DATA frames of a stream the
// connection has open: the frame reuses the session's key string, and
// neither an in-place payload nor one past the reader's buffer, copied
// into the reader's warmed payload buffer, allocates.
func TestReadFrameKnownKeyAllocFree(t *testing.T) {
	const key = "stream-000017"
	ss := &session{key: key, prefix: key + " "}
	open := map[string]*session{key: ss}
	for _, n := range []int{4 << 10, 64 << 10} {
		wire := AppendFrame(nil, Frame{Op: FrameData, Key: key, Payload: bytes.Repeat([]byte("x"), n)})
		fr := NewFrameReader(&endlessReader{data: wire})
		var f Frame
		var got *session
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			f, got, _, err = fr.readFrame(open)
		})
		if err != nil || got != ss || f.Key != key || len(f.Payload) != n {
			t.Fatalf("%d B: readFrame = %+v, %v", n, f.Op, err)
		}
		if allocs != 0 {
			t.Fatalf("%d B: DATA frame of an open key allocates %.1f times, want 0", n, allocs)
		}
	}
}

// TestConnOutputDeliverMoreAllocFree renders batches with More set into a
// warmed connection: rendering into the connection's buffer, waiting on
// the server's flush list and the writes at the connFlushBytes mark
// allocate nothing.
func TestConnOutputDeliverMoreAllocFree(t *testing.T) {
	s := NewServer()
	conn, cw := newRecWriter(s)
	conn.discard = true
	b := tagBatch("key-1", 100, true)
	tags := 0
	deliver := func() {
		if err := cw.render(s, b, "key-1 ", &tags); err != nil {
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
		t.Fatalf("connWriter.render with More set allocates %.1f times, want 0", allocs)
	}
}

// eosCore answers each CloseStream with its one EOS batch, reused, the
// way a pipeline hands its sink pooled batches.
type eosCore struct {
	s   *Server
	eos cfgtag.TagBatch
}

func (c *eosCore) Send(string, string, []byte) error { return nil }
func (c *eosCore) Close() error                      { return nil }
func (c *eosCore) CloseStream(tenant, stream string) error {
	c.eos = cfgtag.TagBatch{Stream: stream, EOS: true}
	return c.s.Deliver(tenant, &c.eos)
}

// TestMuxCycleAllocs drives pumpMux over OPEN/DATA/CLOSE cycles of
// distinct keys on a recording connection: a cycle allocates at most once
// in serve, the key with its line prefix. The count is the difference
// between connections of n and 2n cycles, so what a connection costs once
// (its reader, maps and counter) cancels out.
func TestMuxCycleAllocs(t *testing.T) {
	const n = 2000
	s := NewServer()
	s.Bind(&eosCore{s: s})
	conn, cw := newRecWriter(s)
	conn.discard = true
	wire := func(cycles int) []byte {
		var w []byte
		for i := 0; i < cycles; i++ {
			key := fmt.Sprintf("stream-%06d", i)
			w = AppendFrame(w, Frame{Op: FrameOpen, Key: key})
			w = AppendFrame(w, Frame{Op: FrameData, Key: key, Payload: []byte("<methodCall> </methodCall>")})
			w = AppendFrame(w, Frame{Op: FrameClose, Key: key})
		}
		return w
	}
	in := NewTCPInput(nil, TCPOptions{})
	allocs := func(cycles int) float64 {
		w := wire(cycles)
		return testing.AllocsPerRun(5, func() {
			in.pumpMux(s, NewFrameReader(bytes.NewReader(w)), cw, "t")
		})
	}
	perCycle := (allocs(2*n) - allocs(n)) / n
	if got, want := s.opened.Load(), int64(6*3*n); got != want {
		t.Fatalf("%d sessions opened, want %d", got, want)
	}
	if n := s.held.Load(); n != 0 {
		t.Fatalf("%d sessions still checked out", n)
	}
	if perCycle > 1 {
		t.Fatalf("an OPEN/DATA/CLOSE cycle allocates %.2f times in serve, want ≤ 1", perCycle)
	}
	t.Logf("%.3f allocations per cycle", perCycle)
}
