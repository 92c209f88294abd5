package main

import (
	"bytes"
	"hash/maphash"
	"io"
	"math/rand"
	"testing"
	"time"

	"cfgtag"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := genVariants(wl.name, 7), genVariants(wl.name, 7), genVariants(wl.name, 8)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: variant counts %d %d %d", wl.name, len(a), len(b), len(c))
		}
		same := 0
		for i := range a {
			if !bytes.Equal(a[i].data, b[i].data) {
				t.Fatalf("%s: variant %d differs between two runs of seed 7", wl.name, i)
			}
			if bytes.Equal(a[i].data, c[i].data) {
				same++
			}
			if i > 0 && bytes.Equal(a[i].data, a[0].data) {
				t.Fatalf("%s: variants 0 and %d are identical", wl.name, i)
			}
			// The chunk plan must cover the body exactly, in order.
			prev := 0
			for _, e := range a[i].ends {
				if e <= prev {
					t.Fatalf("%s: variant %d has an empty or reversed chunk at %d", wl.name, i, e)
				}
				prev = e
			}
			if prev != len(a[i].data) {
				t.Fatalf("%s: variant %d chunks end at %d of %d", wl.name, i, prev, len(a[i].data))
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seeds 7 and 8 generate the same input", wl.name)
		}
	}
}

func TestGeneratorSizes(t *testing.T) {
	g := msgGen{variantRNG(3, 0)}
	for i := 0; i < 2000; i++ {
		if n := len(g.message(nil)); n < minMsg || n > maxMsg {
			t.Fatalf("message of %d bytes", n)
		}
	}
	for name, size := range map[string]int{"dense_mux": denseStream, "sparse_mux": sparseStream, "paced_mux": pacedStream} {
		for i, v := range genVariants(name, 3) {
			if len(v.data) != size {
				t.Fatalf("%s variant %d is %d bytes, want %d", name, i, len(v.data), size)
			}
		}
	}
	for _, v := range genVariants("paced_mux", 3) {
		for i := range v.ends {
			if c := v.chunk(i); c[len(c)-1] != '\n' {
				t.Fatal("paced chunk is not message aligned")
			}
		}
	}
}

func TestStats(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(100 - i) // 100..1, unsorted
	}
	ps := durationsPercentiles(ns, 50, 90, 99, 100)
	if ps[0] != 50 || ps[1] != 90 || ps[2] != 99 || ps[3] != 100 {
		t.Fatalf("percentiles = %v", ps)
	}
	if ps := durationsPercentiles(nil, 50); ps[0] != 0 {
		t.Fatalf("empty percentile = %v", ps)
	}
	if r := ratio(1, 0); r != 0 {
		t.Fatalf("ratio by zero = %v", r)
	}
}

func TestTimingFitsTheBudget(t *testing.T) {
	for _, s := range []float64{6, 20, 60} {
		budget := time.Duration(s * float64(time.Second))
		u := untracedTiming(s)
		if got := 2 * untracedPasses * (u.warm + time.Duration(u.windows)*u.window); got > budget || got < budget-time.Millisecond {
			t.Fatalf("untraced %vs uses %v", s, got)
		}
		sock, layer := tracedTiming(s)
		got := 2*(sock.warm+time.Duration(sock.windows)*sock.window) + 4*(layer.warm+time.Duration(layer.windows)*layer.window)
		if got > budget || got < budget-time.Millisecond {
			t.Fatalf("traced %vs uses %v", s, got)
		}
	}
}

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		key  string
		kind lineKind
		num  int64
	}{
		{"17 TAG 4095 12 STRING methodName[1]", "17", lineTag, 4095},
		{"0 END 30211", "0", lineEnd, 30211},
		{"5 ERR overloaded", "5", lineErr, 0},
		{"ERR! draining", "ERR!", lineBad, 0},
		{"5 TAG x 1 a b", "5", lineBad, 0},
		{"nospace", "", lineBad, 0},
		{"5 NOPE 1", "5", lineBad, 0},
	}
	for _, c := range cases {
		key, _, kind, num := parseLine([]byte(c.line))
		if string(key) != c.key || kind != c.kind || num != c.num {
			t.Errorf("parseLine(%q) = %q %v %d", c.line, key, kind, num)
		}
	}
}

func TestParseProcStatAndMetrics(t *testing.T) {
	stat := []byte("1234 (cfg tagger)) S 1 1234 1234 0 -1 4194560 500 0 0 0 731 42 0 0 20 0 5 0 100 1000 200 18446744073709551615")
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 7730*time.Millisecond {
		t.Fatalf("cpu = %v, %v", cpu, err)
	}
	if _, err := parseProcStatCPU([]byte("garbage")); err == nil {
		t.Fatal("malformed stat accepted")
	}
	hwm, err := parseVmHWM([]byte("Name:\tcfgtagger\nVmPeak:\t 1234567 kB\nVmHWM:\t   52340 kB\nVmRSS:\t   40000 kB\n"))
	if err != nil || hwm != 52340 {
		t.Fatalf("VmHWM = %d, %v", hwm, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM accepted")
	}
	m := parseMetrics("serve_sessions_opened_total 895\ncfgtag_bytes_total{tenant=\"xml\"} 1.5e+06\n\nbroken\n")
	if m["serve_sessions_opened_total"] != 895 || m["cfgtag_bytes_total"] != 1.5e6 || len(m) != 2 {
		t.Fatalf("metrics = %v", m)
	}
}

func testEngine(t *testing.T) *cfgtag.Engine {
	t.Helper()
	eng, err := compileEngine()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// smallVariants is a few KiB of dense input with a chunk plan that
// straddles tokens.
func smallVariants(t *testing.T, eng *cfgtag.Engine, n int) []*variant {
	t.Helper()
	var vs []*variant
	for i := 0; i < n; i++ {
		data, _ := denseCorpus(variantRNG(11, i), 6<<10)
		vs = append(vs, &variant{data: data, ends: fixedChunks(len(data), 1000)})
	}
	if err := buildOracle(eng, vs); err != nil {
		t.Fatal(err)
	}
	return vs
}

// render tags v with the given backend fed in the given pieces and
// returns the response the server would write, key prefix included.
func render(t *testing.T, eng *cfgtag.Engine, kind cfgtag.BackendKind, v *variant, cuts []int, prefix string) []byte {
	t.Helper()
	b, err := eng.NewBackend(kind)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	total, prev := 0, 0
	emit := func() {
		for _, m := range b.Matches() {
			out = appendTagLine(append(out, prefix...), m)
			total++
		}
	}
	for _, c := range cuts {
		if err := b.Feed(v.data[prev:c]); err != nil {
			t.Fatal(err)
		}
		emit()
		prev = c
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	emit()
	return appendEndLine(append(out, prefix...), total)
}

func hashOf(b []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.Write(b)
	return h.Sum64()
}

func TestOracleIsChunkingInvariant(t *testing.T) {
	eng := testEngine(t)
	rng := rand.New(rand.NewSource(5))
	for _, v := range smallVariants(t, eng, 2) {
		if v.tags < 100 {
			t.Fatalf("only %d tags in %d bytes", v.tags, len(v.data))
		}
		for _, kind := range []cfgtag.BackendKind{cfgtag.StreamBackend, cfgtag.DFABackend, cfgtag.AOTBackend} {
			for round := 0; round < 5; round++ {
				var cuts []int
				for off := 0; off < len(v.data); {
					off += 1 + rng.Intn(300)
					if off > len(v.data) {
						off = len(v.data)
					}
					cuts = append(cuts, off)
				}
				if got := hashOf(render(t, eng, kind, v, cuts, "")); got != v.hash {
					t.Fatalf("%s backend, chunking %d: response hash differs from the oracle", kind, round)
				}
			}
		}
		// Every chunk's acknowledging tag is confirmed by the time the
		// chunk has been fed: the rule the latency marks rely on.
		b, err := eng.NewBackend(cfgtag.AOTBackend)
		if err != nil {
			t.Fatal(err)
		}
		last := int64(-1)
		for i := range v.ends {
			if err := b.Feed(v.chunk(i)); err != nil {
				t.Fatal(err)
			}
			if ms := b.Matches(); len(ms) > 0 {
				last = ms[len(ms)-1].End
			}
			if v.ack[i] > last {
				t.Fatalf("chunk %d: ack tag at %d not confirmed after the chunk (last %d)", i, v.ack[i], last)
			}
		}
	}
}

type nopTarget struct{}

func (nopTarget) open(*rec) error         { return nil }
func (nopTarget) data(*rec, []byte) error { return nil }
func (nopTarget) closeStream(*rec) error  { return nil }
func (nopTarget) flush() error            { return nil }

// dribble returns at most 7 bytes per Read, so lines straddle reads.
type dribble struct{ r io.Reader }

func (d dribble) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return d.r.Read(p)
}

// TestReaderMatchesChunksAndVerifies feeds the socket reader a canned
// transcript of two interleaved streams and checks the offset → chunk
// matcher and the oracle comparison.
func TestReaderMatchesChunksAndVerifies(t *testing.T) {
	eng := testEngine(t)
	vs := smallVariants(t, eng, 2)
	wl := &workload{name: "test", slots: 2, sampleStreams: 1, sampleChunks: 1}

	for _, corrupt := range []bool{false, true} {
		d := newDriver(passConfig{layer: "serve", wl: wl, variants: vs, slots: 2, windows: 1, trace: true})
		d.tgt = nopTarget{}
		d.t0 = time.Now()
		d.res.wins = make([]windowStat, 1)
		d.win.Store(0)
		marks := 0
		var transcript [2][]byte
		for i, r := range d.recs {
			if err := d.openStream(r); err != nil {
				t.Fatal(err)
			}
			for r.sending {
				if r.v.ack[r.next] >= 0 {
					marks++
				}
				if err := d.sendChunk(r, 0, true); err != nil {
					t.Fatal(err)
				}
			}
			transcript[i] = render(t, eng, cfgtag.AOTBackend, r.v, r.v.ends, r.key+" ")
		}
		if corrupt {
			i := bytes.Index(transcript[1], []byte("TAG "))
			transcript[1][i+4]++ // one end offset is off by a digit
		}
		// Interleave the two responses line by line.
		var wire []byte
		a, b := bytes.SplitAfter(transcript[0], []byte("\n")), bytes.SplitAfter(transcript[1], []byte("\n"))
		for i := 0; i < len(a) || i < len(b); i++ {
			if i < len(a) {
				wire = append(wire, a[i]...)
			}
			if i < len(b) {
				wire = append(wire, b[i]...)
			}
		}
		if err := d.readLoop(dribble{bytes.NewReader(wire)}); err != io.EOF {
			t.Fatalf("readLoop: %v", err)
		}
		wantOK, wantFailed := int64(2), int64(0)
		if corrupt {
			wantOK, wantFailed = 1, 1
		}
		if d.okStreams != wantOK || d.failedStreams != wantFailed {
			t.Fatalf("corrupt=%v: %d ok, %d failed, notes %v", corrupt, d.okStreams, d.failedStreams, d.protoErrs)
		}
		if got := len(d.wins[0].lat); got != marks {
			t.Fatalf("corrupt=%v: %d chunks acknowledged, %d timed", corrupt, got, marks)
		}
		for _, r := range d.recs {
			if r.state.Load() != recEnded {
				t.Fatalf("stream %s not ended", r.key)
			}
		}
		if int(d.tagCount) != vs[0].tags+vs[1].tags {
			t.Fatalf("%d tags read, oracle %d", d.tagCount, vs[0].tags+vs[1].tags)
		}
	}
}

func TestReaderRejectsStrayLines(t *testing.T) {
	eng := testEngine(t)
	vs := smallVariants(t, eng, 1)
	wl := &workload{name: "test", slots: 1, sampleStreams: 1, sampleChunks: 1}
	d := newDriver(passConfig{layer: "serve", wl: wl, variants: vs, slots: 1, windows: 1})
	d.tgt = nopTarget{}
	d.t0 = time.Now()
	d.res.wins = make([]windowStat, 1)
	if err := d.openStream(d.recs[0]); err != nil {
		t.Fatal(err)
	}
	wire := "9 TAG 1 1 a b\nERR! draining\n0 ERR overloaded\n"
	if err := d.readLoop(bytes.NewReader([]byte(wire))); err != io.EOF {
		t.Fatal(err)
	}
	if len(d.protoErrs) != 3 || d.failedStreams != 1 {
		t.Fatalf("notes %v, failed %d", d.protoErrs, d.failedStreams)
	}
}
