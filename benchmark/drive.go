package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// target is one layer boundary the load loop drives. Responses come back
// through driver.onTags/onEnd from whatever goroutine the layer answers
// on (the socket reader, the pipeline's deliver callback, or — for the
// synchronous engine and facade boundaries — the caller itself).
type target interface {
	open(r *rec) error
	data(r *rec, p []byte) error
	closeStream(r *rec) error
	// flush pushes buffered frames to the layer; called before the load
	// loop sleeps or waits.
	flush() error
}

const (
	recFree int32 = iota
	recLive
	recEnded
)

// mark is one timed chunk waiting for the response line that carries its
// last oracle tag.
type mark struct {
	ack     int64 // End offset that acknowledges the chunk
	due     int64 // ns since pass start: when the chunk was due
	start   int64 // when the call into the layer began
	chunk   int
	sampled bool
}

// rec is the state of one stream in flight. The sender fills it while the
// rec is free and publishes it with state=recLive before the first frame
// leaves; the receiver owns the response fields until it stores recEnded.
type rec struct {
	key   string
	keySp []byte // key plus the space that follows it on response lines

	// sender-owned
	sending bool
	v       *variant
	next    int // next chunk to send
	sampled bool
	spanID  int
	opened  int64

	state atomic.Int32

	// marks is a single-producer single-consumer queue: the sender writes
	// marks[pushed] and then stores pushed+1; a stream never has more
	// marks than chunks, so it cannot wrap.
	marks  []mark
	pushed atomic.Int32

	// receiver-owned
	popped int
	hash   maphash.Hash
	tags   int
	sumEnd int64
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Stream string `json:"stream"`
	Chunk  int    `json:"chunk"`
}

// passConfig describes one measured pass of one workload over one layer.
type passConfig struct {
	layer    string
	wl       *workload
	variants []*variant
	slots    int
	warm     time.Duration
	windows  int
	window   time.Duration
	trace    bool                          // time every call and record spans
	ref      bool                          // the target is the reference server: no oracle hash, '<' counts
	cpu      func() (time.Duration, error) // CPU clock of the program under test
}

// windowStat is what one measurement window saw.
type windowStat struct {
	dur     time.Duration
	bytes   int64 // payload bytes of streams verified in the window
	streams int64
	cpu     time.Duration
	selfCPU time.Duration // the benchmark process's own CPU
	lat     []int64       // due → response line, ns
	toTag   []int64       // call start → response line, ns
	call    []int64       // time the caller was held inside data(), ns
}

type passResult struct {
	wins []windowStat

	attempted, failed int64 // streams, or timed chunks on the open loop
	calls, frames     int64
	bytesSent         int64
	tags              int64
	lines, respBytes  int64
	batches           int64
	batchBytes        int64
	liveMax           int
	late              []int64 // open loop: send start − due, ns
	spans             []span
	notes             []string
}

// driver runs the load loop of one pass.
type driver struct {
	cfg  passConfig
	tgt  target
	t0   time.Time
	recs []*rec
	wake chan struct{} // receiver → sender: some stream ended

	// afterLoop, when set, runs once the load loop has ended and must
	// return only when the receiver side has stopped (the socket target
	// closes the connection and joins its reader here).
	afterLoop func() error

	win atomic.Int32 // current window: -1 warm-up, >= cfg.windows after

	spanStream, spanSend, spanToTag string // span names of this layer

	// sender-owned
	res       passResult
	streamSeq int
	chunkSeq  int
	nextID    int
	live      int
	sendSpans []span

	// receiver-owned
	wins          []windowStat
	failedStreams int64
	failedChunks  int64
	okStreams     int64
	tagCount      int64
	lines         int64
	respBytes     int64
	batches       int64
	batchBytes    int64
	protoErrs     []string
	recvSpans     []span
	recvID        int
}

func newDriver(cfg passConfig) *driver {
	d := &driver{cfg: cfg, wake: make(chan struct{}, 1), wins: make([]windowStat, cfg.windows)}
	d.spanStream, d.spanSend, d.spanToTag = cfg.layer+".stream", cfg.layer+".send", cfg.layer+".chunk_to_tag"
	nrecs := cfg.slots
	if cfg.wl.rate > 0 {
		// On the open loop a slot's next stream opens before the previous
		// END is back. Sixteen generations (about four seconds) may
		// overlap, so a host stall of a second does not end the run.
		nrecs *= 16
	}
	maxChunks := 0
	for _, v := range cfg.variants {
		if len(v.ends) > maxChunks {
			maxChunks = len(v.ends)
		}
	}
	for i := 0; i < nrecs; i++ {
		// A rec's key is fixed and reused by every stream the rec carries
		// ("key rolls over to a fresh stream on END"). Stream keys pick the
		// pipeline shard, so fixed keys keep the split of streams over
		// shards the same in every window of every run.
		key := strconv.Itoa(i)
		r := &rec{key: key, keySp: []byte(key + " "), marks: make([]mark, maxChunks)}
		r.hash.SetSeed(hashSeed)
		d.recs = append(d.recs, r)
	}
	d.win.Store(-1)
	d.nextID = 2
	d.recvID = 1
	return d
}

func (d *driver) now() int64 { return int64(time.Since(d.t0)) }

// stopping reports that the sampler has closed the last window: no new
// stream is opened, the ones in flight are finished and verified.
func (d *driver) stopping() bool { return int(d.win.Load()) >= d.cfg.windows }

// lookup maps a stream key (the decimal rec index) to its live rec.
func lookup[K string | []byte](d *driver, key K) *rec {
	idx := 0
	for i := 0; i < len(key); i++ {
		if key[i] < '0' || key[i] > '9' || idx >= len(d.recs) {
			return nil
		}
		idx = idx*10 + int(key[i]-'0')
	}
	if len(key) == 0 || idx >= len(d.recs) {
		return nil
	}
	if r := d.recs[idx]; r.state.Load() == recLive {
		return r
	}
	return nil
}

// ---- receiver side ----

// onTags acknowledges every timed chunk of r whose last tag is at or
// before lastEnd.
func (d *driver) onTags(r *rec, lastEnd int64, now int64) {
	for r.popped < int(r.pushed.Load()) {
		m := &r.marks[r.popped]
		if m.ack > lastEnd {
			return
		}
		r.popped++
		if w := int(d.win.Load()); w >= 0 && w < len(d.wins) {
			ws := &d.wins[w]
			ws.lat = append(ws.lat, now-m.due)
			ws.toTag = append(ws.toTag, now-m.start)
		}
		if m.sampled {
			d.recvSpans = append(d.recvSpans, span{Name: d.spanToTag, Start: m.start, End: now,
				ID: d.recvID, Parent: r.spanID, Stream: r.key, Chunk: m.chunk})
			d.recvID += 2
		}
	}
}

// onEnd closes the books on one stream.
func (d *driver) onEnd(r *rec, ok bool, now int64) {
	// Marks still queued were never acknowledged by a tag line.
	lost := int(r.pushed.Load()) - r.popped
	if lost > 0 {
		ok = false
	}
	if ok {
		d.okStreams++
		if w := int(d.win.Load()); w >= 0 && w < len(d.wins) {
			d.wins[w].bytes += int64(len(r.v.data))
			d.wins[w].streams++
		}
	} else {
		d.failedStreams++
		d.failedChunks += int64(r.pushed.Load())
	}
	d.tagCount += int64(r.tags)
	if r.sampled {
		d.recvSpans = append(d.recvSpans, span{Name: d.spanStream, Start: r.opened, End: now,
			ID: r.spanID, Stream: r.key, Chunk: -1})
	}
	r.state.Store(recEnded)
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// readLoop is the socket receiver: it splits the response into lines,
// hashes each stream's lines with the key prefix stripped, and verifies
// the hash against the oracle at END. All lines of one read share its
// timestamp: that is when their bytes reached the client.
func (d *driver) readLoop(conn io.Reader) error {
	buf := make([]byte, 256<<10)
	held := 0
	var cur *rec
	for {
		n, err := conn.Read(buf[held:])
		now := d.now()
		d.respBytes += int64(n)
		held += n
		off := 0
		for {
			i := bytes.IndexByte(buf[off:held], '\n')
			if i < 0 {
				break
			}
			cur = d.onLine(cur, buf[off:off+i+1], now)
			off += i + 1
		}
		held = copy(buf, buf[off:held])
		if held == len(buf) {
			return errors.New("response line longer than the read buffer")
		}
		if err != nil {
			return err
		}
	}
}

// onLine consumes one response line (newline included) and returns the
// rec it belonged to, which the next line most likely shares.
func (d *driver) onLine(cur *rec, line []byte, now int64) *rec {
	d.lines++
	if cur == nil || !bytes.HasPrefix(line, cur.keySp) {
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			sp = 0
		}
		if cur = lookup(d, line[:sp]); cur == nil {
			d.protoErr("unexpected line %q", line)
			return nil
		}
	}
	rest := line[len(cur.keySp):]
	kind, num := parseRest(rest[:len(rest)-1])
	switch kind {
	case lineTag:
		cur.hash.Write(rest)
		cur.tags++
		d.onTags(cur, num, now)
		return cur
	case lineEnd:
		cur.hash.Write(rest)
		ok := cur.hash.Sum64() == cur.v.hash
		if d.cfg.ref {
			ok = cur.tags == cur.v.refTags
		}
		if !ok {
			d.protoErr("stream %s: response differs from the oracle (%d tags, oracle %d)", cur.key, cur.tags, cur.v.tags)
		}
		d.onEnd(cur, ok, now)
	case lineErr:
		d.protoErr("stream %s: %s", cur.key, bytes.TrimSpace(rest))
		d.onEnd(cur, false, now)
	default:
		d.protoErr("malformed line %q", line)
		return cur
	}
	return nil
}

func (d *driver) protoErr(format string, args ...any) {
	if len(d.protoErrs) < 10 {
		d.protoErrs = append(d.protoErrs, fmt.Sprintf(format, args...))
	}
}

// ---- sender side ----

// openStream starts the next stream on r.
func (d *driver) openStream(r *rec) error {
	r.v = d.cfg.variants[d.streamSeq%len(d.cfg.variants)]
	r.next = 0
	r.sending = true
	r.sampled = d.cfg.trace && d.streamSeq%d.cfg.wl.sampleStreams == 0
	r.spanID = d.nextID
	d.nextID += 2
	r.opened = d.now()
	r.popped, r.tags, r.sumEnd = 0, 0, 0
	r.pushed.Store(0)
	r.hash.Reset()
	d.streamSeq++
	d.res.attempted++
	d.live++
	if d.live > d.res.liveMax {
		d.res.liveMax = d.live
	}
	r.state.Store(recLive)
	return d.tgt.open(r)
}

// sendChunk sends r's next chunk, due at the given time (now, on the
// closed loop), and closes the stream after its last chunk. timed=false
// sends without a latency mark (the post-deadline flush of an open loop).
func (d *driver) sendChunk(r *rec, due int64, timed bool) error {
	i := r.next
	p := r.v.chunk(i)
	start := d.now()
	if due == 0 {
		due = start
	}
	sampled := false
	ack := r.v.ack[i]
	if d.cfg.ref {
		ack = r.v.refAck[i]
	}
	if timed && ack >= 0 {
		sampled = r.sampled && d.chunkSeq%d.cfg.wl.sampleChunks == 0
		r.marks[r.pushed.Load()] = mark{ack: ack, due: due, start: start, chunk: i, sampled: sampled}
		r.pushed.Add(1)
		d.chunkSeq++
	}
	if err := d.tgt.data(r, p); err != nil {
		return err
	}
	d.res.calls++
	d.res.bytesSent += int64(len(p))
	if d.cfg.trace {
		end := d.now()
		if w := int(d.win.Load()); w >= 0 && w < len(d.res.wins) {
			d.res.wins[w].call = append(d.res.wins[w].call, end-start)
		}
		if sampled {
			d.sendSpans = append(d.sendSpans, span{Name: d.spanSend, Start: start, End: end,
				ID: d.nextID, Parent: r.spanID, Stream: r.key, Chunk: i})
			d.nextID += 2
		}
	}
	r.next++
	if r.next == len(r.v.ends) {
		r.sending = false
		return d.tgt.closeStream(r)
	}
	return nil
}

// reap frees r if its stream has ended.
func (d *driver) reap(r *rec) {
	if r.state.Load() == recEnded {
		r.state.Store(recFree)
		d.live--
	}
}

// waitWake blocks until some stream ends. A layer that answers nothing
// for ten seconds has lost a stream.
func (d *driver) waitWake() error {
	if err := d.tgt.flush(); err != nil {
		return err
	}
	select {
	case <-d.wake:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("no stream ended for 10s")
	}
}

// runClosed is the closed loop: cfg.slots streams in flight, chunks sent
// round-robin as fast as the layer takes them, a slot reopening only when
// its stream's END has been verified.
func (d *driver) runClosed() error {
	slots := d.recs[:d.cfg.slots]
	for {
		stopping := d.stopping()
		progressed := false
		for _, r := range slots {
			switch r.state.Load() {
			case recEnded:
				d.reap(r)
				progressed = true
				fallthrough
			case recFree:
				if stopping {
					continue
				}
				if err := d.openStream(r); err != nil {
					return err
				}
				progressed = true
			}
			if r.sending {
				if err := d.sendChunk(r, 0, true); err != nil {
					return err
				}
				progressed = true
			}
		}
		if stopping && d.live == 0 {
			return nil
		}
		if !progressed {
			if err := d.waitWake(); err != nil {
				return err
			}
		}
	}
}

// runOpen is the open loop: chunks leave on a fixed byte-rate schedule
// that does not slow when the layer does. The sender sleeps until each
// chunk is due and never spins; how late it woke is recorded.
func (d *driver) runOpen() error {
	slots := d.cfg.slots
	perSlot := len(d.recs) / slots
	cur := make([]*rec, slots)
	gens := make([]int, slots)
	nsPerByte := 1e9 / d.cfg.wl.rate
	var sent int64
	for s := 0; !d.stopping(); s = (s + 1) % slots {
		due := int64(float64(sent) * nsPerByte)
		for _, r := range d.recs {
			d.reap(r)
		}
		if cur[s] == nil {
			r := d.recs[s*perSlot+gens[s]%perSlot]
			gens[s]++
			if r.state.Load() != recFree {
				return fmt.Errorf("stream %s (reference server: %v) still has no END %d streams later", r.key, d.cfg.ref, perSlot)
			}
			if err := d.openStream(r); err != nil {
				return err
			}
			cur[s] = r
		}
		if wait := due - d.now(); wait > 0 {
			sleep(wait)
		}
		if w := int(d.win.Load()); w >= 0 && w < d.cfg.windows {
			d.res.late = append(d.res.late, d.now()-due)
		}
		r := cur[s]
		sent += int64(len(r.v.chunk(r.next)))
		if err := d.sendChunk(r, due, true); err != nil {
			return err
		}
		if err := d.tgt.flush(); err != nil {
			return err
		}
		if !r.sending {
			cur[s] = nil
		}
	}
	// Past the last window: finish the open streams unpaced and untimed so
	// that every stream can be verified against its oracle.
	for _, r := range cur {
		for r != nil && r.sending {
			if err := d.sendChunk(r, 0, false); err != nil {
				return err
			}
		}
	}
	for {
		for _, r := range d.recs {
			d.reap(r)
		}
		if d.live == 0 {
			return nil
		}
		if err := d.waitWake(); err != nil {
			return err
		}
	}
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep is no use
// for pacing: the Go runtime parks in epoll_wait, whose timeout has
// millisecond granularity, so a 400 µs sleep takes over a millisecond.
func sleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil)
}

// sampler advances the window index on schedule and reads the CPU clocks
// at every boundary.
func (d *driver) sampler(done <-chan struct{}) (bounds []time.Time, cpus, selfs []time.Duration, err error) {
	at := d.t0.Add(d.cfg.warm)
	for k := 0; k <= d.cfg.windows; k++ {
		select {
		case <-time.After(time.Until(at)):
		case <-done:
			return bounds, cpus, selfs, errors.New("load loop failed before the last window")
		}
		now := time.Now()
		d.win.Store(int32(k))
		c, cerr := d.cfg.cpu()
		if cerr != nil {
			return bounds, cpus, selfs, cerr
		}
		bounds = append(bounds, now)
		cpus = append(cpus, c)
		selfs = append(selfs, selfCPU())
		at = at.Add(d.cfg.window)
	}
	return bounds, cpus, selfs, nil
}

// run drives the pass to completion and folds both sides' books.
func (d *driver) run() (*passResult, error) {
	d.res.wins = make([]windowStat, d.cfg.windows)
	d.t0 = time.Now()

	loopDone := make(chan struct{})
	type sampled struct {
		bounds      []time.Time
		cpus, selfs []time.Duration
		err         error
	}
	sc := make(chan sampled, 1)
	go func() {
		var s sampled
		s.bounds, s.cpus, s.selfs, s.err = d.sampler(loopDone)
		sc <- s
	}()

	var err error
	if d.cfg.wl.rate > 0 {
		err = d.runOpen()
	} else {
		err = d.runClosed()
	}
	close(loopDone)
	s := <-sc
	if err == nil {
		err = d.tgt.flush()
	}
	if d.afterLoop != nil {
		if aerr := d.afterLoop(); err == nil {
			err = aerr
		}
	}
	if err == nil {
		err = s.err
	}
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w (%v)", d.cfg.layer, err, d.protoErrs)
	}

	res := &d.res
	for w := range res.wins {
		ws := &res.wins[w]
		ws.dur = s.bounds[w+1].Sub(s.bounds[w])
		ws.cpu = s.cpus[w+1] - s.cpus[w]
		ws.selfCPU = s.selfs[w+1] - s.selfs[w]
		ws.bytes, ws.streams = d.wins[w].bytes, d.wins[w].streams
		ws.lat, ws.toTag = d.wins[w].lat, d.wins[w].toTag
	}
	res.failed = d.failedStreams
	if d.cfg.wl.rate > 0 {
		res.attempted, res.failed = int64(d.chunkSeq), d.failedChunks
	}
	res.tags, res.lines, res.respBytes = d.tagCount, d.lines, d.respBytes
	res.batches, res.batchBytes = d.batches, d.batchBytes
	res.spans = append(d.sendSpans, d.recvSpans...)
	res.notes = d.protoErrs
	return res, nil
}
