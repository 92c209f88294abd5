package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"syscall"
	"time"

	"cfgtag"
)

const tenantName = "xml"

// tenantDef is the fixed tenant every layer runs: the figure-14 grammar,
// free-running start, 2 shards, queue 256, everything else default. Only
// the backend differs between workloads.
func tenantDef(backend string) cfgtag.TenantDef {
	return cfgtag.TenantDef{
		Name:    tenantName,
		Grammar: cfgtag.XMLRPCSource,
		Options: []string{"free-running-start"},
		Backend: backend,
		Shards:  2,
		Queue:   256,
	}
}

func compileEngine() (*cfgtag.Engine, error) {
	return cfgtag.Compile(tenantName, cfgtag.XMLRPCSource, cfgtag.FreeRunningStart())
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func selfCPUClock() (time.Duration, error) { return selfCPU(), nil }

// ---- serve: the CFGTAG/1 MUX socket of the child process ----

type sockTarget struct {
	w      *bufio.Writer
	hdr    []byte
	frames int64
}

func (t *sockTarget) open(r *rec) error {
	t.hdr = appendOpen(t.hdr[:0], r.key)
	t.frames++
	_, err := t.w.Write(t.hdr)
	return err
}

func (t *sockTarget) data(r *rec, p []byte) error {
	t.hdr = appendDataHeader(t.hdr[:0], r.key, len(p))
	t.frames++
	t.w.Write(t.hdr)
	t.w.Write(p)
	return t.w.WriteByte('\n') // bufio errors are sticky
}

func (t *sockTarget) closeStream(r *rec) error {
	t.hdr = appendClose(t.hdr[:0], r.key)
	t.frames++
	_, err := t.w.Write(t.hdr)
	return err
}

func (t *sockTarget) flush() error { return t.w.Flush() }

// runSocketPass drives one MUX connection with one writer (the load loop)
// and one reader goroutine.
func runSocketPass(cfg passConfig, addr string) (*passResult, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := conn.Write(appendHandshake(nil, tenantName)); err != nil {
		return nil, err
	}
	d := newDriver(cfg)
	tgt := &sockTarget{w: bufio.NewWriterSize(conn, 64<<10)}
	d.tgt = tgt
	readErr := make(chan error, 1)
	d.afterLoop = func() error {
		conn.Close()
		if err := <-readErr; err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
			return fmt.Errorf("socket reader: %w", err)
		}
		return nil
	}
	go func() { readErr <- d.readLoop(conn) }()
	res, err := d.run()
	if err != nil {
		return nil, err
	}
	res.frames = tgt.frames
	return res, nil
}

// ---- engine and facade: cfgtag.Backend, one stream at a time ----

// backendTarget feeds a single Backend synchronously. With drain=false
// it is the engine boundary (matches stay inside the backend and are only
// counted); with drain=true it is the facade boundary (Backend.Matches
// converts every match after every Feed).
type backendTarget struct {
	d      *driver
	b      *cfgtag.Backend
	drain  bool
	before int64
}

func (t *backendTarget) open(r *rec) error {
	t.b.Reset()
	t.before = t.b.Counters().Matches
	return nil
}

func (t *backendTarget) take(r *rec) {
	ms := t.b.Matches()
	if len(ms) == 0 {
		return
	}
	for i := range ms {
		r.sumEnd += ms[i].End
	}
	r.tags += len(ms)
	t.d.onTags(r, ms[len(ms)-1].End, t.d.now())
}

func (t *backendTarget) data(r *rec, p []byte) error {
	if err := t.b.Feed(p); err != nil {
		return err
	}
	if t.drain {
		t.take(r)
	}
	return nil
}

func (t *backendTarget) closeStream(r *rec) error {
	if err := t.b.Close(); err != nil {
		return err
	}
	ok := false
	if t.drain {
		t.take(r)
		ok = r.tags == r.v.tags && r.sumEnd == r.v.sumEnd
	} else {
		r.tags = int(t.b.Counters().Matches - t.before)
		ok = r.tags == r.v.tags
		// The engine boundary answers no chunk; drop its marks.
		r.popped = int(r.pushed.Load())
	}
	if !ok {
		t.d.protoErr("stream %s: %d tags, oracle %d", r.key, r.tags, r.v.tags)
	}
	t.d.onEnd(r, ok, t.d.now())
	return nil
}

func (t *backendTarget) flush() error { return nil }

// ---- pipeline and platform: Send/CloseStream → deliver callback ----

type sendTarget struct {
	send  func(key string, p []byte) error
	close func(key string) error
}

func (t *sendTarget) open(r *rec) error                            { return nil }
func (t *sendTarget) data(r *rec, p []byte) error                  { return t.send(r.key, p) }
func (t *sendTarget) closeStream(r *rec) error                     { return t.close(r.key) }
func (t *sendTarget) flush() error                                 { return nil }
func (d *driver) deliverTenant(_ string, b *cfgtag.TagBatch) error { return d.deliver(b) }

// deliver is the sink callback of the pipeline and platform boundaries.
func (d *driver) deliver(b *cfgtag.TagBatch) error {
	now := d.now()
	d.batches++
	d.batchBytes += int64(len(b.Data))
	r := lookup(d, b.Stream)
	if r == nil {
		d.protoErr("batch for unknown stream %q", b.Stream)
		return nil
	}
	if n := len(b.Tags); n > 0 {
		for i := range b.Tags {
			r.sumEnd += b.Tags[i].End
		}
		r.tags += n
		d.onTags(r, b.Tags[n-1].End, now)
	}
	if b.EOS {
		ok := b.Err == nil && !b.Evicted && r.tags == r.v.tags && r.sumEnd == r.v.sumEnd
		if !ok {
			d.protoErr("stream %s: %d tags, oracle %d, err %v", r.key, r.tags, r.v.tags, b.Err)
		}
		d.onEnd(r, ok, now)
	}
	return nil
}

// layerExtra carries the counters only one layer can supply.
type layerExtra struct {
	counters      cfgtag.BackendCounters
	compile       cfgtag.CompileStats
	compileWall   time.Duration
	queueDepthMax int
	sendsShed     int64
	mallocs       uint64
	allocBytes    uint64
}

// runLayerPass replays the workload through one in-process boundary.
func runLayerPass(layer string, cfg passConfig, eng *cfgtag.Engine) (*passResult, *layerExtra, error) {
	cfg.layer = layer
	cfg.cpu = selfCPUClock
	kind := cfgtag.BackendKind(cfg.wl.backend)
	var ex layerExtra
	var d *driver
	var closeLayer func() error
	var after func()

	switch layer {
	case "engine", "facade":
		// One Backend, so one stream at a time: the same bytes and the
		// same chunking as the socket pass, without the interleaving.
		cfg.slots = 1
		d = newDriver(cfg)
		t0 := time.Now()
		b, err := eng.NewBackend(kind)
		if err != nil {
			return nil, nil, err
		}
		ex.compileWall = time.Since(t0)
		d.tgt = &backendTarget{d: d, b: b, drain: layer == "facade"}
		after = func() { ex.counters, ex.compile = b.Counters(), b.CompileStats() }
	case "pipeline":
		d = newDriver(cfg)
		def := tenantDef(cfg.wl.backend)
		var m cfgtag.Metrics
		p, err := eng.NewPipeline(cfgtag.PipelineConfig{Backend: kind, Shards: def.Shards, Queue: def.Queue, Metrics: &m}, d.deliver)
		if err != nil {
			return nil, nil, err
		}
		d.tgt = &sendTarget{send: p.Send, close: p.CloseStream}
		closeLayer = p.Close
		after = func() {
			ex.counters, ex.queueDepthMax = m.Snapshot()
			ex.sendsShed = m.Faults().SendsShed
		}
	case "platform":
		d = newDriver(cfg)
		p, err := cfgtag.NewPlatform(&cfgtag.PlatformConfig{Tenants: []cfgtag.TenantDef{tenantDef(cfg.wl.backend)}}, d.deliverTenant)
		if err != nil {
			return nil, nil, err
		}
		d.tgt = &sendTarget{
			send:  func(key string, b []byte) error { return p.Send(tenantName, key, b) },
			close: func(key string) error { return p.CloseStream(tenantName, key) },
		}
		closeLayer = p.Close
		after = func() {
			ex.counters, ex.queueDepthMax, _ = p.Metrics(tenantName)
			if f, err := p.Faults(tenantName); err == nil {
				ex.sendsShed = f.SendsShed
			}
		}
	default:
		return nil, nil, fmt.Errorf("unknown layer %q", layer)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := d.run()
	runtime.ReadMemStats(&m1)
	ex.mallocs, ex.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if err == nil {
		after()
	}
	if closeLayer != nil {
		if cerr := closeLayer(); err == nil && cerr != nil {
			err = fmt.Errorf("%s close: %w", layer, cerr)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return res, &ex, nil
}
