package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric; BENCHMARK.json lists the same tables (a
// test keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is measured with tracing off, on every workload. The three
// *_vs_ref metrics are the server's value as a percentage of the
// reference server's under the same load in the same run: the host's
// speed wanders by a quarter over minutes, and dividing by a fixed
// program measured at the same moment takes that out (README, "Noise").
// The absolute values are in the report line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tag_mbps_vs_ref", "%", "higher", 0.20},
	{"chunk_lat_p50_vs_ref", "%", "lower", 0.25},
	{"cpu_ns_per_byte_vs_ref", "%", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.25},
}

// layers, bottom to top. Each boundary's cost includes the ones below it;
// self_cpu_ns_per_byte is the difference to the boundary below.
var layers = []string{"engine", "facade", "pipeline", "platform", "serve"}

// perLayer is measured by --trace 1.
var perLayer = perLayerDefs()

func perLayerDefs() []metricDef {
	var ds []metricDef
	add := func(name, unit, better string) { ds = append(ds, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, l := range layers {
		add(l+".wall_ns_per_byte", "ns/B", "lower")
		add(l+".cpu_ns_per_byte", "ns/B", "lower")
		add(l+".self_cpu_ns_per_byte", "ns/B", "lower")
		add(l+".calls", "count", "lower")
		add(l+".bytes", "B", "higher")
		add(l+".tags", "count", "higher")
		add(l+".failed", "count", "lower")
		if l != "serve" {
			add(l+".allocs_per_kb", "1/KiB", "lower")
			add(l+".alloc_bytes_per_kb", "B/KiB", "lower")
			add(l+".call_p50_ns", "ns", "lower")
			add(l+".call_p99_ns", "ns", "lower")
		}
		if l != "engine" && l != "facade" {
			add(l+".chunk_to_tag_p50_us", "us", "lower")
			add(l+".chunk_to_tag_p99_us", "us", "lower")
		}
	}
	add("engine.tags_per_kb", "1/KiB", "higher")
	add("engine.dfa_cache_hits", "count", "higher")
	add("engine.dfa_cache_misses", "count", "lower")
	add("engine.dfa_cache_resets", "count", "lower")
	add("engine.aot_states", "count", "lower")
	add("engine.aot_table_bytes", "B", "lower")
	add("engine.compile_ms", "ms", "lower")
	add("pipeline.batches_out", "count", "lower")
	add("pipeline.bytes_per_batch", "B", "higher")
	add("pipeline.queue_depth_max", "count", "lower")
	add("pipeline.sends_shed", "count", "lower")
	add("platform.queue_depth_max", "count", "lower")
	add("platform.live_streams_max", "count", "lower")
	add("serve.frames_in", "count", "lower")
	add("serve.lines_out", "count", "higher")
	add("serve.out_bytes_per_in_byte", "B/B", "lower")
	add("serve.sessions_opened", "count", "higher")
	add("serve.slow_consumers", "count", "lower")
	add("serve.refused", "count", "lower")
	add("serve.streams_per_s", "1/s", "higher")
	add("serve.chunk_lat_p50_us", "us", "lower")
	add("serve.chunk_lat_p90_us", "us", "lower")
	add("serve.chunk_lat_p99_us", "us", "lower")
	add("serve.tag_mbps_untraced", "MB/s", "higher")
	add("serve.tag_mbps_traced", "MB/s", "higher")
	add("serve.trace_overhead_pct", "%", "lower")
	add("gen.late_p99_us", "us", "lower")
	add("gen.late_max_us", "us", "lower")
	add("gen.cpu_ns_per_byte", "ns/B", "lower")
	return ds
}

// probeChild opens a MUX connection, tags one message and verifies the
// response: the end of the set-up interval.
func probeChild(addr string, probe *variant, ref bool) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	req := appendHandshake(nil, tenantName)
	req = appendOpen(req, "p")
	req = appendDataHeader(req, "p", len(probe.data))
	req = append(append(req, probe.data...), '\n')
	req = appendClose(req, "p")
	if _, err := conn.Write(req); err != nil {
		return err
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		key, rest, kind, n := parseLine(sc.Bytes())
		if string(key) != "p" || kind == lineBad || kind == lineErr {
			return fmt.Errorf("unexpected response %q", sc.Text())
		}
		h.Write(rest)
		h.WriteByte('\n')
		if kind == lineEnd {
			if ref && int(n) == probe.refTags {
				return nil
			}
			if h.Sum64() != probe.hash {
				return errors.New("response differs from the oracle")
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("connection closed before END")
}

// totals is a pass's windows summed.
type totals struct {
	dur, cpu, selfCPU time.Duration
	bytes, streams    int64
	call, toTag, lat  []int64
}

func passTotals(res *passResult) totals {
	var t totals
	for i := range res.wins {
		w := &res.wins[i]
		t.dur += w.dur
		t.cpu += w.cpu
		t.selfCPU += w.selfCPU
		t.bytes += w.bytes
		t.streams += w.streams
		t.call = append(t.call, w.call...)
		t.toTag = append(t.toTag, w.toTag...)
		t.lat = append(t.lat, w.lat...)
	}
	return t
}

// layerMetrics fills the rows every layer has. It returns the layer's
// cumulative CPU per byte for the ledger subtraction.
func layerMetrics(m map[string]float64, l string, res *passResult) float64 {
	t := passTotals(res)
	m[l+".wall_ns_per_byte"] = ratio(float64(t.dur), float64(t.bytes))
	m[l+".cpu_ns_per_byte"] = ratio(float64(t.cpu), float64(t.bytes))
	m[l+".calls"] = float64(res.calls)
	m[l+".bytes"] = float64(res.bytesSent)
	m[l+".tags"] = float64(res.tags)
	m[l+".failed"] = float64(res.failed)
	ps := durationsPercentiles(t.call, 50, 99)
	m[l+".call_p50_ns"], m[l+".call_p99_ns"] = ps[0], ps[1]
	ps = durationsPercentiles(t.toTag, 50, 99)
	m[l+".chunk_to_tag_p50_us"], m[l+".chunk_to_tag_p99_us"] = ps[0]/1e3, ps[1]/1e3
	return m[l+".cpu_ns_per_byte"]
}

// runTraced measures the per-layer metrics: an untraced and a traced
// socket pass against the child, then the same input and chunking through
// the four in-process boundaries.
func runTraced(e *env, socketT, layerT timing) (*result, *report, error) {
	rep := e.report(true)
	rep.Timing = map[string]any{
		"socket_pass": map[string]any{"warm_s": socketT.warm.Seconds(), "windows": socketT.windows, "window_s": socketT.window.Seconds()},
		"layer_pass":  map[string]any{"warm_s": layerT.warm.Seconds(), "windows": layerT.windows, "window_s": layerT.window.Seconds()},
	}
	m := map[string]float64{}
	var attempted, failed int64
	var spans []span
	count := func(res *passResult) {
		attempted += res.attempted
		failed += res.failed
		spans = append(spans, res.spans...)
		rep.Notes = append(rep.Notes, res.notes...)
	}

	// Each socket pass gets a fresh child, so that whatever the first pass
	// left behind in the server does not pass for tracing overhead.
	var serve [2]*passResult
	var scraped map[string]float64
	for i, trace := range []bool{false, true} {
		res, sc, _, _, err := e.socketPass(socketT, trace, false)
		if err != nil {
			return nil, nil, err
		}
		serve[i], scraped = res, sc
		count(res)
	}

	var below float64
	t0 := time.Now()
	if _, err := compileEngine(); err != nil {
		return nil, nil, err
	}
	grammarCompile := time.Since(t0)
	for _, l := range layers[:4] {
		res, ex, err := runLayerPass(l, e.pass(l, layerT, true), e.eng)
		if err != nil {
			return nil, nil, err
		}
		count(res)
		cum := layerMetrics(m, l, res)
		m[l+".self_cpu_ns_per_byte"] = cum - below
		below = cum
		kb := float64(res.bytesSent) / 1024
		m[l+".allocs_per_kb"] = ratio(float64(ex.mallocs), kb)
		m[l+".alloc_bytes_per_kb"] = ratio(float64(ex.allocBytes), kb)
		switch l {
		case "engine":
			m["engine.tags_per_kb"] = ratio(float64(res.tags), kb)
			m["engine.dfa_cache_hits"] = float64(ex.counters.CacheHits)
			m["engine.dfa_cache_misses"] = float64(ex.counters.CacheMisses)
			m["engine.dfa_cache_resets"] = float64(ex.counters.CacheResets)
			m["engine.aot_states"] = float64(ex.compile.States)
			m["engine.aot_table_bytes"] = float64(ex.compile.TableBytes)
			m["engine.compile_ms"] = float64(grammarCompile+ex.compileWall) / 1e6
		case "pipeline":
			m["pipeline.batches_out"] = float64(res.batches)
			m["pipeline.bytes_per_batch"] = ratio(float64(res.batchBytes), float64(res.batches))
			m["pipeline.queue_depth_max"] = float64(ex.queueDepthMax)
			m["pipeline.sends_shed"] = float64(ex.sendsShed)
		case "platform":
			m["platform.queue_depth_max"] = float64(ex.queueDepthMax)
			m["platform.live_streams_max"] = float64(res.liveMax)
		}
	}

	un, tr := serve[0], serve[1]
	cum := layerMetrics(m, "serve", tr)
	m["serve.self_cpu_ns_per_byte"] = cum - below
	m["serve.frames_in"] = float64(tr.frames)
	m["serve.lines_out"] = float64(tr.lines)
	m["serve.out_bytes_per_in_byte"] = ratio(float64(tr.respBytes), float64(tr.bytesSent))
	m["serve.sessions_opened"] = scraped["serve_sessions_opened_total"]
	m["serve.slow_consumers"] = scraped["serve_slow_consumers_total"]
	m["serve.refused"] = scraped["serve_refused_total"]
	m["serve.chunk_lat_p99_us"] = durationsPercentiles(passTotals(tr).lat, 99)[0] / 1e3
	e2e := map[string]float64{}
	e2eFromPass(e2e, un)
	m["serve.tag_mbps_untraced"] = e2e["tag_mbps"]
	m["serve.streams_per_s"] = e2e["streams_per_s"]
	m["serve.chunk_lat_p50_us"], m["serve.chunk_lat_p90_us"] = e2e["chunk_lat_p50_us"], e2e["chunk_lat_p90_us"]
	e2eFromPass(e2e, tr)
	m["serve.tag_mbps_traced"] = e2e["tag_mbps"]
	m["serve.trace_overhead_pct"] = 100 * ratio(m["serve.tag_mbps_untraced"]-m["serve.tag_mbps_traced"], m["serve.tag_mbps_untraced"])
	m["gen.cpu_ns_per_byte"] = e2e["gen.cpu_ns_per_byte"]
	if err := genGuards(e.wl, tr, m); err != nil {
		return nil, nil, err
	}
	rep.Windows = windowReport(tr)

	if err := writeSpans(e.wl.name, spans); err != nil {
		return nil, nil, err
	}
	out, err := buildResult(perLayer, m, attempted, failed)
	return out, rep, err
}

// writeSpans dumps the spans kept in memory during the traced passes.
func writeSpans(workload string, spans []span) error {
	if err := os.MkdirAll("bench_out", 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join("bench_out", "trace-"+workload+".jsonl"), buf.Bytes(), 0o644)
}

// runSmoke exercises every workload and every pass briefly: one window of
// half a second per pass, traced.
func runSmoke(seed int64) error {
	t := timing{warm: 100 * time.Millisecond, windows: 1, window: 500 * time.Millisecond}
	for i := range workloads {
		e, err := newEnv(&workloads[i], seed)
		if err != nil {
			return err
		}
		res, rep, err := runTraced(e, t, t)
		e.cleanup()
		if err != nil {
			return fmt.Errorf("%s: %w", workloads[i].name, err)
		}
		if err := emit(rep, res); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed: %v", workloads[i].name, res.Failed, res.Attempted, rep.Notes)
		}
	}
	return nil
}

// runAgree runs two full untraced sets with the same seed and compares
// every end-to-end metric's two values per workload against its bound.
func runAgree(seed int64, seconds float64) error {
	var sets [2]map[string]*result
	for s := range sets {
		sets[s] = map[string]*result{}
		for i := range workloads {
			wl := &workloads[i]
			fmt.Fprintf(os.Stderr, "set %d: %s\n", s+1, wl.name)
			e, err := newEnv(wl, seed)
			if err != nil {
				return err
			}
			res, rep, err := runUntraced(e, seconds)
			e.cleanup()
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed: %v", wl.name, res.Failed, res.Attempted, rep.Notes)
			}
			sets[s][wl.name] = res
		}
	}
	bad := 0
	fmt.Printf("%-11s %-18s %-6s %14s %14s %8s %7s\n", "workload", "metric", "unit", "set 1", "set 2", "diff", "bound")
	for i := range workloads {
		for _, d := range endToEnd {
			a := sets[0][workloads[i].name].Metrics[d.Name].Value
			b := sets[1][workloads[i].name].Metrics[d.Name].Value
			diff := ratio(b-a, a)
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-11s %-18s %-6s %14.4f %14.4f %7.2f%% %6.0f%%%s\n", workloads[i].name, d.Name, d.Unit, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) differ between the two sets by more than their bound", bad)
	}
	return nil
}
