// Benchmark harness regenerating the paper's evaluation (section 4.3).
//
// Table 1 / figure 15 benches re-run the full generator + technology
// mapper + timing model and attach the paper's metrics (MHz, Gbps, LUTs,
// LUTs/byte) to the benchmark output via ReportMetric, so
//
//	go test -bench Table1 -benchmem
//	go test -bench Figure15
//
// prints the rows the paper reports. Throughput benches compare the
// engines the reproduction provides: the bit-parallel software tagger, the
// gate-level simulation, the LL(1) lexer+parser baseline and the
// Aho–Corasick naive matcher, all over the same generated XML-RPC corpus.
// Ablation benches quantify the design choices called out in DESIGN.md.
package cfgtag

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/fpga"
	"cfgtag/internal/fpx"
	"cfgtag/internal/grammar"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/lexer"
	"cfgtag/internal/match"
	"cfgtag/internal/parser"
	"cfgtag/internal/router"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
	"cfgtag/internal/xmlrpc"
)

// synthesize runs grammar scaling → spec → netlist → mapping once.
func synthesize(b *testing.B, scale int, dev fpga.Device, hopts hwgen.Options) fpga.Report {
	b.Helper()
	g, err := workload.Scale(grammar.XMLRPC(), scale)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := core.Compile(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d, err := hwgen.Generate(spec, hopts)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fpga.Synthesize(d.Netlist, dev, spec.PatternBytes())
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

func reportRow(b *testing.B, rep fpga.Report) {
	b.ReportMetric(rep.FrequencyMHz, "MHz")
	b.ReportMetric(rep.BandwidthGbps(), "Gbps")
	b.ReportMetric(float64(rep.LUTs), "LUTs")
	b.ReportMetric(float64(rep.PatternBytes), "patternB")
	b.ReportMetric(rep.LUTsPerByte(), "LUTs/B")
}

// BenchmarkTable1 regenerates every row of table 1: the VirtexE-2000 at
// ~300 pattern bytes and the Virtex-4 LX200 at the five grammar sizes.
func BenchmarkTable1(b *testing.B) {
	rows := []struct {
		name  string
		scale int
		dev   fpga.Device
	}{
		{"VirtexE2000/300B", 1, fpga.VirtexE2000},
		{"Virtex4LX200/300B", 1, fpga.Virtex4LX200},
		{"Virtex4LX200/600B", 2, fpga.Virtex4LX200},
		{"Virtex4LX200/1200B", 4, fpga.Virtex4LX200},
		{"Virtex4LX200/2100B", 7, fpga.Virtex4LX200},
		{"Virtex4LX200/3000B", 10, fpga.Virtex4LX200},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			var rep fpga.Report
			for i := 0; i < b.N; i++ {
				rep = synthesize(b, row.scale, row.dev, hwgen.Options{})
			}
			reportRow(b, rep)
		})
	}
}

// BenchmarkFigure15 sweeps the frequency-vs-pattern-bytes curve on the
// Virtex-4 LX200 at a finer grain than table 1.
func BenchmarkFigure15(b *testing.B) {
	for scale := 1; scale <= 10; scale++ {
		b.Run(fmt.Sprintf("x%02d", scale), func(b *testing.B) {
			var rep fpga.Report
			for i := 0; i < b.N; i++ {
				rep = synthesize(b, scale, fpga.Virtex4LX200, hwgen.Options{})
			}
			reportRow(b, rep)
			b.ReportMetric(float64(rep.MaxFanout), "fanout")
		})
	}
}

// corpus builds a deterministic XML-RPC message stream shared by the
// throughput benches.
func corpus(b *testing.B, messages int) []byte {
	b.Helper()
	gen := xmlrpc.NewGenerator(424242, xmlrpc.Options{})
	text, _ := gen.Corpus(messages)
	return []byte(text)
}

// BenchmarkStream measures the bit-parallel NFA engine — the software
// stand-in for the 1-byte-per-cycle hardware and the table's fill source,
// a reference no served path runs — over XML-RPC traffic. (Formerly
// BenchmarkSoftwareTagger; the name pairs with BenchmarkDFA and the
// scripts/bench.sh regression rail.)
func BenchmarkStream(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		b.Fatal(err)
	}
	tg := stream.NewTagger(spec)
	data := corpus(b, 200)
	count := 0
	tg.OnMatch = func(stream.Match) { count++ }
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Reset()
		tg.Write(data)
		tg.Close()
	}
	if count == 0 {
		b.Fatal("tagger found nothing")
	}
}

// BenchmarkTagger measures the public Tagger — the engine's shared table
// behind Write, Close and a counting OnMatch, each detection converted
// through the tag table — on BenchmarkStream's workload. The table fills
// on the first pass.
func BenchmarkTagger(b *testing.B) {
	engine, err := Compile("xml-rpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		b.Fatal(err)
	}
	tg := engine.NewTagger()
	data := corpus(b, 200)
	count := 0
	tg.OnMatch = func(Match) { count++ }
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Reset()
		tg.Write(data)
		tg.Close()
	}
	if count == 0 {
		b.Fatal("tagger found nothing")
	}
}

// BenchmarkTagText measures the sink side of a dense tag stream, per tag:
// the pooled conversion of a runtime batch (getBatch), its rendering as
// keyed TAG lines (AppendText) and its release (putBatch), over the batches
// of a 2000-message corpus tagged in 4 KiB chunks, as a MUX session's
// DATA frames arrive.
func BenchmarkTagText(b *testing.B) {
	engine, err := Compile("xml-rpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(b, 2000)
	r := engine.shared().NewRunner()
	var batches []*runtime.Batch
	tags := 0
	for off := 0; off < len(data); off += 4096 {
		chunk := data[off:min(off+4096, len(data))]
		ms, err := r.Write(chunk, nil)
		if err != nil {
			b.Fatal(err)
		}
		batches = append(batches, &runtime.Batch{Key: "s", Data: chunk, Tags: ms, Version: 1})
		tags += len(ms)
	}
	if tags == 0 {
		b.Fatal("corpus produced no tags")
	}
	var buf []byte
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rb := range batches {
			pb := engine.getBatch(rb)
			buf = pb.batch.AppendText(buf[:0], "key-1 ", &total)
			putBatch(pb)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tags), "ns/tag")
}

// sparseCorpus is 20 XML-RPC messages separated by 16 KiB space runs: ~97%
// of the input is delimiter filler, the shape where most bytes leave the
// automaton's state unchanged.
func sparseCorpus() []byte {
	gen := xmlrpc.NewGenerator(424242, xmlrpc.Options{})
	pad := make([]byte, 16<<10)
	for i := range pad {
		pad[i] = ' '
	}
	var data []byte
	for i := 0; i < 20; i++ {
		m, _ := gen.Message()
		data = append(data, m...)
		data = append(data, pad...)
	}
	return data
}

// benchTable builds the xmlrpc table of one kind: lazy (filled by the
// timed loop's first pass) or closed by Determinize.
func benchTable(b *testing.B, closed bool, cfg stream.TableConfig) *stream.Table {
	b.Helper()
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		b.Fatal(err)
	}
	if !closed {
		return stream.NewTable(spec, cfg)
	}
	tbl, err := stream.Determinize(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// runTable tags data b.N times through one runner of tbl, appending each
// pass's matches into one reused buffer, as the pipeline's dispatch unit
// does.
func runTable(b *testing.B, tbl *stream.Table, data []byte) *stream.Runner {
	r := tbl.NewRunner()
	var out []stream.Match
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		out, _ = r.Write(data, out[:0])
		out = r.Close(out)
	}
	if len(out) == 0 {
		b.Fatal("table found nothing")
	}
	return r
}

// BenchmarkDFA measures the lazy table (the served kind) on the same
// workload as BenchmarkStream. The first pass fills it; steady state is
// the table loop BenchmarkAOT runs, and the metrics report how much of the
// run needed a fill.
func BenchmarkDFA(b *testing.B) {
	tbl := benchTable(b, false, stream.TableConfig{})
	r := runTable(b, tbl, corpus(b, 200))
	_, misses, resets := r.CacheStats()
	b.ReportMetric(float64(tbl.States()), "states")
	b.ReportMetric(float64(misses), "misses")
	b.ReportMetric(float64(resets), "resets")
}

// BenchmarkDFASparse measures skip-ahead on delimiter-sparse traffic
// (sparseCorpus) through the lazy table. The accel sub-bench burns runs
// with memchr-style scans; noaccel builds no plans and walks the same
// input byte by byte, isolating the win. BenchmarkDFA (dense traffic) is
// the companion number.
func BenchmarkDFASparse(b *testing.B) {
	data := sparseCorpus()
	for _, cfg := range []struct {
		name string
		conf stream.TableConfig
	}{
		{"accel", stream.TableConfig{}},
		{"noaccel", stream.TableConfig{NoAccel: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			runTable(b, benchTable(b, false, cfg.conf), data)
		})
	}
}

// BenchmarkAOT measures the closed table (Determinize's reference form) on
// the dense workload of BenchmarkDFA: the same loop over a table filled
// before the first byte, so it never misses. The metrics show what the
// closure costs — the start-up cost the served kind avoids by filling on
// demand.
func BenchmarkAOT(b *testing.B) {
	tbl := benchTable(b, true, stream.TableConfig{})
	runTable(b, tbl, corpus(b, 200))
	st := tbl.CompileStats()
	b.ReportMetric(float64(st.States), "states")
	b.ReportMetric(float64(st.TableBytes)/1024, "tableKB")
	b.ReportMetric(float64(st.Duration.Microseconds()), "compile-µs")
}

// BenchmarkAOTSparse is BenchmarkDFASparse on the closed table.
func BenchmarkAOTSparse(b *testing.B) {
	data := sparseCorpus()
	for _, cfg := range []struct {
		name string
		conf stream.TableConfig
	}{
		{"accel", stream.TableConfig{}},
		{"noaccel", stream.TableConfig{NoAccel: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			runTable(b, benchTable(b, true, cfg.conf), data)
		})
	}
}

// BenchmarkParallelTagger scales the public Tagger across cores (one
// message stream per goroutine, each with a Tagger of its own over the
// engine's shared table) — the software analogue of replicating the
// hardware engine.
func BenchmarkParallelTagger(b *testing.B) {
	engine, err := Compile("xml-rpc", XMLRPCSource, FreeRunningStart())
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(b, 200)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tg := engine.NewTagger()
		for pb.Next() {
			if ms := tg.Tag(data); len(ms) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// benchFactory builds the served table's factory outside the timed region.
func benchFactory(b *testing.B, spec *core.Spec) runtime.Factory {
	b.Helper()
	f, _, err := runtime.NewFactory(spec, runtime.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkShardedPipeline measures the sharded runtime on its fastest
// backend (the lazy DFA) against the same engine run serially, over a
// genuinely multi-stream workload: M interleaved XML-RPC streams fed in
// 4 KiB chunks round-robin, the arrival order a multiplexed network
// source would produce. The baseline tags the M streams one after another
// on a single DFA with no dispatch layer; the shards-N/streams-M grid
// dispatches the same chunks through the batched pipeline. Aggregate
// throughput is bytes across all streams per wall-clock second, so the
// grid exposes both the dispatch overhead (shards-1 vs baseline) and the
// scaling GOMAXPROCS allows — on a single-core box the win comes from
// batched dispatch amortizing per-chunk costs, not parallelism.
func BenchmarkShardedPipeline(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(b, 200)
	const chunk = 4 << 10

	b.Run("baseline-dfa-serial", func(b *testing.B) {
		const streams = 8
		d := stream.NewTable(spec, stream.TableConfig{}).NewRunner()
		var out []stream.Match
		b.SetBytes(int64(streams * len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < streams; s++ {
				d.Reset()
				out = out[:0]
				for lo := 0; lo < len(data); lo += chunk {
					hi := lo + chunk
					if hi > len(data) {
						hi = len(data)
					}
					out, _ = d.Write(data[lo:hi], out)
				}
				out = d.Close(out)
			}
		}
		if len(out) == 0 {
			b.Fatal("dfa found nothing")
		}
	})

	// One table, filled by the first pass and shared by every stream's
	// runner; the sub-benchmark names keep their historical form.
	factory := benchFactory(b, spec)
	for _, shards := range []int{1, 2} {
		for _, streams := range []int{8, 32} {
			b.Run(fmt.Sprintf("shards-%d/streams-%d", shards, streams), func(b *testing.B) {
				keys := make([]string, streams)
				for s := range keys {
					keys[s] = fmt.Sprintf("stream-%d", s)
				}
				// One long-lived pipeline for the whole run: streams stay
				// open across iterations, so the shared table warms once
				// and the bench measures the steady state. Close —
				// which drains every queued chunk — stays inside the timed
				// region so all b.N iterations' bytes are fully processed.
				tags := 0
				p, err := runtime.NewPipeline(
					runtime.Config{Shards: shards, Queue: 256, Factory: factory},
					runtime.SinkFunc(func(bt *runtime.Batch) error { tags += len(bt.Tags); return nil }),
				)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(streams * len(data)))
				b.ReportAllocs() // B/op is what a dispatch unit costs per pass
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Interleave chunks across streams, as a multiplexed
					// source would deliver them.
					for lo := 0; lo < len(data); lo += chunk {
						hi := lo + chunk
						if hi > len(data) {
							hi = len(data)
						}
						for _, key := range keys {
							if err := p.Send(key, data[lo:hi]); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if tags == 0 {
					b.Fatal("pipeline delivered no tags")
				}
			})
		}
	}
}

// BenchmarkPipelineOverload measures the admission-control layer. The
// admission-on point runs the exact BenchmarkShardedPipeline workload
// through bounded-wait admission (a generous SendTimeout): the producer
// outruns the DFA shard, so admission waits on the drain signal exactly
// where blocking mode waits on the queue — zero Sends shed, and the
// delta against admission-off is the cost of the watermark check and
// wait loop, which must be noise. The overload-2x point throttles the
// sink so the offered load is about twice what it drains and lets
// immediate shed mode reject the excess: throughput is *offered* bytes
// per second (accepted work plus cheap rejections), and the shed
// fraction is reported per op — a pipeline that sheds the excess while
// continuing to drain at capacity is the contract under overload.
func BenchmarkPipelineOverload(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(b, 200)
	const chunk = 4 << 10
	const streams = 8

	run := func(b *testing.B, cfg runtime.Config, sink runtime.Sink) (sent, shed int64) {
		keys := make([]string, streams)
		for s := range keys {
			keys[s] = fmt.Sprintf("stream-%d", s)
		}
		p, err := runtime.NewPipeline(cfg, sink)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(streams * len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(data); lo += chunk {
				hi := lo + chunk
				if hi > len(data) {
					hi = len(data)
				}
				for _, key := range keys {
					sent++
					if err := p.Send(key, data[lo:hi]); err != nil {
						if errors.Is(err, runtime.ErrOverloaded) {
							shed++
							continue
						}
						b.Fatal(err)
					}
				}
			}
		}
		// Close drains every accepted chunk inside the timed region, so
		// throughput covers fully processed bytes.
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		return sent, shed
	}

	tags := 0
	fastSink := runtime.SinkFunc(func(bt *runtime.Batch) error { tags += len(bt.Tags); return nil })

	b.Run("admission-off", func(b *testing.B) {
		tags = 0
		run(b, runtime.Config{Shards: 2, Queue: 256, Factory: benchFactory(b, spec)}, fastSink)
		if tags == 0 {
			b.Fatal("pipeline delivered no tags")
		}
	})
	b.Run("admission-on", func(b *testing.B) {
		tags = 0
		_, shed := run(b, runtime.Config{
			Shards: 2, Queue: 256, SendTimeout: time.Minute,
			Factory: benchFactory(b, spec),
		}, fastSink)
		if tags == 0 {
			b.Fatal("pipeline delivered no tags")
		}
		if shed != 0 {
			b.Fatalf("unloaded pipeline shed %d sends", shed)
		}
	})
	b.Run("overload-2x", func(b *testing.B) {
		// Coalescing is off so one sink call drains one chunk, making
		// capacity exactly one chunk per sinkDelay. The producer paces
		// itself to offer one chunk per sinkDelay/2 — twice capacity by
		// construction, machine-independent — and immediate shed mode
		// rejects the excess. The interesting outputs are shed-frac
		// (should sit near 0.5) and accepted bytes per op, not ns/op
		// (which the pacing dominates).
		const sinkDelay = time.Millisecond
		var accepted atomic.Int64
		slowSink := runtime.SinkFunc(func(bt *runtime.Batch) error {
			accepted.Add(int64(len(bt.Data)))
			time.Sleep(sinkDelay)
			return nil
		})
		keys := make([]string, streams)
		for s := range keys {
			keys[s] = fmt.Sprintf("stream-%d", s)
		}
		p, err := runtime.NewPipeline(runtime.Config{
			Shards: 2, Queue: 4, BatchBytes: -1, SendTimeout: -1,
			Factory: benchFactory(b, spec),
		}, slowSink)
		if err != nil {
			b.Fatal(err)
		}
		var sent, shed int64
		b.SetBytes(int64(streams * len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(data); lo += chunk {
				hi := lo + chunk
				if hi > len(data) {
					hi = len(data)
				}
				for _, key := range keys {
					sent++
					if err := p.Send(key, data[lo:hi]); err != nil {
						if errors.Is(err, runtime.ErrOverloaded) {
							shed++
							continue
						}
						b.Fatal(err)
					}
				}
				time.Sleep(time.Duration(streams) * sinkDelay / 2)
			}
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(shed)/float64(sent), "shed-frac")
		b.ReportMetric(float64(accepted.Load())/float64(b.N), "accepted-B/op")
	})
}

// BenchmarkTenantGrid measures the multi-tenant platform end to end: T
// tenants, each its own sharded pipeline in the platform's tenant map,
// fed the same interleaved chunked workload as BenchmarkShardedPipeline.
// Each tenant's table fills on the first pass and its streams run off it;
// aggregate throughput is bytes across all tenants per wall-clock
// second. tenants-1 vs BenchmarkShardedPipeline/shards-2/streams-8
// isolates the facade's tenant lookup and decode overhead; the larger grid
// points show how aggregate throughput holds as tenants multiply on
// fixed cores.
func BenchmarkTenantGrid(b *testing.B) {
	data := corpus(b, 200)
	const chunk = 4 << 10
	const streamsPerTenant = 8
	for _, tenants := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("tenants-%d/streams-%d", tenants, streamsPerTenant), func(b *testing.B) {
			cfg := PlatformConfig{}
			names := make([]string, tenants)
			for t := range names {
				names[t] = fmt.Sprintf("tenant-%d", t)
				cfg.Tenants = append(cfg.Tenants, TenantDef{
					Name:    names[t],
					Grammar: grammar.XMLRPCSrc,
					Options: []string{"free-running-start"},
					Shards:  2,
					Queue:   256,
				})
			}
			// Tenant sinks run concurrently; the counter must be atomic.
			var tags atomic.Int64
			p, err := NewPlatform(&cfg, func(_ string, tb *TagBatch) error {
				tags.Add(int64(len(tb.Tags)))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			keys := make([]string, streamsPerTenant)
			for s := range keys {
				keys[s] = fmt.Sprintf("stream-%d", s)
			}
			b.SetBytes(int64(tenants * streamsPerTenant * len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(data); lo += chunk {
					hi := lo + chunk
					if hi > len(data) {
						hi = len(data)
					}
					for _, name := range names {
						for _, key := range keys {
							if err := p.Send(name, key, data[lo:hi]); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
			// Close drains every queued chunk, so all b.N iterations'
			// bytes are fully processed inside the timed region.
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if tags.Load() == 0 {
				b.Fatal("platform delivered no tags")
			}
		})
	}
}

// BenchmarkGateSim measures the cycle-accurate gate-level simulation of
// the same design — the fidelity-over-speed end of the spectrum.
func BenchmarkGateSim(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		b.Fatal(err)
	}
	d, err := hwgen.Generate(spec, hwgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := hwgen.NewRunner(d)
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(b, 5)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms := r.Run(data); len(ms) == 0 {
			b.Fatal("no detections")
		}
	}
}

// BenchmarkLL1Baseline measures the conventional software path: reference
// lexer + table-driven LL(1) predictive parse per message.
func BenchmarkLL1Baseline(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := parser.BuildTable(spec)
	if err != nil {
		b.Fatal(err)
	}
	gen := xmlrpc.NewGenerator(424242, xmlrpc.Options{})
	var msgs [][]byte
	total := 0
	for i := 0; i < 200; i++ {
		m, _ := gen.Message()
		msgs = append(msgs, []byte(m))
		total += len(m) + 1
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			if _, err := tbl.Parse(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkContextFreeLexer measures the plain longest-match scanner —
// tokenization without any syntactic narrowing.
func BenchmarkContextFreeLexer(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(b, 200)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lexer.ScanAll(spec, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveMatcher measures the context-free Aho–Corasick baseline
// over the literal token set (the deep-packet-inspection comparison).
func BenchmarkNaiveMatcher(b *testing.B) {
	g := grammar.XMLRPC()
	var pats []string
	for _, t := range g.Tokens {
		if t.Literal {
			pats = append(pats, t.Name)
		}
	}
	m, err := match.New(pats)
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(b, 200)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Count(data) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkRouter measures the full figure 12 pipeline: tagging + service
// recovery + message switching.
func BenchmarkRouter(b *testing.B) {
	data := corpus(b, 200)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := router.New(router.FigureTwelve(), -1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r.Write(data)
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		if r.Stats().Messages != 200 {
			b.Fatalf("routed %d", r.Stats().Messages)
		}
	}
}

// BenchmarkFalsePositives quantifies the section 1 motivation: how often
// the naive matcher fires on service keywords outside methodName, versus
// the context-gated tagger. Reported as metrics, not time.
func BenchmarkFalsePositives(b *testing.B) {
	// Traffic whose parameter strings frequently spell service names.
	gen := xmlrpc.NewGenerator(7, xmlrpc.Options{Service: "price"})
	var buf []byte
	realOccurrences := 0
	for i := 0; i < 100; i++ {
		m, _ := gen.Message()
		// Inject a decoy parameter containing a bank service name.
		decoy := "<param> <string>withdraw</string> </param> "
		m = m[:len(m)-len("</params> </methodCall>")] + decoy + "</params> </methodCall>"
		buf = append(buf, m...)
		buf = append(buf, '\n')
		realOccurrences++ // one real "price" per message
	}
	services := append(append([]string{}, xmlrpc.BankServices...), xmlrpc.ShoppingServices...)
	m, err := match.New(services)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		b.Fatal(err)
	}
	var nameIDs []int
	for _, in := range spec.Instances {
		if in.Rule >= 0 && spec.Grammar.Rules[in.Rule].LHS == "methodName" && in.Term == "STRING" {
			nameIDs = append(nameIDs, in.ID)
		}
	}
	tg := stream.NewTagger(spec)

	var naive, contextual int
	for i := 0; i < b.N; i++ {
		naive = m.Count(buf)
		contextual = 0
		tg.Reset()
		tg.OnMatch = func(mt stream.Match) {
			for _, id := range nameIDs {
				if mt.InstanceID == id {
					contextual++
				}
			}
		}
		tg.Write(buf)
		tg.Close()
	}
	b.ReportMetric(float64(naive-realOccurrences), "naiveFP")
	b.ReportMetric(float64(contextual-realOccurrences), "taggerFP")
	if contextual != realOccurrences {
		b.Fatalf("tagger fired %d times, want %d", contextual, realOccurrences)
	}
	if naive <= realOccurrences {
		b.Fatalf("decoys did not trip the naive matcher (%d)", naive)
	}
}

// BenchmarkNIDSScale sweeps the section 1 motivation across signature-set
// sizes: a command protocol with N signatures, traffic whose LOG payloads
// frequently mention signature names harmlessly. The naive matcher's false
// positives grow with the decoy traffic; the context-wired tagger's stay
// at zero. Throughput of both engines is measured on the same corpus.
func BenchmarkNIDSScale(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		g, sigs := workload.SignatureGrammar(n)
		// Anchored start: the stream is one session, so command position
		// is defined by the wiring alone (free-running would re-arm the
		// signature tokenizers at every byte and fire on payloads too).
		spec, err := core.Compile(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		data, real := workload.SignatureCorpus(rng, sigs, 2000, 0.5)

		// Which instances are signature keywords in command position?
		sigInstance := make(map[int]bool)
		for _, in := range spec.Instances {
			if in.Term != "WORD" && in.Term != "LOG" {
				sigInstance[in.ID] = true
			}
		}
		m, err := match.New(sigs)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("tagger/%dsigs", n), func(b *testing.B) {
			tg := stream.NewTagger(spec)
			hits := 0
			tg.OnMatch = func(mt stream.Match) {
				if sigInstance[mt.InstanceID] {
					hits++
				}
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits = 0
				tg.Reset()
				tg.Write(data)
				tg.Close()
			}
			if hits != real {
				b.Fatalf("tagger hits %d, want %d real", hits, real)
			}
			b.ReportMetric(0, "falsePos")
		})
		b.Run(fmt.Sprintf("naive/%dsigs", n), func(b *testing.B) {
			hits := 0
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits = m.Count(data)
			}
			if hits <= real {
				b.Fatalf("naive hits %d; decoys missing (real %d)", hits, real)
			}
			b.ReportMetric(float64(hits-real), "falsePos")
		})
	}
}

// Ablation benches: the design choices DESIGN.md calls out.

// BenchmarkAblationEncoder compares the pipelined OR-tree encoder with the
// naive combinational chain (section 3.4): same function, but the chain's
// logic depth wrecks the achievable clock.
func BenchmarkAblationEncoder(b *testing.B) {
	b.Run("pipelined-tree", func(b *testing.B) {
		var rep fpga.Report
		for i := 0; i < b.N; i++ {
			rep = synthesize(b, 1, fpga.Virtex4LX200, hwgen.Options{})
		}
		b.ReportMetric(float64(rep.LogicDepth), "depth")
		b.ReportMetric(rep.FrequencyMHz, "MHz")
	})
	b.Run("naive-chain", func(b *testing.B) {
		var rep fpga.Report
		for i := 0; i < b.N; i++ {
			rep = synthesize(b, 1, fpga.Virtex4LX200, hwgen.Options{NaiveEncoder: true})
		}
		b.ReportMetric(float64(rep.LogicDepth), "depth")
		b.ReportMetric(1000/rep.PeriodNs(rep.LogicDepth), "MHz")
	})
}

// BenchmarkAblationDecoderSharing quantifies the paper's LUT/byte
// observation: shared decoders amortize, private ones do not.
func BenchmarkAblationDecoderSharing(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		var rep fpga.Report
		for i := 0; i < b.N; i++ {
			rep = synthesize(b, 1, fpga.Virtex4LX200, hwgen.Options{})
		}
		b.ReportMetric(float64(rep.LUTs), "LUTs")
	})
	b.Run("private", func(b *testing.B) {
		var rep fpga.Report
		for i := 0; i < b.N; i++ {
			rep = synthesize(b, 1, fpga.Virtex4LX200, hwgen.Options{NoDecoderSharing: true})
		}
		b.ReportMetric(float64(rep.LUTs), "LUTs")
	})
}

// BenchmarkAblationWiring compares the follow-set wiring against enabling
// every tokenizer all the time: area and (more importantly) precision.
func BenchmarkAblationWiring(b *testing.B) {
	data := corpus(b, 50)
	run := func(b *testing.B, copts core.Options) int {
		spec, err := core.Compile(grammar.XMLRPC(), copts)
		if err != nil {
			b.Fatal(err)
		}
		tg := stream.NewTagger(spec)
		count := 0
		tg.OnMatch = func(stream.Match) { count++ }
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count = 0
			tg.Reset()
			tg.Write(data)
			tg.Close()
		}
		return count
	}
	var wired, unwired int
	b.Run("follow-wiring", func(b *testing.B) {
		wired = run(b, core.Options{FreeRunningStart: true})
		b.ReportMetric(float64(wired), "detections")
	})
	b.Run("all-enabled", func(b *testing.B) {
		unwired = run(b, core.Options{AllEnabled: true})
		b.ReportMetric(float64(unwired), "detections")
	})
}

// BenchmarkAblationLongestMatch shows the figure 7 lookahead suppressing
// per-cycle over-tagging on runs.
func BenchmarkAblationLongestMatch(b *testing.B) {
	data := corpus(b, 50)
	run := func(b *testing.B, copts core.Options) int {
		spec, err := core.Compile(grammar.XMLRPC(), copts)
		if err != nil {
			b.Fatal(err)
		}
		tg := stream.NewTagger(spec)
		count := 0
		tg.OnMatch = func(stream.Match) { count++ }
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count = 0
			tg.Reset()
			tg.Write(data)
			tg.Close()
		}
		return count
	}
	b.Run("lookahead", func(b *testing.B) {
		n := run(b, core.Options{FreeRunningStart: true})
		b.ReportMetric(float64(n), "detections")
	})
	b.Run("no-lookahead", func(b *testing.B) {
		n := run(b, core.Options{FreeRunningStart: true, NoLongestMatch: true})
		b.ReportMetric(float64(n), "detections")
	})
}

// BenchmarkAblationFanoutCap evaluates the section 4.3 improvement the
// paper proposes but does not build: replicating decoders to bound the
// decoded-wire fanout. On the ≈3000-byte grammar the baseline loses the
// clock to routing (316 MHz); capping recovers frequency for a small LUT
// overhead until some non-decoder net becomes critical.
func BenchmarkAblationFanoutCap(b *testing.B) {
	for _, cap := range []int{0, 256, 128, 64, 32} {
		b.Run(fmt.Sprintf("cap%03d", cap), func(b *testing.B) {
			var rep fpga.Report
			for i := 0; i < b.N; i++ {
				rep = synthesize(b, 10, fpga.Virtex4LX200, hwgen.Options{MaxFanout: cap})
			}
			b.ReportMetric(rep.FrequencyMHz, "MHz")
			b.ReportMetric(float64(rep.LUTs), "LUTs")
			b.ReportMetric(float64(rep.MaxFanout), "fanout")
		})
	}
}

// BenchmarkWideDatapath projects the section 5.2 datapath scaling ("32-bits
// or 64-bits per clock cycle") for the XML-RPC design.
func BenchmarkWideDatapath(b *testing.B) {
	base := synthesize(b, 1, fpga.Virtex4LX200, hwgen.Options{})
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dB", lanes), func(b *testing.B) {
			var p fpga.WideProjection
			for i := 0; i < b.N; i++ {
				var err error
				p, err = fpga.ProjectWide(base, lanes)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.FrequencyMHz, "MHz")
			b.ReportMetric(p.BandwidthGbps(), "Gbps")
			b.ReportMetric(float64(p.LUTs), "LUTs")
		})
	}
}

// BenchmarkWide2Synthesis maps the actually-built 2-byte datapath (not the
// analytical projection): area and modeled clock for the XML-RPC design,
// with throughput at 2 bytes per cycle.
func BenchmarkWide2Synthesis(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var rep fpga.Report
	for i := 0; i < b.N; i++ {
		d, err := hwgen.GenerateWide2(spec, hwgen.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err = fpga.Synthesize(d.Netlist, fpga.Virtex4LX200, spec.PatternBytes())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.FrequencyMHz, "MHz")
	b.ReportMetric(rep.FrequencyMHz*16/1000, "Gbps") // 2 bytes per cycle
	b.ReportMetric(float64(rep.LUTs), "LUTs")
}

// BenchmarkFPXPipeline measures the full packets-in, routed-messages-out
// path of the section 5.2 FPX integration: IPv4/TCP parsing, per-flow
// reassembly, tagging and content-based routing.
func BenchmarkFPXPipeline(b *testing.B) {
	gen := xmlrpc.NewGenerator(31, xmlrpc.Options{})
	corpusText, _ := gen.Corpus(100)
	key := fpx.FlowKey{
		Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 8700,
	}
	pkts := fpx.Segmentize(key, 1, []byte(corpusText+"\n"), 1400)
	total := 0
	for _, p := range pkts {
		total += len(p)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sp := fpx.NewSplitter()
		routed := 0
		sp.NewFlow = func(fpx.FlowKey) io.WriteCloser {
			r, err := router.New(router.FigureTwelve(), -1)
			if err != nil {
				b.Fatal(err)
			}
			r.OnRoute = func(int, string, []byte) { routed++ }
			return r
		}
		b.StartTimer()
		for _, p := range pkts {
			if err := sp.Process(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := sp.CloseAll(); err != nil {
			b.Fatal(err)
		}
		if routed != 100 {
			b.Fatalf("routed %d", routed)
		}
	}
}

// BenchmarkCompile measures end-to-end generator latency: grammar text to
// ready spec (the paper's "automatically generated" claim, timed).
func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := grammar.Parse("xml-rpc", grammar.XMLRPCSrc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Compile(g, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHardwareGenerate measures spec-to-netlist lowering.
func BenchmarkHardwareGenerate(b *testing.B) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := hwgen.Generate(spec, hwgen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
