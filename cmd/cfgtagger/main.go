// Command cfgtagger compiles a grammar into a token-tagging engine and
// tags a byte stream, printing one line per detection: offset, token
// index, terminal and grammatical context. It is the command-line face of
// the paper's architecture.
//
// Usage:
//
//	cfgtagger -builtin xmlrpc -in message.xml
//	cfgtagger -grammar my.y -free < stream.bin
//	cfgtagger -builtin ifthenelse -show-wiring
//	cfgtagger -builtin ifthenelse -backend gates -in program.txt
//
// -backend selects the execution path: "stream" (the bit-parallel software
// engine, default), "dfa" (the lazily-determinized cached compilation of
// the same engine — identical output, highest throughput) or "aot" (the
// ahead-of-time determinized compilation — the whole DFA is built to
// closure up front into flat tables, so tagging pays no cache lookups and
// can never hit a runtime state-budget reset; fails fast if the grammar
// does not close within the state budget). Three reference paths run
// single-stream only: "gates" (cycle-accurate simulation of the generated
// netlist), "parser" (the LL(1) baseline, which also prints the
// accept/reject verdict) and "earley" (the exact-language oracle — any
// grammar class, tags unioned over all derivations, accept/reject verdict
// printed like the parser's).
//
// -shards N switches to pipeline mode: every input line becomes its own
// keyed stream, tagged concurrently on N shards and printed in per-stream
// order; it serves stream, dfa and aot and rejects the reference paths.
// -max-streams and -quarantine expose the pipeline's resource
// governance, and -chaos injects backend faults (errors, panics, latency)
// to demonstrate the fault-tolerance layer — faulted streams end with an
// error, the rest are unaffected, and the fault counters are printed:
//
//	cfgtagger -builtin ifthenelse -free -shards 4 -chaos 0.05 -in lines.txt
//
// -config FILE switches to multi-tenant platform mode: the JSON file
// declares one pipeline per tenant (grammar, backend, shards, quotas — see
// cfgtag.PlatformConfig), every input line "tenant|payload" is tagged as
// its own stream of that tenant, and SIGHUP re-reads the config and
// hot-swaps changed grammars with zero downtime — live streams finish on
// the grammar that started them:
//
//	cfgtagger -config platform.json -in lines.txt
//
// -listen / -listen-http add network stream inputs on top of -config:
// TCP connections speak the CFGTAG/1 protocol (one dedicated stream per
// connection, or many keyed streams multiplexed over one), HTTP serves
// one stream per chunked POST body plus /metrics and /healthz, and tag
// events are written back to each client as newline-delimited text.
// SIGHUP reloads grammars with zero downtime; SIGTERM drains gracefully
// (stop accepting, flush every live stream's final batch, close):
//
//	cfgtagger -config platform.json -listen :7733 -listen-http :7734
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cfgtag"
	"cfgtag/internal/faultinject"
	"cfgtag/internal/runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cfgtagger:", err)
		os.Exit(1)
	}
}

// run is the whole command behind main: flags from args, the stream from
// stdin unless -in names a file, results to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cfgtagger", flag.ExitOnError)
	var (
		grammarFile  = fs.String("grammar", "", "grammar file in the Lex/Yacc-style format")
		builtin      = fs.String("builtin", "", "built-in grammar: xmlrpc, ifthenelse or parens")
		inFile       = fs.String("in", "", "input file (default stdin)")
		free         = fs.Bool("free", false, "free-running start: find sentences anywhere in the stream")
		lexemes      = fs.Bool("lexemes", false, "recover and print matched text (buffers the whole input)")
		showWiring   = fs.Bool("show-wiring", false, "print the tokenizer wiring (figure 11) and exit")
		showFollow   = fs.Bool("show-follow", false, "print the per-terminal Follow table (figure 10) and exit")
		lint         = fs.Bool("lint", false, "print grammar design warnings and exit")
		dot          = fs.Bool("dot", false, "print the tokenizer wiring as Graphviz DOT (figure 11) and exit")
		backend      = fs.String("backend", "stream", "execution path: stream, dfa or aot; single-stream only (no -shards): gates, parser or earley")
		shards       = fs.Int("shards", 0, "pipeline mode: tag each input line as its own stream on this many shards")
		maxStreams   = fs.Int("max-streams", 0, "pipeline mode: cap live streams per shard, evicting the least-recently-fed at the cap (0 = unlimited)")
		quarantine   = fs.Duration("quarantine", 0, "pipeline mode: how long a faulted stream's key is rejected (0 = 30s default, negative = disabled)")
		chaos        = fs.Float64("chaos", 0, "pipeline mode: inject backend faults at this per-chunk rate (errors, panics, latency) to exercise the fault-tolerance layer")
		chaosSeed    = fs.Int64("chaos-seed", 1, "fault-injection RNG seed")
		batchBytes   = fs.Int("batch-bytes", 0, "pipeline mode: coalesce Sends into per-shard batches of this many bytes (0 = 64 KiB default, negative = dispatch every Send immediately)")
		sinkWorkers  = fs.Int("sink-workers", 0, "pipeline mode: deliver batches on this many workers (0 or 1 = single serialized sink)")
		sendTimeout  = fs.Duration("send-timeout", 0, "pipeline mode: shed Sends instead of blocking when a shard queue is full — 0 blocks, negative sheds immediately, positive waits at most this long")
		feedDeadline = fs.Duration("feed-deadline", 0, "pipeline mode: watchdog deadline per backend call; a slower call ends its stream as stalled (0 = disabled)")
		memBudget    = fs.Int64("mem-budget", 0, "pipeline mode: estimated live-memory budget in bytes (queued chunks and their tag storage); Sends over budget are shed (0 = unlimited)")
		configFile   = fs.String("config", "", "platform mode: multi-tenant JSON config; input lines are 'tenant|payload', SIGHUP hot-swaps changed grammars")
		listenTCP    = fs.String("listen", "", "serve mode: accept CFGTAG/1 TCP stream connections on this address (requires -config)")
		listenHTTP   = fs.String("listen-http", "", "serve mode: accept HTTP chunked-POST streams on this address, plus /metrics and /healthz (requires -config)")
		drainWait    = fs.Duration("drain-timeout", 30*time.Second, "serve mode: how long SIGTERM waits for live streams before force-flushing them")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 from here

	if *listenTCP != "" || *listenHTTP != "" {
		if *configFile == "" {
			return errors.New("-listen/-listen-http need -config FILE")
		}
		return runServe(*configFile, *listenTCP, *listenHTTP, *drainWait)
	}

	in := stdin
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	if *configFile != "" {
		return runPlatform(*configFile, in, out)
	}

	engine, err := load(*grammarFile, *builtin, *free)
	if err != nil {
		return err
	}
	switch {
	case *lint:
		warns := engine.Lint()
		for _, w := range warns {
			fmt.Fprintln(out, "warning:", w)
		}
		fmt.Fprintf(out, "%d warnings\n", len(warns))
		return nil
	case *showFollow:
		fmt.Fprint(out, engine.FollowTable())
		return nil
	case *showWiring:
		fmt.Fprint(out, engine.Wiring())
		return nil
	case *dot:
		fmt.Fprint(out, engine.Spec().DOT())
		return nil
	}

	if *shards > 0 {
		return runPipeline(engine, *backend, in, out, pipelineOptions{
			shards:       *shards,
			maxStreams:   *maxStreams,
			quarantine:   *quarantine,
			chaos:        *chaos,
			chaosSeed:    *chaosSeed,
			batchBytes:   *batchBytes,
			sinkWorkers:  *sinkWorkers,
			sendTimeout:  *sendTimeout,
			feedDeadline: *feedDeadline,
			memBudget:    *memBudget,
		})
	}

	b, err := engine.NewBackend(cfgtag.BackendKind(*backend))
	if err != nil {
		return err
	}

	if *lexemes {
		data, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		if err := b.Feed(data); err != nil {
			return err
		}
		verdict := b.Close()
		ms := b.Matches()
		for _, m := range ms {
			end := ""
			if m.SentenceEnd {
				end = "  [sentence-end]"
			}
			fmt.Fprintf(out, "%8d  idx=%-4d %-20q %-14s %q%s\n",
				m.End, m.Index, m.Term, m.Context, engine.Lexeme(data, m), end)
		}
		fmt.Fprintf(out, "%d tokens tagged\n", len(ms))
		report(out, b, verdict)
		return nil
	}

	count := 0
	emit := func() {
		for _, m := range b.Matches() {
			count++
			end := ""
			if m.SentenceEnd {
				end = "  [sentence-end]"
			}
			fmt.Fprintf(out, "%8d  idx=%-4d %-20q %s%s\n", m.End, m.Index, m.Term, m.Context, end)
		}
	}
	buf := make([]byte, 64<<10)
	r := bufio.NewReader(in)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := b.Feed(buf[:n]); err != nil {
				return err
			}
			emit()
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	verdict := b.Close()
	emit()
	fmt.Fprintf(out, "%d tokens tagged\n", count)
	report(out, b, verdict)
	return nil
}

// report prints the backend's verdict and recovery/collision counters when
// they carry information (the parser path rejects; the stream path counts
// section 5.2 recoveries).
func report(out io.Writer, b *cfgtag.Backend, verdict error) {
	if verdict != nil {
		fmt.Fprintf(out, "verdict: reject (%v)\n", verdict)
	} else if b.Kind() == cfgtag.ParserBackend || b.Kind() == cfgtag.EarleyBackend {
		fmt.Fprintln(out, "verdict: accept")
	}
	if c := b.Counters(); c.Recoveries > 0 || c.Collisions > 0 {
		fmt.Fprintf(out, "%d recoveries, %d index collisions\n", c.Recoveries, c.Collisions)
	}
	if c := b.Counters(); b.Kind() == cfgtag.DFABackend {
		fmt.Fprintf(out, "dfa cache: %d hits, %d misses, %d resets\n",
			c.CacheHits, c.CacheMisses, c.CacheResets)
	}
	if b.Kind() == cfgtag.AOTBackend {
		s := b.CompileStats()
		fmt.Fprintf(out, "aot tables: %d states, %d classes, %d bytes, compiled in %v\n",
			s.States, s.Classes, s.TableBytes, s.Duration)
	}
}

// pipelineOptions bundles the pipeline-mode flags.
type pipelineOptions struct {
	shards       int
	maxStreams   int
	quarantine   time.Duration
	chaos        float64
	chaosSeed    int64
	batchBytes   int
	sinkWorkers  int
	sendTimeout  time.Duration
	feedDeadline time.Duration
	memBudget    int64
}

// runPipeline tags every input line as its own keyed stream on a sharded
// pipeline, optionally wrapped in fault injection, and prints per-stream
// results in delivery order plus the pipeline's fault counters.
func runPipeline(engine *cfgtag.Engine, backend string, in io.Reader, out io.Writer, opts pipelineOptions) error {
	spec := engine.Spec()
	kind := runtime.Kind(backend)
	if err := kind.CheckServed("-backend"); err != nil {
		return err
	}
	factory, _, err := runtime.NewFactory(spec, runtime.FactoryOptions{Kind: kind})
	if err != nil {
		return err
	}
	if opts.chaos > 0 {
		factory = faultinject.Factory(factory, faultinject.Config{
			Seed:      opts.chaosSeed,
			ErrorRate: opts.chaos,
			PanicRate: opts.chaos / 2,
			SlowRate:  opts.chaos,
		})
	}

	var mc runtime.MetricCounters
	var sinkMu sync.Mutex // serializes printing when sink workers run concurrently
	tagged, faulted := 0, 0
	// The context of an instance is fixed by the grammar: render it once.
	contexts := make([]string, len(spec.Instances))
	for i, inst := range spec.Instances {
		contexts[i] = inst.Context(spec.Grammar)
	}
	sink := runtime.SinkFunc(func(b *runtime.Batch) error {
		sinkMu.Lock()
		defer sinkMu.Unlock()
		for _, m := range b.Tags {
			tagged++
			inst := spec.Instances[m.InstanceID]
			fmt.Fprintf(out, "%-10s %8d  idx=%-4d %-20q %s\n",
				b.Key, m.End, inst.Index, inst.Term, contexts[m.InstanceID])
		}
		if b.Err != nil {
			faulted++
			fmt.Fprintf(out, "%-10s fault: %v\n", b.Key, b.Err)
		}
		return nil
	})
	var mem *runtime.MemGauge
	if opts.memBudget > 0 {
		mem = &runtime.MemGauge{}
	}
	p, err := runtime.NewPipeline(runtime.Config{
		Shards:       opts.shards,
		Factory:      factory,
		Hooks:        mc.Hooks(),
		MaxStreams:   opts.maxStreams,
		Quarantine:   opts.quarantine,
		BatchBytes:   opts.batchBytes,
		SinkWorkers:  opts.sinkWorkers,
		SendTimeout:  opts.sendTimeout,
		FeedDeadline: opts.feedDeadline,
		Mem:          mem,
	}, sink)
	if err != nil {
		return err
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, shed := 0, 0
	for sc.Scan() {
		key := fmt.Sprintf("line-%d", lines)
		lines++
		// The registry enforces memory budgets at Send for tenants; the
		// flat pipeline mode applies the same admission check here.
		if opts.memBudget > 0 && mem.Load() >= opts.memBudget {
			shed++
			fmt.Fprintf(out, "%-10s shed: over %d-byte memory budget\n", key, opts.memBudget)
			continue
		}
		// A fault can quarantine the key between Send and CloseStream;
		// the stream already ended with an error batch, so carry on.
		if err := p.Send(key, sc.Bytes()); err != nil {
			if errors.Is(err, runtime.ErrQuarantined) {
				continue
			}
			if errors.Is(err, runtime.ErrOverloaded) {
				shed++
				fmt.Fprintf(out, "%-10s shed: %v\n", key, err)
				continue
			}
			p.Close()
			return err
		}
		if err := p.CloseStream(key); err != nil && !errors.Is(err, runtime.ErrQuarantined) {
			p.Close()
			return err
		}
	}
	if err := sc.Err(); err != nil {
		p.Close()
		return err
	}
	if err := p.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "%d streams, %d tokens tagged, %d stream faults", lines, tagged, faulted)
	if shed > 0 {
		fmt.Fprintf(out, ", %d shed", shed)
	}
	fmt.Fprintln(out)
	if f := mc.Faults(); f.PanicsRecovered+f.StreamsQuarantined+f.StreamsEvicted+f.SinkRetries+f.DeadLetters > 0 {
		fmt.Fprintf(out, "faults: %d panics recovered, %d quarantined, %d evicted, %d sink retries, %d dead-lettered\n",
			f.PanicsRecovered, f.StreamsQuarantined, f.StreamsEvicted, f.SinkRetries, f.DeadLetters)
	}
	if f := mc.Faults(); f.SendsShed+f.WatchdogTrips+f.ResourceExhausted > 0 {
		fmt.Fprintf(out, "overload: %d sends shed, %d watchdog trips, %d resource exhausted\n",
			f.SendsShed, f.WatchdogTrips, f.ResourceExhausted)
	}
	return nil
}

func load(grammarFile, builtin string, free bool) (*cfgtag.Engine, error) {
	var opts []cfgtag.Option
	if free {
		opts = append(opts, cfgtag.FreeRunningStart())
	}
	switch {
	case grammarFile != "":
		src, err := os.ReadFile(grammarFile)
		if err != nil {
			return nil, err
		}
		return cfgtag.Compile(grammarFile, string(src), opts...)
	case builtin == "xmlrpc":
		return cfgtag.Compile("xml-rpc", cfgtag.XMLRPCSource, opts...)
	case builtin == "ifthenelse":
		return cfgtag.Compile("if-then-else", cfgtag.IfThenElseSource, opts...)
	case builtin == "parens":
		return cfgtag.Compile("balanced-parens", cfgtag.BalancedParensSource, opts...)
	default:
		return nil, fmt.Errorf("need -grammar FILE or -builtin {xmlrpc,ifthenelse,parens}")
	}
}

// runPlatform is -config mode: a multi-tenant platform built from the JSON
// config, with each input line "tenant|payload" tagged as its own stream
// of that tenant. SIGHUP re-reads the config and hot-swaps any tenant
// whose grammar changed — a zero-downtime reload; streams alive across the
// swap finish on the grammar that started them.
func runPlatform(path string, in io.Reader, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cfg, err := cfgtag.ParsePlatformConfig(data)
	if err != nil {
		return err
	}

	var mu sync.Mutex // serializes printing across tenant sinks
	tagged := make(map[string]int)
	faulted := 0
	deliver := func(tenant string, b *cfgtag.TagBatch) error {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range b.Tags {
			tagged[tenant]++
			fmt.Fprintf(out, "%-10s %-10s %8d  idx=%-4d %-20q %s\n",
				tenant, b.Stream, m.End, m.Index, m.Term, m.Context)
		}
		if b.Err != nil {
			faulted++
			fmt.Fprintf(out, "%-10s %-10s fault: %v\n", tenant, b.Stream, b.Err)
		}
		return nil
	}
	p, err := cfgtag.NewPlatform(cfg, deliver)
	if err != nil {
		return err
	}

	// Remember each tenant's applied grammar source so SIGHUP only swaps
	// tenants whose grammar actually changed.
	applied := make(map[string]string)
	for _, t := range cfg.Tenants {
		src, err := tenantSource(t)
		if err != nil {
			p.Close()
			return err
		}
		applied[t.Name] = src
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			reloadPlatform(p, path, applied, &mu)
		}
	}()

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		line := sc.Bytes()
		lineNo := lines
		lines++
		tenant, payload, ok := bytes.Cut(line, []byte("|"))
		if !ok {
			fmt.Fprintf(os.Stderr, "cfgtagger: line %d: want 'tenant|payload'\n", lineNo)
			continue
		}
		key := fmt.Sprintf("line-%d", lineNo)
		name := string(tenant)
		if err := p.Send(name, key, payload); err != nil {
			if recoverable(err) {
				fmt.Fprintf(os.Stderr, "cfgtagger: line %d: %v\n", lineNo, err)
				continue
			}
			p.Close()
			return err
		}
		if err := p.CloseStream(name, key); err != nil && !recoverable(err) {
			p.Close()
			return err
		}
	}
	if err := sc.Err(); err != nil {
		p.Close()
		return err
	}
	tenants := p.Tenants()
	if err := p.Close(); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	fmt.Fprintf(out, "%d lines, %d stream faults\n", lines, faulted)
	for _, name := range tenants {
		fmt.Fprintf(out, "tenant %-10s %d tokens tagged\n", name, tagged[name])
	}
	return nil
}

// recoverable reports Send/CloseStream errors that end one line's stream
// without ending the run: admission-control rejections and quarantines.
func recoverable(err error) bool {
	return errors.Is(err, cfgtag.ErrQuotaExceeded) ||
		errors.Is(err, cfgtag.ErrUnknownTenant) ||
		errors.Is(err, runtime.ErrQuarantined)
}

// tenantSource resolves a tenant's grammar text (inline or from file).
func tenantSource(t cfgtag.TenantDef) (string, error) {
	if t.Grammar != "" {
		return t.Grammar, nil
	}
	b, err := os.ReadFile(t.GrammarFile)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// reloadPlatform is the SIGHUP handler body: re-read the config, and for
// every running tenant whose grammar source changed, publish the new
// grammar as a new factory version. Tenants added or removed in the file
// are reported but need a restart; a config or compile error leaves the
// running platform untouched.
func reloadPlatform(p *cfgtag.Platform, path string, applied map[string]string, mu *sync.Mutex) {
	warn := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cfgtagger: reload: "+format+"\n", args...)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		warn("%v", err)
		return
	}
	cfg, err := cfgtag.ParsePlatformConfig(data)
	if err != nil {
		warn("%v", err)
		return
	}
	if err := cfg.Validate(); err != nil {
		warn("%v", err)
		return
	}
	running := make(map[string]bool)
	for _, name := range p.Tenants() {
		running[name] = true
	}
	seen := make(map[string]bool)
	for _, t := range cfg.Tenants {
		seen[t.Name] = true
		if !running[t.Name] {
			warn("tenant %q is new; restart to add tenants", t.Name)
			continue
		}
		src, err := tenantSource(t)
		if err != nil {
			warn("%v", err)
			continue
		}
		mu.Lock()
		prev := applied[t.Name]
		mu.Unlock()
		if src == prev {
			continue
		}
		v, err := p.Reload(t.Name, src)
		if err != nil {
			warn("tenant %q: %v", t.Name, err)
			continue
		}
		mu.Lock()
		applied[t.Name] = src
		mu.Unlock()
		warn("tenant %q reloaded as version %d", t.Name, v)
	}
	for name := range running {
		if !seen[name] {
			warn("tenant %q removed from config; restart to drop tenants", name)
		}
	}
}
