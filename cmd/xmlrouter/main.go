// Command xmlrouter is the figure 12 demo: an XML-RPC content-based
// message router. It accepts TCP connections carrying streams of XML-RPC
// methodCall messages (figure 14 dialect) and forwards each message to the
// back-end address registered for its service — bank services (deposit,
// withdraw, acctinfo) to one server, shopping services (buy, sell, price)
// to another.
//
// With -demo it is fully self-contained: it starts two sink servers and a
// traffic generator, routes the generated messages, and prints the per-
// port tallies.
//
// Usage:
//
//	xmlrouter -listen :8700 -bank bank.internal:9000 -shop shop.internal:9001
//	xmlrouter -demo -messages 200
//	xmlrouter -stdin           # read one stream from stdin, print routes
//	xmlrouter -demo -shards 8  # tag on a sharded pipeline, route in a Sink
//
// With -shards N the per-connection inline router is replaced by one shared
// sharded pipeline: connections become keyed streams, N tagger shards run
// the grammar's shared table, and a single router.Sink consumes the tag batches and
// forwards messages — the software shape of the paper's replicated-hardware
// deployment.
//
// With -config FILE the process hosts many tenant routers at once, each
// with its own listen address, grammar, route addresses and pipeline
// knobs, declared in a JSON file. SIGHUP re-reads every tenant's
// grammar_file and hot-swaps changed grammars with zero downtime:
// connections alive across the swap keep routing on the grammar that
// tagged their first bytes.
//
//	xmlrouter -config routers.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/router"
	"cfgtag/internal/runtime"
	"cfgtag/internal/serve"
	"cfgtag/internal/xmlrpc"
)

func main() {
	var (
		listen       = flag.String("listen", ":8700", "address to accept message streams on")
		bank         = flag.String("bank", "", "bank server address (deposit, withdraw, acctinfo)")
		shop         = flag.String("shop", "", "shopping server address (buy, sell, price)")
		fallback     = flag.String("default", "", "address for unknown services (default: drop)")
		demo         = flag.Bool("demo", false, "self-contained demo: sinks + generator + router")
		stdin        = flag.Bool("stdin", false, "route a single stream from stdin to stdout")
		messages     = flag.Int("messages", 100, "messages to generate in -demo mode")
		seed         = flag.Int64("seed", 1, "generator seed in -demo mode")
		validateMsgs = flag.Bool("validate", false, "stack-validate messages; malformed ones route to the quarantine port")
		shards       = flag.Int("shards", 0, "tag on a sharded pipeline with this many shards (0 = inline router per connection)")
		maxStreams   = flag.Int("max-streams", 0, "cap live streams per shard; the least-recently-fed stream is flushed at the cap (0 = unlimited)")
		quarantine   = flag.Duration("quarantine", 0, "how long a stream is rejected after its backend faults (0 = 30s default, negative = disabled)")
		batchBytes   = flag.Int("batch-bytes", 0, "coalesce chunks into per-shard batches of this many bytes (0 = 64 KiB default, negative = dispatch immediately)")
		configFile   = flag.String("config", "", "multi-tenant JSON config: one router per tenant, SIGHUP hot-swaps changed grammars")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for live streams to finish before force-flushing them")
	)
	flag.Parse()

	pcfg := pipelineConfig{shards: *shards, maxStreams: *maxStreams, quarantine: *quarantine, batchBytes: *batchBytes}
	switch {
	case *configFile != "":
		if err := runConfig(*configFile, *drainWait); err != nil {
			fail(err)
		}
	case *stdin:
		if err := routeStdin(*validateMsgs); err != nil {
			fail(err)
		}
	case *demo:
		if err := runDemo(*messages, *seed, pcfg); err != nil {
			fail(err)
		}
	default:
		if *bank == "" || *shop == "" {
			fail(fmt.Errorf("need -bank and -shop addresses (or -demo / -stdin)"))
		}
		if err := runListener(*listen, *bank, *shop, *fallback, pcfg, *drainWait); err != nil {
			fail(err)
		}
	}
}

// awaitDrain blocks until SIGTERM/SIGINT, then drains srv: stop
// accepting, wait for live connections to finish (up to drain), flush
// whatever remains through the pipeline so no in-flight bytes are
// dropped, and close the listeners.
func awaitDrain(srv *serve.Server, drain time.Duration) error {
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(term)
	<-term
	fmt.Fprintln(os.Stderr, "xmlrouter: draining...")
	if err := srv.Shutdown(drain); err != nil {
		if errors.Is(err, serve.ErrDrainTimeout) {
			fmt.Fprintf(os.Stderr, "xmlrouter: drain deadline (%v) hit; open streams were force-flushed\n", drain)
		}
		return err
	}
	fmt.Fprintln(os.Stderr, "xmlrouter: drained clean")
	return nil
}

// pipelineConfig carries the sharded-deployment knobs from the flags to
// the switchboard.
type pipelineConfig struct {
	shards     int
	maxStreams int
	quarantine time.Duration
	batchBytes int
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xmlrouter:", err)
	os.Exit(1)
}

// routeStdin routes one stream from stdin, printing "port service bytes"
// per message. With validate, malformed messages route to port -2.
func routeStdin(validate bool) error {
	r, err := router.New(router.FigureTwelve(), -1)
	if err != nil {
		return err
	}
	if validate {
		if err := r.EnableValidation(0, -2); err != nil {
			return err
		}
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	r.OnRoute = func(port int, service string, message []byte) {
		fmt.Fprintf(out, "port=%d service=%s bytes=%d\n", port, service, len(message))
	}
	if _, err := io.Copy(r, bufio.NewReader(os.Stdin)); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	st := r.Stats()
	fmt.Fprintf(out, "routed %d messages (%d unknown, %d invalid)\n", st.Messages, st.Unknown, st.Invalid)
	return nil
}

// runListener is the production shape behind the serve layer: every
// inbound connection is one raw stream (no protocol, no echo), tagged
// either inline (shards = 0, one router per stream) or on one shared
// sharded pipeline with a router.Sink. SIGTERM drains gracefully — no
// in-flight bytes are dropped.
func runListener(listen, bank, shop, fallback string, pcfg pipelineConfig, drain time.Duration) error {
	srv, _, err := buildRouterServer(listen, bank, shop, fallback, pcfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	return awaitDrain(srv, drain)
}

// routerTenant is the fixed tenant name of single-router deployments.
const routerTenant = "router"

// buildRouterServer assembles the single-router server: a raw TCP input
// bound to either the inline core or a switchboard core. It returns the
// bound listen address for tests that pick port 0.
func buildRouterServer(listen, bank, shop, fallback string, pcfg pipelineConfig) (*serve.Server, string, error) {
	srv := serve.NewServer()
	if pcfg.shards > 0 {
		spec, err := xmlrpcSpec()
		if err != nil {
			return nil, "", err
		}
		sw, err := newSwitchboard(spec, bank, shop, fallback, pcfg,
			func(key string) { srv.EndStream(routerTenant, key) })
		if err != nil {
			return nil, "", err
		}
		srv.Bind(swCore{sw})
	} else {
		srv.Bind(newInlineCore(srv, routerTenant, bank, shop, fallback))
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		srv.Core().Close()
		return nil, "", err
	}
	srv.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{
		Tenant: routerTenant, Raw: true, NoEcho: true,
	}))
	fmt.Printf("xmlrouter: listening on %s (bank=%s shop=%s shards=%d)\n", ln.Addr(), bank, shop, pcfg.shards)
	return srv, ln.Addr().String(), nil
}

// swCore adapts one switchboard to serve.Core; the tenant is implied by
// the listener, so only the stream key reaches the pipeline.
type swCore struct{ sw *switchboard }

func (c swCore) Send(_, key string, data []byte) error { return c.sw.pipeline.Send(key, data) }
func (c swCore) CloseStream(_, key string) error       { return c.sw.pipeline.CloseStream(key) }
func (c swCore) Close() error                          { return c.sw.Close() }

// inlineCore adapts the shards=0 deployment to serve.Core: one router
// instance per stream, created on first byte, routing to per-stream
// back-end connections. Sessions end synchronously in CloseStream, so no
// EOS batch plumbing is needed.
type inlineCore struct {
	srv                          *serve.Server
	tenant, bank, shop, fallback string

	mu      sync.Mutex
	streams map[string]*inlineStream
	closed  bool
}

type inlineStream struct {
	// mu serializes the feeding connection against a force-flush from
	// the drain path (Close on a timed-out drain races the last Write).
	mu    sync.Mutex
	r     *router.Router
	conns map[int]net.Conn
	err   error
}

func newInlineCore(srv *serve.Server, tenant, bank, shop, fallback string) *inlineCore {
	return &inlineCore{
		srv: srv, tenant: tenant, bank: bank, shop: shop, fallback: fallback,
		streams: make(map[string]*inlineStream),
	}
}

// stream returns the key's router, creating it on first use.
func (c *inlineCore) stream(key string) (*inlineStream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, runtime.ErrClosed
	}
	if st, ok := c.streams[key]; ok {
		return st, nil
	}
	r, err := router.New(router.FigureTwelve(), 2)
	if err != nil {
		return nil, err
	}
	st := &inlineStream{r: r, conns: make(map[int]net.Conn)}
	addrs := map[int]string{0: c.bank, 1: c.shop}
	if c.fallback != "" {
		addrs[2] = c.fallback
	}
	r.OnRoute = func(port int, service string, message []byte) {
		if st.err != nil {
			return
		}
		bc, ok := st.conns[port]
		if !ok {
			addr, have := addrs[port]
			if !have {
				return // drop
			}
			var err error
			if bc, err = net.Dial("tcp", addr); err != nil {
				st.err = err
				return
			}
			st.conns[port] = bc
		}
		if _, err := bc.Write(append(message, '\n')); err != nil {
			st.err = err
		}
	}
	c.streams[key] = st
	return st, nil
}

func (c *inlineCore) Send(_, key string, data []byte) error {
	st, err := c.stream(key)
	if err != nil {
		return err
	}
	st.mu.Lock()
	_, werr := st.r.Write(data)
	ferr := st.err
	st.mu.Unlock()
	if werr == nil {
		werr = ferr
	}
	if werr != nil {
		c.drop(key)
		return werr
	}
	return nil
}

func (c *inlineCore) CloseStream(_, key string) error {
	c.mu.Lock()
	st := c.streams[key]
	delete(c.streams, key)
	c.mu.Unlock()
	defer c.srv.EndStream(c.tenant, key)
	if st == nil {
		return nil // zero-byte stream: never materialized
	}
	return st.close()
}

// drop discards a failed stream's state; the caller reports the error.
func (c *inlineCore) drop(key string) {
	c.mu.Lock()
	st := c.streams[key]
	delete(c.streams, key)
	c.mu.Unlock()
	if st != nil {
		st.close()
	}
}

func (st *inlineStream) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	err := st.r.Close()
	for _, bc := range st.conns {
		bc.Close()
	}
	if err != nil {
		return err
	}
	return st.err
}

// Close flushes every stream still open (the drain's force-flush path).
func (c *inlineCore) Close() error {
	c.mu.Lock()
	c.closed = true
	streams := c.streams
	c.streams = make(map[string]*inlineStream)
	c.mu.Unlock()
	var first error
	for key, st := range streams {
		if err := st.close(); err != nil && first == nil {
			first = err
		}
		c.srv.EndStream(c.tenant, key)
	}
	return first
}

// switchboard is the sharded deployment: one pipeline shared by every
// connection, with a router.Sink forwarding completed messages over
// persistent back-end connections (opened lazily from the sink goroutine,
// which serializes all OnRoute calls).
type switchboard struct {
	pipeline *runtime.Pipeline
	sink     *router.Sink
	addrs    map[int]string
	conns    map[int]net.Conn
	fwdErr   error
	nextConn int64
	reloadMu sync.Mutex // serializes grammar hot-swaps
}

// xmlrpcSpec compiles the built-in figure 14 grammar the way the router
// needs it: free-running so long-lived connections route message after
// message.
func xmlrpcSpec() (*core.Spec, error) {
	return core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
}

// eosSink decorates a pipeline sink with a stream-end callback — the
// serve layer uses it to release a stream's session (and let its
// connection hang up) once the final batch has been routed.
type eosSink struct {
	runtime.Sink
	onEOS func(key string)
}

func (s eosSink) Deliver(b *runtime.Batch) error {
	if err := s.Sink.Deliver(b); err != nil {
		return err
	}
	if b.EOS {
		s.onEOS(b.Key)
	}
	return nil
}

func newSwitchboard(spec *core.Spec, bank, shop, fallback string, pcfg pipelineConfig, onEOS func(key string)) (*switchboard, error) {
	sink, err := router.NewSink(spec, "methodName", router.FigureTwelve(), 2)
	if err != nil {
		return nil, err
	}
	sw := &switchboard{
		sink:  sink,
		addrs: map[int]string{0: bank, 1: shop},
		conns: make(map[int]net.Conn),
	}
	if fallback != "" {
		sw.addrs[2] = fallback
	}
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		if sw.fwdErr != nil {
			return
		}
		bc, ok := sw.conns[port]
		if !ok {
			addr, have := sw.addrs[port]
			if !have {
				return // drop
			}
			bc, err = net.Dial("tcp", addr)
			if err != nil {
				sw.fwdErr = err
				return
			}
			sw.conns[port] = bc
		}
		if _, err := bc.Write(append(message, '\n')); err != nil {
			sw.fwdErr = err
		}
	}
	// The router's sink mutates shared per-service connections, so the
	// pipeline keeps the single serialized sink worker; only batching is
	// configurable here.
	var pipeSink runtime.Sink = sink
	if onEOS != nil {
		pipeSink = eosSink{Sink: sink, onEOS: onEOS}
	}
	factory, _, err := runtime.NewFactory(spec, runtime.FactoryOptions{})
	if err != nil {
		return nil, err
	}
	sw.pipeline, err = runtime.NewPipeline(runtime.Config{
		Shards:         pcfg.shards,
		Factory:        factory,
		MaxStreams:     pcfg.maxStreams,
		Quarantine:     pcfg.quarantine,
		BatchBytes:     pcfg.batchBytes,
		VersionRetired: sink.DropVersion,
	}, pipeSink)
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// Reload hot-swaps the switchboard's grammar with zero downtime: the spec
// is staged in the version-aware sink, published as a new factory version,
// and bound to the id the swap returns. Connections alive across the swap
// keep routing on the grammar that tagged their first bytes; new
// connections run the new one.
func (sw *switchboard) Reload(spec *core.Spec) (int, error) {
	factory, _, err := runtime.NewFactory(spec, runtime.FactoryOptions{})
	if err != nil {
		return 0, err
	}
	sw.reloadMu.Lock()
	defer sw.reloadMu.Unlock()
	if err := sw.sink.StageVersion(spec); err != nil {
		return 0, err
	}
	v, err := sw.pipeline.SwapFactory(factory)
	if err != nil {
		sw.sink.CommitVersion(0)
		return 0, err
	}
	sw.sink.CommitVersion(v)
	return v, nil
}

// HandleConn pumps one connection into the pipeline as its own stream.
func (sw *switchboard) HandleConn(c net.Conn) error {
	key := fmt.Sprintf("conn-%d-%s", atomic.AddInt64(&sw.nextConn, 1), c.RemoteAddr())
	buf := make([]byte, 32<<10)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			if serr := sw.pipeline.Send(key, buf[:n]); serr != nil {
				return serr
			}
		}
		if err == io.EOF {
			return sw.pipeline.CloseStream(key)
		}
		if err != nil {
			sw.pipeline.CloseStream(key)
			return err
		}
	}
}

// Close drains the pipeline and closes the back-end connections.
func (sw *switchboard) Close() error {
	err := sw.pipeline.Close()
	for _, bc := range sw.conns {
		bc.Close()
	}
	if err != nil {
		return err
	}
	return sw.fwdErr
}

func routeConn(c net.Conn, bank, shop, fallback string) error {
	addrs := map[int]string{0: bank, 1: shop}
	if fallback != "" {
		addrs[2] = fallback
	}
	conns := make(map[int]net.Conn)
	defer func() {
		for _, bc := range conns {
			bc.Close()
		}
	}()
	backend := func(port int) (net.Conn, error) {
		if bc, ok := conns[port]; ok {
			return bc, nil
		}
		addr, ok := addrs[port]
		if !ok {
			return nil, nil // drop
		}
		bc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		conns[port] = bc
		return bc, nil
	}

	r, err := router.New(router.FigureTwelve(), 2)
	if err != nil {
		return err
	}
	var routeErr error
	r.OnRoute = func(port int, service string, message []byte) {
		if routeErr != nil {
			return
		}
		bc, err := backend(port)
		if err != nil || bc == nil {
			routeErr = err
			return
		}
		if _, err := bc.Write(append(message, '\n')); err != nil {
			routeErr = err
		}
	}
	if _, err := io.Copy(r, c); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	return routeErr
}

// runDemo spins up two sink servers, routes generated traffic through a
// TCP round trip, and prints what each sink received. With shards > 0 the
// router side runs the sharded pipeline instead of the inline router.
func runDemo(messages int, seed int64, pcfg pipelineConfig) error {
	sinkCounts := [2]int64{}
	var wg sync.WaitGroup
	sinkAddr := [2]string{}
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		sinkAddr[i] = ln.Addr().String()
		idx := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				atomic.AddInt64(&sinkCounts[idx], 1)
			}
		}()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	routerDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			routerDone <- err
			return
		}
		defer conn.Close()
		if pcfg.shards > 0 {
			spec, err := xmlrpcSpec()
			if err != nil {
				routerDone <- err
				return
			}
			sw, err := newSwitchboard(spec, sinkAddr[0], sinkAddr[1], "", pcfg, nil)
			if err != nil {
				routerDone <- err
				return
			}
			if err := sw.HandleConn(conn); err != nil {
				sw.Close()
				routerDone <- err
				return
			}
			routerDone <- sw.Close()
			return
		}
		routerDone <- routeConn(conn, sinkAddr[0], sinkAddr[1], "")
	}()

	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	gen := xmlrpc.NewGenerator(seed, xmlrpc.Options{})
	corpus, services := gen.Corpus(messages)
	if _, err := client.Write(append([]byte(corpus), '\n')); err != nil {
		return err
	}
	client.Close()
	if err := <-routerDone; err != nil {
		return err
	}
	wg.Wait()

	wantBank, wantShop := 0, 0
	for _, s := range services {
		if xmlrpc.ServiceDestination(s) == 0 {
			wantBank++
		} else {
			wantShop++
		}
	}
	fmt.Printf("generated %d messages\n", messages)
	fmt.Printf("bank sink     received %d (expected %d)\n", sinkCounts[0], wantBank)
	fmt.Printf("shopping sink received %d (expected %d)\n", sinkCounts[1], wantShop)
	if int(sinkCounts[0]) != wantBank || int(sinkCounts[1]) != wantShop {
		return fmt.Errorf("demo routing mismatch")
	}
	fmt.Println("demo OK: every message reached the server its content selects")
	return nil
}

// tenantRouter declares one tenant in -config mode: its own listen
// address, grammar, back-end addresses and pipeline knobs.
type tenantRouter struct {
	// Name identifies the tenant; required, unique within the config.
	Name string `json:"name"`
	// Listen is the tenant's accept address; required.
	Listen string `json:"listen"`
	// Bank and Shop are the two back-end addresses of the figure 12 route
	// table; both required. Default receives unknown services ("" = drop).
	Bank    string `json:"bank"`
	Shop    string `json:"shop"`
	Default string `json:"default,omitempty"`
	// GrammarFile is the tenant's grammar source path; empty selects the
	// built-in figure 14 XML-RPC grammar. SIGHUP re-reads the file and
	// hot-swaps the grammar when it changed. The grammar must keep a
	// methodName production carrying the service name.
	GrammarFile string `json:"grammar_file,omitempty"`
	// Shards, MaxStreams, Quarantine and BatchBytes mirror the flags of
	// -shards mode (Shards 0 = GOMAXPROCS here; Quarantine is a Go
	// duration string).
	Shards     int    `json:"shards,omitempty"`
	MaxStreams int    `json:"max_streams,omitempty"`
	Quarantine string `json:"quarantine,omitempty"`
	BatchBytes int    `json:"batch_bytes,omitempty"`
}

// routerConfig is the -config file: one router per tenant.
type routerConfig struct {
	Routers []tenantRouter `json:"routers"`
}

// loadRouterConfig reads, strictly decodes and validates a -config file.
func loadRouterConfig(path string) (*routerConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg routerConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("config %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("config %s: trailing data after config object", path)
	}
	if len(cfg.Routers) == 0 {
		return nil, fmt.Errorf("config %s: at least one router is required", path)
	}
	seen := make(map[string]bool)
	for i, def := range cfg.Routers {
		switch {
		case def.Name == "":
			return nil, fmt.Errorf("config %s: routers[%d]: name is required", path, i)
		case seen[def.Name]:
			return nil, fmt.Errorf("config %s: routers[%d]: duplicate name %q", path, i, def.Name)
		case def.Listen == "":
			return nil, fmt.Errorf("config %s: router %q: listen is required", path, def.Name)
		case def.Bank == "" || def.Shop == "":
			return nil, fmt.Errorf("config %s: router %q: bank and shop addresses are required", path, def.Name)
		}
		seen[def.Name] = true
		if def.Quarantine != "" {
			if _, err := time.ParseDuration(def.Quarantine); err != nil {
				return nil, fmt.Errorf("config %s: router %q: quarantine: %w", path, def.Name, err)
			}
		}
	}
	return &cfg, nil
}

// tenantSpec compiles a tenant's grammar (file-based or the built-in
// figure 14 dialect) and returns the applied source text for change
// detection.
func tenantSpec(def tenantRouter) (*core.Spec, string, error) {
	if def.GrammarFile == "" {
		spec, err := xmlrpcSpec()
		return spec, "", err
	}
	src, err := os.ReadFile(def.GrammarFile)
	if err != nil {
		return nil, "", fmt.Errorf("router %q: %w", def.Name, err)
	}
	g, err := grammar.Parse(def.Name, string(src))
	if err != nil {
		return nil, "", fmt.Errorf("router %q: %w", def.Name, err)
	}
	spec, err := core.Compile(g, core.Options{FreeRunningStart: true})
	if err != nil {
		return nil, "", fmt.Errorf("router %q: %w", def.Name, err)
	}
	return spec, string(src), nil
}

// tenantInstance is one running tenant router: its definition, its
// switchboard, and the grammar source currently applied.
type tenantInstance struct {
	def     tenantRouter
	sw      *switchboard
	applied string
}

// multiCore routes serve.Core calls to the per-tenant switchboards; the
// tenant name comes from the listener each connection arrived on.
type multiCore struct{ tenants map[string]*switchboard }

func (c multiCore) Send(tenant, key string, data []byte) error {
	sw, ok := c.tenants[tenant]
	if !ok {
		return fmt.Errorf("unknown tenant %q", tenant)
	}
	return sw.pipeline.Send(key, data)
}

func (c multiCore) CloseStream(tenant, key string) error {
	sw, ok := c.tenants[tenant]
	if !ok {
		return fmt.Errorf("unknown tenant %q", tenant)
	}
	return sw.pipeline.CloseStream(key)
}

func (c multiCore) Close() error {
	var first error
	for _, sw := range c.tenants {
		if err := sw.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// buildConfigServer assembles the -config server: one raw TCP input per
// tenant, all bound to one serve.Server over the per-tenant
// switchboards. It returns the tenant instances for the SIGHUP handler.
func buildConfigServer(path string) (*serve.Server, []*tenantInstance, error) {
	cfg, err := loadRouterConfig(path)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.NewServer()
	cores := make(map[string]*switchboard, len(cfg.Routers))
	tenants := make([]*tenantInstance, 0, len(cfg.Routers))
	var lns []net.Listener
	cleanup := func() {
		for _, ln := range lns {
			ln.Close()
		}
		for _, tn := range tenants {
			tn.sw.Close()
		}
	}
	for _, def := range cfg.Routers {
		spec, src, err := tenantSpec(def)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		quar := time.Duration(0)
		if def.Quarantine != "" {
			quar, _ = time.ParseDuration(def.Quarantine) // validated by loadRouterConfig
		}
		name := def.Name
		sw, err := newSwitchboard(spec, def.Bank, def.Shop, def.Default, pipelineConfig{
			shards:     def.Shards,
			maxStreams: def.MaxStreams,
			quarantine: quar,
			batchBytes: def.BatchBytes,
		}, func(key string) { srv.EndStream(name, key) })
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("router %q: %w", def.Name, err)
		}
		tenants = append(tenants, &tenantInstance{def: def, sw: sw, applied: src})
		cores[def.Name] = sw
		ln, err := net.Listen("tcp", def.Listen)
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("router %q: %w", def.Name, err)
		}
		lns = append(lns, ln)
		srv.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{
			Tenant: def.Name, Raw: true, NoEcho: true,
		}))
		fmt.Printf("xmlrouter: tenant %q listening on %s (bank=%s shop=%s shards=%d)\n",
			def.Name, ln.Addr(), def.Bank, def.Shop, def.Shards)
	}
	srv.Bind(multiCore{tenants: cores})
	return srv, tenants, nil
}

// runConfig is -config mode: every tenant router accepts on its own
// address with its own pipeline and grammar; SIGHUP re-reads each tenant's
// grammar_file and hot-swaps changed grammars with zero downtime, and
// SIGTERM drains every tenant's listener through the serve layer.
func runConfig(path string, drain time.Duration) error {
	srv, tenants, err := buildConfigServer(path)
	if err != nil {
		return err
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			for _, tn := range tenants {
				reloadTenant(tn)
			}
		}
	}()
	if err := srv.Start(); err != nil {
		return err
	}
	return awaitDrain(srv, drain)
}

// reloadTenant re-reads one tenant's grammar_file and hot-swaps it when
// the source changed; errors leave the running grammar untouched.
func reloadTenant(tn *tenantInstance) {
	warn := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "xmlrouter: reload: "+format+"\n", args...)
	}
	if tn.def.GrammarFile == "" {
		return // built-in grammar, nothing to re-read
	}
	spec, src, err := tenantSpec(tn.def)
	if err != nil {
		warn("%v", err)
		return
	}
	if src == tn.applied {
		return
	}
	v, err := tn.sw.Reload(spec)
	if err != nil {
		warn("router %q: %v", tn.def.Name, err)
		return
	}
	tn.applied = src
	warn("router %q reloaded as version %d", tn.def.Name, v)
}
