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
//	xmlrouter -demo -shards 8  # tag on 8 shards
//
// Every served mode runs on one cfgtag.Platform behind one serve.Server:
// each router is a platform tenant, each connection one of its keyed
// streams, its shards (-shards N, 0 = GOMAXPROCS) run the grammar's shared
// table, and the server's fan-out hands the tenant's tag batches to its
// router.Sink, which forwards every completed message over a persistent
// back-end connection — the software shape of the paper's
// replicated-hardware deployment.
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

	"cfgtag"
	"cfgtag/internal/core"
	"cfgtag/internal/router"
	"cfgtag/internal/serve"
	"cfgtag/internal/stream"
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
		shards       = flag.Int("shards", 0, "tagging shards (0 = GOMAXPROCS)")
		maxStreams   = flag.Int("max-streams", 0, "cap live streams per shard; the least-recently-fed stream is flushed at the cap (0 = unlimited)")
		quarantine   = flag.Duration("quarantine", 0, "how long a stream is rejected after its backend faults (0 = 30s default, negative = disabled)")
		batchBytes   = flag.Int("batch-bytes", 0, "coalesce chunks into per-shard batches of this many bytes (0 = 64 KiB default, negative = dispatch immediately)")
		configFile   = flag.String("config", "", "multi-tenant JSON config: one router per tenant, SIGHUP hot-swaps changed grammars")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for live streams to finish before force-flushing them")
	)
	flag.Parse()

	def := tenantRouter{
		Name: routerTenant, Listen: *listen, Bank: *bank, Shop: *shop, Default: *fallback,
		Shards: *shards, MaxStreams: *maxStreams, Quarantine: cfgtag.Duration(*quarantine), BatchBytes: *batchBytes,
	}
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
		if err := runDemo(*messages, *seed, def); err != nil {
			fail(err)
		}
	default:
		if *bank == "" || *shop == "" {
			fail(fmt.Errorf("need -bank and -shop addresses (or -demo / -stdin)"))
		}
		if err := runListener(def, *drainWait); err != nil {
			fail(err)
		}
	}
}

// awaitDrain blocks until SIGTERM/SIGINT, then drains srv: stop
// accepting, wait for live connections to finish (up to drain), flush
// whatever remains through the pipeline so no in-flight bytes are
// dropped, and close the listeners.
func awaitDrain(srv *routerServer, drain time.Duration) error {
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

// routerTenant is the tenant name of the one router -listen and -demo run.
const routerTenant = "router"

// runListener serves one router until SIGTERM drains it: every inbound
// connection is one raw stream (no protocol, no echo), and no in-flight
// bytes are dropped.
func runListener(def tenantRouter, drain time.Duration) error {
	srv, _, err := buildRouterServer(def)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	return awaitDrain(srv, drain)
}

// routerServer is a running xmlrouter: one platform tenant per router,
// served by one serve.Server whose fan-out switches every tenant's tag
// batches through that tenant's route.
type routerServer struct {
	*serve.Server
	plat   *cfgtag.Platform
	routes map[string]*route // written only by buildRouterServer
}

// route is one router's switching state. After buildRouterServer, def
// belongs to the reloading goroutine and the rest to the tenant's single
// sink worker, so it needs no lock.
type route struct {
	def    tenantRouter
	sink   *router.Sink
	ms     []stream.Match // switchBatch's conversion buffer
	addrs  map[int]string
	conns  map[int]net.Conn
	line   []byte // forward's write buffer
	fwdErr error
}

// buildRouterServer assembles the server for defs: it checks every
// router's grammar, starts one platform tenant per router and binds a raw
// TCP input to each router's listen address. It returns the first
// router's bound address, for tests that pick port 0.
func buildRouterServer(defs ...tenantRouter) (*routerServer, string, error) {
	rs := &routerServer{Server: serve.NewServer(), routes: make(map[string]*route, len(defs))}
	pc := &cfgtag.PlatformConfig{}
	for _, def := range defs {
		rt, src, err := newRoute(def)
		if err != nil {
			return nil, "", err
		}
		rs.routes[def.Name] = rt
		pc.Tenants = append(pc.Tenants, cfgtag.TenantDef{
			Name:       def.Name,
			Grammar:    src,
			Options:    []string{"free-running-start"},
			Shards:     def.Shards,
			MaxStreams: def.MaxStreams,
			Quarantine: def.Quarantine,
			BatchBytes: def.BatchBytes,
		})
	}
	plat, err := cfgtag.NewPlatform(pc, rs.Deliver)
	if err != nil {
		return nil, "", err
	}
	rs.plat = plat
	rs.Bind(plat)
	rs.AddFanout(rs.switchBatch)
	var first string
	for _, def := range defs {
		ln, err := net.Listen("tcp", def.Listen)
		if err != nil {
			rs.Shutdown(0)
			return nil, "", fmt.Errorf("router %q: %w", def.Name, err)
		}
		rs.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{Tenant: def.Name, Raw: true, NoEcho: true}))
		if first == "" {
			first = ln.Addr().String()
		}
		fmt.Printf("xmlrouter: router %q listening on %s (bank=%s shop=%s shards=%d)\n",
			def.Name, ln.Addr(), def.Bank, def.Shop, def.Shards)
	}
	return rs, first, nil
}

// newRoute reads and checks the router's grammar and sets up its sink and
// back-end addresses. It returns the grammar source the tenant starts on.
func newRoute(def tenantRouter) (*route, string, error) {
	src, spec, err := routerGrammar(def)
	if err != nil {
		return nil, "", err
	}
	sink, err := router.NewSink(spec, "methodName", router.FigureTwelve(), 2)
	if err != nil {
		return nil, "", fmt.Errorf("router %q: %w", def.Name, err)
	}
	rt := &route{
		def:   def,
		sink:  sink,
		addrs: map[int]string{0: def.Bank, 1: def.Shop},
		conns: make(map[int]net.Conn),
	}
	if def.Default != "" {
		rt.addrs[2] = def.Default
	}
	sink.OnRoute = rt.forward
	return rt, src, nil
}

// routerGrammar reads the router's grammar source — its grammar_file, or
// the built-in figure 14 dialect — and compiles it as its tenant runs it:
// free-running, so long-lived connections route message after message.
func routerGrammar(def tenantRouter) (string, *core.Spec, error) {
	src := cfgtag.XMLRPCSource
	if def.GrammarFile != "" {
		b, err := os.ReadFile(def.GrammarFile)
		if err != nil {
			return "", nil, fmt.Errorf("router %q: %w", def.Name, err)
		}
		src = string(b)
	}
	e, err := cfgtag.Compile(def.Name, src, cfgtag.FreeRunningStart())
	if err != nil {
		return "", nil, fmt.Errorf("router %q: %w", def.Name, err)
	}
	return src, e.Spec(), nil
}

// switchBatch is the server's fan-out: it hands the tenant's batch, with
// the spec of the grammar version that tagged it, to the tenant's sink.
func (rs *routerServer) switchBatch(tenant string, b *cfgtag.TagBatch) error {
	rt := rs.routes[tenant]
	rt.ms = rt.ms[:0]
	for _, m := range b.Tags {
		rt.ms = append(rt.ms, stream.Match{InstanceID: m.InstanceID, End: m.End})
	}
	return rt.sink.Deliver(b.Stream, b.Engine().Spec(), b.Data, rt.ms, b.EOS)
}

// forward sends one routed message, newline-terminated, over the
// persistent connection to its port's back-end, dialled on first use; a
// port with no address drops it. The first failure stops forwarding, and
// Shutdown reports it.
func (rt *route) forward(_ string, port int, _ string, message []byte) {
	if rt.fwdErr != nil {
		return
	}
	bc, ok := rt.conns[port]
	if !ok {
		addr, have := rt.addrs[port]
		if !have {
			return // drop
		}
		var err error
		if bc, err = net.Dial("tcp", addr); err != nil {
			rt.fwdErr = err
			return
		}
		rt.conns[port] = bc
	}
	rt.line = append(append(rt.line[:0], message...), '\n')
	if _, err := bc.Write(rt.line); err != nil {
		rt.fwdErr = err
	}
}

// Shutdown drains the server (see serve.Server.Shutdown) and then closes
// the back-end connections. After a clean drain it reports the first
// forwarding failure.
func (rs *routerServer) Shutdown(timeout time.Duration) error {
	err := rs.Server.Shutdown(timeout)
	for _, rt := range rs.routes {
		for _, bc := range rt.conns {
			bc.Close()
		}
		if err == nil {
			err = rt.fwdErr
		}
	}
	return err
}

// reload re-reads every router's grammar_file and hands it to the
// platform's Reload, which publishes a version only for a changed text. A
// grammar the router cannot switch on is refused before the platform ever
// serves it; any failure leaves the running grammar in place. Calls must
// not overlap, so the version before a Reload tells whether it published
// one.
func (rs *routerServer) reload() {
	warn := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "xmlrouter: reload: "+format+"\n", args...)
	}
	for _, name := range rs.plat.Tenants() {
		rt := rs.routes[name]
		if rt.def.GrammarFile == "" {
			continue // built-in grammar, nothing to re-read
		}
		src, spec, err := routerGrammar(rt.def)
		if err != nil {
			warn("%v", err)
			continue
		}
		if err := rt.sink.Check(spec); err != nil {
			warn("router %q: %v", name, err)
			continue
		}
		prev, _ := rs.plat.CurrentVersion(name)
		v, err := rs.plat.Reload(name, src)
		if err != nil {
			warn("router %q: %v", name, err)
		} else if v != prev {
			warn("router %q reloaded as version %d", name, v)
		}
	}
}

// runDemo spins up two sink servers, routes generated traffic through
// the router server over loopback, and prints what each sink received.
func runDemo(messages int, seed int64, def tenantRouter) error {
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

	def.Listen, def.Bank, def.Shop, def.Default = "127.0.0.1:0", sinkAddr[0], sinkAddr[1], ""
	srv, addr, err := buildRouterServer(def)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		srv.Shutdown(0)
		return err
	}
	client, err := net.Dial("tcp", addr)
	if err != nil {
		srv.Shutdown(0)
		return err
	}
	gen := xmlrpc.NewGenerator(seed, xmlrpc.Options{})
	corpus, services := gen.Corpus(messages)
	_, err = client.Write(append([]byte(corpus), '\n'))
	if err == nil {
		// The server hangs up once the stream's final batch is routed.
		client.(*net.TCPConn).CloseWrite()
		_, err = io.Copy(io.Discard, client)
	}
	client.Close()
	// Shutdown closes the back-end connections, which ends the sinks.
	if err := errors.Join(err, srv.Shutdown(0)); err != nil {
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
	// the same names (Shards 0 = GOMAXPROCS; Quarantine is "30s" or
	// nanoseconds, like a platform tenant's).
	Shards     int             `json:"shards,omitempty"`
	MaxStreams int             `json:"max_streams,omitempty"`
	Quarantine cfgtag.Duration `json:"quarantine,omitempty"`
	BatchBytes int             `json:"batch_bytes,omitempty"`
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
	}
	return &cfg, nil
}

// buildConfigServer assembles the -config server: one router per tenant
// of the file at path.
func buildConfigServer(path string) (*routerServer, string, error) {
	cfg, err := loadRouterConfig(path)
	if err != nil {
		return nil, "", err
	}
	return buildRouterServer(cfg.Routers...)
}

// runConfig is -config mode: every tenant router accepts on its own
// address with its own pipeline and grammar; SIGHUP re-reads each tenant's
// grammar_file and hot-swaps changed grammars with zero downtime, and
// SIGTERM drains every tenant's listener through the serve layer.
func runConfig(path string, drain time.Duration) error {
	srv, _, err := buildConfigServer(path)
	if err != nil {
		return err
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			srv.reload()
		}
	}()
	if err := srv.Start(); err != nil {
		return err
	}
	return awaitDrain(srv, drain)
}
