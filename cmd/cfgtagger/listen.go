package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
)

// serveFlags are the serve-mode flags: the platform config, the listen
// addresses (empty = off) and the drain deadline.
type serveFlags struct {
	config, tcp, http, pprof string
	drain                    time.Duration
}

// runServe is -listen mode: the multi-tenant platform from the JSON
// config behind network stream inputs. TCP connections speak the
// CFGTAG/1 protocol (dedicated streams or key-multiplexed); HTTP serves
// chunked POST streams plus /metrics and /healthz; -pprof serves the
// runtime profiles on a listener of its own. SIGHUP hot-swaps changed
// grammars exactly as in -config pipe mode; a value on term (SIGTERM or
// SIGINT from run) drains gracefully — stop accepting, flush every live
// stream's final batch to its client, then close the listeners. Progress
// lines go to logw.
func runServe(f serveFlags, logw io.Writer, term <-chan os.Signal) error {
	data, err := os.ReadFile(f.config)
	if err != nil {
		return err
	}
	cfg, err := cfgtag.ParsePlatformConfig(data)
	if err != nil {
		return err
	}

	if f.pprof != "" {
		ln, err := net.Listen("tcp", f.pprof)
		if err != nil {
			return err
		}
		defer ln.Close()
		servePprof(ln)
		fmt.Fprintln(logw, "cfgtagger: pprof on", ln.Addr())
	}

	srv := serve.NewServer()
	p, err := cfgtag.NewPlatform(cfg, srv.Deliver)
	if err != nil {
		return err
	}
	srv.Bind(p)
	srv.SetStats(p)

	if f.tcp != "" {
		ln, err := net.Listen("tcp", f.tcp)
		if err != nil {
			p.Close()
			return err
		}
		srv.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{}))
		fmt.Fprintln(logw, "cfgtagger: listening (tcp)", ln.Addr())
	}
	if f.http != "" {
		ln, err := net.Listen("tcp", f.http)
		if err != nil {
			p.Close()
			return err
		}
		srv.AddInput(serve.NewHTTPInput(ln))
		fmt.Fprintln(logw, "cfgtagger: listening (http)", ln.Addr())
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			reloadPlatform(p, f.config)
		}
	}()

	if err := srv.Start(); err != nil {
		p.Close()
		return err
	}

	<-term
	fmt.Fprintln(logw, "cfgtagger: draining...")
	if err := srv.Shutdown(f.drain); err != nil {
		if errors.Is(err, serve.ErrDrainTimeout) {
			fmt.Fprintf(logw, "cfgtagger: drain deadline (%v) hit; open streams were force-flushed\n", f.drain)
		}
		return err
	}
	fmt.Fprintln(logw, "cfgtagger: drained clean")
	return nil
}

// servePprof serves the net/http/pprof handlers on their own listener
// and mux, never on http.DefaultServeMux, so no other listener of the
// process answers /debug/pprof/. The listener is closed by the caller.
func servePprof(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux)
}
