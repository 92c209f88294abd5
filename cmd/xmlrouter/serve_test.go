package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/grammar"
	"cfgtag/internal/router"
	"cfgtag/internal/xmlrpc"
)

// lineSink is a fake back-end service: a TCP listener counting the
// newline-delimited messages the router forwards to it.
type lineSink struct {
	ln    net.Listener
	lines atomic.Int64
}

func newLineSink(t *testing.T) *lineSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &lineSink{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
				for sc.Scan() {
					s.lines.Add(1)
				}
			}(conn)
		}
	}()
	return s
}

func (s *lineSink) addr() string { return s.ln.Addr().String() }

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestListenerDrainNoByteLoss proves the SIGTERM drain path loses no
// in-flight bytes, on GOMAXPROCS shards and on two: a client writes half its
// corpus, Shutdown begins mid-stream (new connections are refused), the
// client finishes, and every message still reaches the back-end server
// its content selects.
func TestListenerDrainNoByteLoss(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bank, shop := newLineSink(t), newLineSink(t)
			srv, addr, err := buildRouterServer(tenantRouter{Name: routerTenant, Listen: "127.0.0.1:0",
				Bank: bank.addr(), Shop: shop.addr(), Shards: shards, BatchBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}

			const messages = 60
			gen := xmlrpc.NewGenerator(7, xmlrpc.Options{})
			corpus, services := gen.Corpus(messages)
			wantBank, wantShop := 0, 0
			for _, s := range services {
				if xmlrpc.ServiceDestination(s) == 0 {
					wantBank++
				} else {
					wantShop++
				}
			}

			client, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			half := len(corpus) / 2
			if _, err := client.Write([]byte(corpus[:half])); err != nil {
				t.Fatal(err)
			}
			waitCond(t, 5*time.Second, "stream registered", func() bool {
				return srv.ActiveSessions() == 1
			})

			// Begin the drain mid-stream, exactly as SIGTERM would.
			shutdownErr := make(chan error, 1)
			go func() { shutdownErr <- srv.Shutdown(time.Minute) }()
			waitCond(t, 5*time.Second, "draining state", func() bool {
				return srv.Draining()
			})

			// New work is refused while draining...
			late, err := net.Dial("tcp", addr)
			if err == nil {
				late.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 64)
				if n, _ := late.Read(buf); n > 0 {
					t.Fatalf("refused conn got %d unexpected bytes: %q", n, buf[:n])
				}
				late.Close()
			}

			// ...but the in-flight stream finishes and loses nothing.
			if _, err := client.Write(append([]byte(corpus[half:]), '\n')); err != nil {
				t.Fatal(err)
			}
			if tc, ok := client.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			if err := <-shutdownErr; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("ActiveSessions after drain = %d, want 0", n)
			}
			waitCond(t, 5*time.Second, "sink byte counts", func() bool {
				return int(bank.lines.Load()) == wantBank && int(shop.lines.Load()) == wantShop
			})
			if srv.Refused() == 0 {
				t.Fatal("draining refusal was not counted")
			}
		})
	}
}

// portCounts routes corpus as one stream under the grammar src and counts
// the lines the bank (0) and shop (1) back-ends receive: one per message,
// plus the newlines inside a message (the full dialect routes a span of
// figure 14 messages as one).
func portCounts(t *testing.T, src, corpus string) [2]int {
	t.Helper()
	g, err := grammar.Parse("xml", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := router.NewWithGrammar(g, "methodName", router.FigureTwelve(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var n [2]int
	r.OnRoute = func(port int, _ string, message []byte) {
		if port < 2 {
			n[port] += 1 + bytes.Count(message, []byte("\n"))
		}
	}
	if _, err := r.Write([]byte(corpus + "\n")); err != nil {
		t.Fatal(err)
	}
	r.Close() // a tail the grammar leaves unrouted is not counted either way
	return n
}

// writeFile replaces the file at path with data.
func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRouterConfigReload drives the -config server's SIGHUP reload: an
// unchanged grammar makes no version, a grammar the router cannot switch
// on is refused before it serves, and a changed one becomes version 2 — a
// connection open across the reload keeps routing on the old grammar, a
// new connection routes on the new one, and the old version retires.
func TestRouterConfigReload(t *testing.T) {
	bank, shop := newLineSink(t), newLineSink(t)
	dir := t.TempDir()
	grammarPath := filepath.Join(dir, "router.y")
	writeFile(t, grammarPath, cfgtag.XMLRPCSource)
	cfgPath := filepath.Join(dir, "routers.json")
	cfg, err := json.Marshal(routerConfig{Routers: []tenantRouter{{
		Name: "r", Listen: "127.0.0.1:0", Bank: bank.addr(), Shop: shop.addr(),
		GrammarFile: grammarPath, Shards: 2, BatchBytes: 512,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, cfgPath, string(cfg))
	srv, addr, err := buildConfigServer(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Minute)
	version := func() int {
		v, err := srv.plat.CurrentVersion("r")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	gen := xmlrpc.NewGenerator(7, xmlrpc.Options{})
	corpus, _ := gen.Corpus(12)
	half := len(corpus) / 2
	wantOld := portCounts(t, cfgtag.XMLRPCSource, corpus)
	wantNew := portCounts(t, cfgtag.XMLRPCFullSource, corpus)
	if wantOld == wantNew {
		t.Fatalf("both grammars route %v; the reload would be unobservable", wantOld)
	}

	// A connection opens on version 1: wait until its bytes have been
	// tagged, so it provably runs the old grammar.
	old, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if _, err := old.Write([]byte(corpus[:half])); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "first bytes tagged", func() bool {
		c, _, err := srv.plat.Metrics("r")
		return err == nil && c.Bytes > 0
	})

	srv.reload()
	if v := version(); v != 1 {
		t.Fatalf("unchanged grammar: CurrentVersion = %d, want 1", v)
	}

	// Compiles, but methodName carries no class terminal to switch on.
	bad := strings.Replace(cfgtag.XMLRPCSource, `"<methodName>" STRING "</methodName>"`, `"<methodName>" "buy" "</methodName>"`, 1)
	if _, err := cfgtag.Compile("r", bad, cfgtag.FreeRunningStart()); err != nil {
		t.Fatalf("bad grammar does not compile: %v", err)
	}
	writeFile(t, grammarPath, bad)
	srv.reload()
	if v := version(); v != 1 {
		t.Fatalf("refused grammar: CurrentVersion = %d, want 1", v)
	}

	writeFile(t, grammarPath, cfgtag.XMLRPCFullSource)
	srv.reload()
	if v := version(); v != 2 {
		t.Fatalf("changed grammar: CurrentVersion = %d, want 2", v)
	}

	// finish sends the rest of a connection's stream and waits for the
	// server to hang up, which it does once the final batch is routed.
	finish := func(c net.Conn, rest string) {
		t.Helper()
		if _, err := c.Write([]byte(rest + "\n")); err != nil {
			t.Fatal(err)
		}
		c.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, c)
	}
	counts := func() [2]int { return [2]int{int(bank.lines.Load()), int(shop.lines.Load())} }
	finish(old, corpus[half:])
	waitCond(t, 5*time.Second, "old connection routed on the old grammar", func() bool {
		return counts() == wantOld
	})
	fresh, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	finish(fresh, corpus)
	want := [2]int{wantOld[0] + wantNew[0], wantOld[1] + wantNew[1]}
	waitCond(t, 5*time.Second, "new connection routed on the new grammar", func() bool {
		return counts() == want
	})
	if got := counts(); got != want {
		t.Fatalf("back-ends received %v, want %v", got, want)
	}
	waitCond(t, 5*time.Second, "old version retired", func() bool {
		lv, err := srv.plat.LiveVersions("r")
		return err == nil && reflect.DeepEqual(lv, []int{2})
	})
}

// TestRouterConfigQuarantine decodes a router's quarantine like a
// platform tenant's: a duration string or nanoseconds loads, and a bad
// duration fails to decode with an error naming the file.
func TestRouterConfigQuarantine(t *testing.T) {
	dir := t.TempDir()
	load := func(quarantine string) (*routerConfig, string, error) {
		path := filepath.Join(dir, "routers.json")
		writeFile(t, path, `{"routers": [{"name": "r", "listen": "127.0.0.1:0", "bank": "b:1", "shop": "s:1", "quarantine": `+quarantine+`}]}`)
		cfg, err := loadRouterConfig(path)
		return cfg, path, err
	}
	for src, want := range map[string]time.Duration{`"2s"`: 2 * time.Second, `1500`: 1500 * time.Nanosecond, `"-1ns"`: -time.Nanosecond} {
		cfg, _, err := load(src)
		if err != nil {
			t.Fatalf("quarantine %s: %v", src, err)
		}
		if got := time.Duration(cfg.Routers[0].Quarantine); got != want {
			t.Errorf("quarantine %s = %v, want %v", src, got, want)
		}
	}
	if _, path, err := load(`"soon"`); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "soon") {
		t.Fatalf("bad quarantine: err = %v, want a decode error naming %s", err, path)
	}
}
