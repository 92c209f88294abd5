package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServePprof runs serve mode with -listen-http and -pprof: the
// profiles answer on the -pprof listener only, and the CFGTAG HTTP input
// 404s them (importing net/http/pprof registers on http.DefaultServeMux,
// which no input serves). SIGTERM on the term channel drains clean.
func TestServePprof(t *testing.T) {
	grammar, err := filepath.Abs("../../examples/multitenant/lang.y")
	if err != nil {
		t.Fatal(err)
	}
	cfg := filepath.Join(t.TempDir(), "platform.json")
	spec := fmt.Sprintf(`{"tenants": [{"name": "lang", "grammar_file": %q, "shards": 1}]}`, grammar)
	if err := os.WriteFile(cfg, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	logr, logw := io.Pipe()
	term := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(serveFlags{config: cfg, http: "127.0.0.1:0", pprof: "127.0.0.1:0", drain: time.Second}, logw, term)
		logw.Close()
	}()
	addr := map[string]string{}
	sc := bufio.NewScanner(logr)
	for len(addr) < 2 && sc.Scan() {
		for _, tag := range []string{"pprof on", "listening (http)"} {
			if _, a, ok := strings.Cut(sc.Text(), ": "+tag+" "); ok {
				addr[tag] = a
			}
		}
	}
	if len(addr) < 2 {
		t.Fatalf("serve mode did not report both listeners: %v (%v)", addr, <-done)
	}
	go io.Copy(io.Discard, logr)

	get := func(a string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + a + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(addr["pprof on"]); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("-pprof listener: /debug/pprof/ = %d, want 200 with the profile index", code)
	}
	if code, _ := get(addr["listening (http)"]); code != http.StatusNotFound {
		t.Errorf("-listen-http: /debug/pprof/ = %d, want 404", code)
	}

	term <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("runServe after SIGTERM: %v", err)
	}
}

// TestPprofNeedsServeMode: -pprof outside serve mode is an error, not a
// silently ignored flag.
func TestPprofNeedsServeMode(t *testing.T) {
	if _, err := cli(t, "", "-builtin", "ifthenelse", "-pprof", "127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "-pprof") {
		t.Fatalf("-pprof without -listen: err = %v, want one naming -pprof", err)
	}
}
