// Network-path throughput benchmark: the CFGTAG/1 TCP front door over
// the multi-tenant platform, end to end — framing, session registry,
// sharded pipeline, tag write-back — measured in payload MB/s. Lives in
// package cfgtag_test because the serve layer imports cfgtag.
package cfgtag_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"cfgtag"
	"cfgtag/internal/serve"
)

// BenchmarkServeTCP pumps b.N streams through one key-multiplexed TCP
// connection against a live listener: each iteration opens a stream,
// sends an 8 KiB if/then/else payload and closes it, while a reader
// goroutine drains the interleaved TAG/END responses.
func BenchmarkServeTCP(b *testing.B) {
	cfg := &cfgtag.PlatformConfig{
		Tenants: []cfgtag.TenantDef{{
			Name:    "bench",
			Grammar: cfgtag.IfThenElseSource,
			Options: []string{"free-running-start"},
			Backend: "dfa",
			Shards:  2,
			Queue:   256,
		}},
	}
	srv := serve.NewServer()
	p, err := cfgtag.NewPlatform(cfg, srv.Deliver)
	if err != nil {
		b.Fatal(err)
	}
	srv.Bind(p)
	srv.SetStats(p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv.AddInput(serve.NewTCPInput(ln, serve.TCPOptions{}))
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(time.Minute)

	payload := []byte(strings.Repeat("if a then if b then c else d ; ", 256)) // ~8 KiB
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	readerDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, conn)
		readerDone <- err
	}()
	w := bufio.NewWriterSize(conn, 64<<10)
	w.Write(serve.AppendHandshake(nil, serve.Handshake{Tenant: "bench", Mux: true}))

	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("s%d", i)
		frame := serve.AppendFrame(nil, serve.Frame{Op: serve.FrameOpen, Key: key})
		frame = serve.AppendFrame(frame, serve.Frame{Op: serve.FrameData, Key: key, Payload: payload})
		frame = serve.AppendFrame(frame, serve.Frame{Op: serve.FrameClose, Key: key})
		if _, err := w.Write(frame); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	// Keep the clock running until every stream's END line came back, so
	// MB/s reflects full end-to-end processing, not just ingestion.
	<-readerDone
	b.StopTimer()
	// How far write-back coalescing went: socket writes per stream served
	// (two batches each — data and END — before any sharing).
	var writes float64
	for _, line := range strings.Split(srv.MetricsText(), "\n") {
		fmt.Sscanf(line, "serve_output_writes_total %g", &writes)
	}
	b.ReportMetric(writes/float64(b.N), "writes/stream")
}
