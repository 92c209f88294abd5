// XML-RPC content-based router (figure 12): generated methodCall traffic
// is switched to a bank or shopping "server" purely by the service name
// detected inside the methodName production — including a decoy message
// that carries a bank service name in the wrong context. The second half
// replays the scenario at scale: many concurrent connections tagged on a
// sharded pipeline, routed by one Sink.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"cfgtag"
	"cfgtag/internal/router"
	"cfgtag/internal/stream"
	"cfgtag/internal/xmlrpc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xmlrpc-router:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	r, err := router.New(router.FigureTwelve(), 99)
	if err != nil {
		return err
	}
	portName := map[int]string{0: "bank", 1: "shopping", 99: "default"}
	r.OnRoute = func(port int, service string, message []byte) {
		fmt.Fprintf(w, "  -> %-8s  service=%-10s %d bytes\n", portName[port], service, len(message))
	}

	gen := xmlrpc.NewGenerator(2026, xmlrpc.Options{})
	corpus, _ := gen.Corpus(8)
	fmt.Fprintln(w, "Routing 8 generated messages:")
	// The trailing newline lets the final message clear the one-byte
	// longest-match lookahead before the next section prints.
	if _, err := r.Write(append([]byte(corpus), '\n')); err != nil {
		return err
	}

	// The paper's motivating case: "withdraw" as *parameter data* must not
	// steer the message — only the methodName occurrence counts, because
	// only the STRING tokenizer wired inside methodName reports it.
	decoy := "\n<methodCall> <methodName>price</methodName> <params> " +
		"<param> <string>withdraw</string> </param> </params> </methodCall>"
	fmt.Fprintln(w, "Routing a decoy (says 'withdraw', but only as a parameter):")
	if _, err := r.Write([]byte(decoy)); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}

	st := r.Stats()
	fmt.Fprintf(w, "\ntotals: %d messages — bank %d, shopping %d, default %d\n",
		st.Messages, st.PerPort[0], st.PerPort[1], st.PerPort[99])

	return sharded(w)
}

// sharded is the replicated-hardware deployment in software: 8 concurrent
// connections feed chunks into a 4-shard pipeline (each connection pinned
// to one shard's runner of the shared table), and a single router.Sink
// consumes the tag batches and switches every message.
func sharded(w io.Writer) error {
	engine, err := cfgtag.Compile("xml-rpc", cfgtag.XMLRPCSource, cfgtag.FreeRunningStart())
	if err != nil {
		return err
	}
	sink, err := router.NewSink(engine.Spec(), "methodName", router.FigureTwelve(), 99)
	if err != nil {
		return err
	}
	perConn := make(map[string]int)
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		perConn[stream]++
	}
	// The pipeline hands each batch to the sink with the spec of the
	// engine that tagged it.
	var ms []stream.Match
	p, err := engine.NewPipeline(cfgtag.PipelineConfig{Shards: 4}, func(b *cfgtag.TagBatch) error {
		ms = ms[:0]
		for _, m := range b.Tags {
			ms = append(ms, stream.Match{InstanceID: m.InstanceID, End: m.End})
		}
		return sink.Deliver(b.Stream, b.Engine().Spec(), b.Data, ms, b.EOS)
	})
	if err != nil {
		return err
	}

	const conns, perStream = 8, 5
	var wg sync.WaitGroup
	sendErrs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("conn-%d", c)
			gen := xmlrpc.NewGenerator(int64(300+c), xmlrpc.Options{})
			corpus, _ := gen.Corpus(perStream)
			text := []byte(corpus + "\n")
			for lo := 0; lo < len(text); lo += 64 {
				hi := lo + 64
				if hi > len(text) {
					hi = len(text)
				}
				if err := p.Send(key, text[lo:hi]); err != nil {
					sendErrs[c] = err
					return
				}
			}
			sendErrs[c] = p.CloseStream(key)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(append(sendErrs, p.Close())...); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nSharded pipeline: %d connections x %d messages over 4 shards:\n", conns, perStream)
	keys := make([]string, 0, len(perConn))
	for k := range perConn {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s routed %d messages\n", k, perConn[k])
	}
	st := sink.Stats()
	fmt.Fprintf(w, "totals: %d messages — bank %d, shopping %d (%d incomplete)\n",
		st.Messages, st.PerPort[0], st.PerPort[1], st.Incomplete)
	return nil
}
