// XML-RPC content-based router (figure 12): generated methodCall traffic
// is switched to a bank or shopping "server" purely by the service name
// detected inside the methodName production — including a decoy message
// that carries a bank service name in the wrong context. The second half
// replays the scenario at scale: many concurrent connections tagged on a
// sharded pipeline, routed by one Sink.
package main

import (
	"fmt"
	"sort"
	"sync"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/router"
	"cfgtag/internal/runtime"
	"cfgtag/internal/xmlrpc"
)

func main() {
	r, err := router.New(router.FigureTwelve(), 99)
	if err != nil {
		panic(err)
	}
	portName := map[int]string{0: "bank", 1: "shopping", 99: "default"}
	r.OnRoute = func(port int, service string, message []byte) {
		fmt.Printf("  -> %-8s  service=%-10s %d bytes\n", portName[port], service, len(message))
	}

	gen := xmlrpc.NewGenerator(2026, xmlrpc.Options{})
	corpus, _ := gen.Corpus(8)
	fmt.Println("Routing 8 generated messages:")
	// The trailing newline lets the final message clear the one-byte
	// longest-match lookahead before the next section prints.
	if _, err := r.Write(append([]byte(corpus), '\n')); err != nil {
		panic(err)
	}

	// The paper's motivating case: "withdraw" as *parameter data* must not
	// steer the message — only the methodName occurrence counts, because
	// only the STRING tokenizer wired inside methodName reports it.
	decoy := "\n<methodCall> <methodName>price</methodName> <params> " +
		"<param> <string>withdraw</string> </param> </params> </methodCall>"
	fmt.Println("Routing a decoy (says 'withdraw', but only as a parameter):")
	if _, err := r.Write([]byte(decoy)); err != nil {
		panic(err)
	}
	if err := r.Close(); err != nil {
		panic(err)
	}

	st := r.Stats()
	fmt.Printf("\ntotals: %d messages — bank %d, shopping %d, default %d\n",
		st.Messages, st.PerPort[0], st.PerPort[1], st.PerPort[99])

	sharded()
}

// sharded is the replicated-hardware deployment in software: 8 concurrent
// connections feed chunks into a 4-shard pipeline (each connection pinned
// to one shard's tagger), and a single router.Sink consumes the tag
// batches and switches every message.
func sharded() {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		panic(err)
	}
	sink, err := router.NewSink(spec, "methodName", router.FigureTwelve(), 99)
	if err != nil {
		panic(err)
	}
	perConn := make(map[string]int)
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		perConn[stream]++
	}
	factory, _, err := runtime.NewFactory(spec, runtime.FactoryOptions{Kind: runtime.KindStream})
	if err != nil {
		panic(err)
	}
	p, err := runtime.NewPipeline(runtime.Config{Shards: 4, Factory: factory}, sink)
	if err != nil {
		panic(err)
	}

	const conns, perStream = 8, 5
	var wg sync.WaitGroup
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
					panic(err)
				}
			}
			p.CloseStream(key)
		}(c)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		panic(err)
	}

	fmt.Printf("\nSharded pipeline: %d connections x %d messages over 4 shards:\n", conns, perStream)
	keys := make([]string, 0, len(perConn))
	for k := range perConn {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s routed %d messages\n", k, perConn[k])
	}
	st := sink.Stats()
	fmt.Printf("totals: %d messages — bank %d, shopping %d (%d incomplete)\n",
		st.Messages, st.PerPort[0], st.PerPort[1], st.Incomplete)
}
