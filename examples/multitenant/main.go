// Multi-tenant platform: load a declarative config serving two grammars
// from one process, tag streams of both tenants concurrently, then
// hot-swap one tenant's grammar with zero downtime — a stream opened
// before the swap finishes on the old grammar while a new stream runs the
// new one, and the old factory version retires once it drains.
//
// Run from the repository root:
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"cfgtag"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "multitenant:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	data, err := os.ReadFile("examples/multitenant/platform.json")
	if err != nil {
		return err
	}
	cfg, err := cfgtag.ParsePlatformConfig(data)
	if err != nil {
		return err
	}

	// Track which streams have been seen and which have finished, so the
	// demo can sequence its phases on actual deliveries.
	var mu sync.Mutex
	seen := make(map[string]bool)
	eos := make(map[string]bool)
	p, err := cfgtag.NewPlatform(cfg, func(tenant string, b *cfgtag.TagBatch) error {
		mu.Lock()
		defer mu.Unlock()
		seen[b.Stream] = true
		if b.EOS {
			eos[b.Stream] = true
		}
		for _, m := range b.Tags {
			fmt.Fprintf(w, "  %-5s %-11s v%d %8d  %-16q %s\n",
				tenant, b.Stream, b.Version, m.End, m.Term, m.Context)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer p.Close()
	waitFor := func(m map[string]bool, stream string) {
		for {
			mu.Lock()
			ok := m[stream]
			mu.Unlock()
			if ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One stream per tenant, the second sent once the first has ended, so
	// the two tenants' lines print in a fixed order.
	fmt.Fprintln(w, "Two tenants, one process:")
	p.Send("lang", "job-1", []byte("if true then go else stop"))
	p.CloseStream("lang", "job-1")
	waitFor(eos, "job-1")
	p.Send("xml", "conn-1", []byte("<methodCall> <methodName>deposit</methodName> <params> </params> </methodCall>"))
	p.CloseStream("xml", "conn-1")
	waitFor(eos, "conn-1")

	// Open a stream and wait for its first batch to be delivered — the
	// stream has now bound factory version 1 — then reload the tenant's
	// grammar underneath it.
	p.Send("lang", "old-stream", []byte("if false then "))
	waitFor(seen, "old-stream")
	newGrammar := `
%%
E : "if" C "then" E "else" E | "run" | "halt" ;
C : "true" | "false" ;
`
	v, err := p.Reload("lang", newGrammar)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nReloaded tenant \"lang\" as version %d (go/stop became run/halt).\n", v)
	fmt.Fprintln(w, "The live stream still speaks the old grammar; a new one speaks the new:")

	p.Send("lang", "old-stream", []byte("go else stop"))
	p.CloseStream("lang", "old-stream")
	p.Send("lang", "new-stream", []byte("if true then run else halt"))
	p.CloseStream("lang", "new-stream")
	waitFor(eos, "old-stream")
	waitFor(eos, "new-stream")

	// The old version retires once old-stream's final batch is delivered.
	for {
		vs, err := p.LiveVersions("lang")
		if err != nil {
			return err
		}
		if len(vs) == 1 {
			fmt.Fprintf(w, "\nOld version retired; live versions: %v\n", vs)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}
