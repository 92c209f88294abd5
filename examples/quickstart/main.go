// Quickstart: compile the paper's if-then-else grammar (figure 9), inspect
// the Follow-set wiring it induces (figures 10 and 11), and tag a stream.
package main

import (
	"fmt"
	"io"
	"os"

	"cfgtag"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	engine, err := cfgtag.Compile("if-then-else", cfgtag.IfThenElseSource)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Follow sets (figure 10):")
	fmt.Fprintln(w, engine.FollowTable())

	fmt.Fprintln(w, "Tokenizer wiring (figure 11):")
	fmt.Fprintln(w, engine.Wiring())

	input := "if true then if false then stop else go else stop"
	fmt.Fprintf(w, "Tagging: %q\n", input)
	tg := engine.NewTagger()
	tg.OnMatch = func(m cfgtag.Match) {
		end := ""
		if m.SentenceEnd {
			end = "  <- a sentence may end here"
		}
		fmt.Fprintf(w, "  byte %2d  %-8q context %-6s index %d%s\n", m.End, m.Term, m.Context, m.Index, end)
	}
	if _, err := tg.Write([]byte(input)); err != nil {
		return err
	}
	tg.Close()

	// The engine keeps no stack (section 3.1): it accepts a superset of
	// the language. The LL(1) baseline parser — which does keep the stack
	// — tells the two apart.
	p, err := engine.NewParser()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nStack-less engine vs true parser:")
	for _, s := range []string{"go", "if true then go else stop", "if true go"} {
		tagged := len(engine.NewTagger().Tag([]byte(s)))
		fmt.Fprintf(w, "  %-28q  tagger: %d tokens tagged, LL(1) parser accepts: %v\n",
			s, tagged, p.Accepts([]byte(s)))
	}

	// Every execution path — the served table under both its names, the
	// bit-parallel NFA it is filled from, gate-level simulation of the
	// generated hardware, the LL(1) baseline, and the Earley
	// exact-language oracle — runs behind one streaming Backend contract.
	fmt.Fprintln(w, "\nSame stream through every backend:")
	for _, kind := range []cfgtag.BackendKind{cfgtag.StreamBackend, cfgtag.DFABackend, cfgtag.AOTBackend, cfgtag.GatesBackend, cfgtag.ParserBackend, cfgtag.EarleyBackend} {
		b, err := engine.NewBackend(kind)
		if err != nil {
			return err
		}
		if err := b.Feed([]byte(input)); err != nil {
			return err
		}
		verdict := "accept"
		if err := b.Close(); err != nil {
			verdict = "reject"
		}
		c := b.Counters()
		fmt.Fprintf(w, "  %-7s  %d bytes, %d matches, %s\n", kind, c.Bytes, c.Matches, verdict)
	}
	return nil
}
