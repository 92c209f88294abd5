// NIDS-flavored comparison (the paper's section 1 motivation): naive
// pattern matching fires on a signature string wherever it appears, while
// the grammar-driven tagger only fires where the protocol grammar says the
// string is meaningful — eliminating the false positives.
//
// The toy protocol: a session is a sequence of commands; "EXEC name" is
// dangerous, "LOG text" merely records text. The signature of interest is
// the command word "EXEC". Log *payloads* often contain the word EXEC —
// those are the false positives.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"cfgtag"
	"cfgtag/internal/match"
)

const protocolGrammar = `
NAME [a-zA-Z0-9_]+
%%
session : command session | command ;
command : exec | log ;
exec    : "EXEC" NAME ;
log     : "LOG" NAME ;
`

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nids:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	engine, err := cfgtag.Compile("protocol", protocolGrammar)
	if err != nil {
		return err
	}

	// A conforming session: two real EXEC commands, plus LOG payloads that
	// merely mention EXEC.
	session := strings.Join([]string{
		"LOG starting",
		"EXEC payload1",
		"LOG EXEC", // payload says "EXEC" — not a command
		"LOG EXECUTED",
		"EXEC payload2",
		"LOG done",
	}, "\n")
	fmt.Fprintln(w, "session:")
	fmt.Fprintln(w, session)

	// Naive matcher: every occurrence of the signature string.
	m, err := match.New([]string{"EXEC"})
	if err != nil {
		return err
	}
	naive := m.Scan([]byte(session))

	// Context-aware tagger: only the "EXEC" terminal inside the exec
	// production.
	var contextual int
	tg := engine.NewTagger()
	tg.OnMatch = func(mt cfgtag.Match) {
		if mt.Term == "EXEC" {
			contextual++
		}
	}
	tg.Write([]byte(session))
	tg.Close()

	real := strings.Count(session, "\nEXEC") + boolToInt(strings.HasPrefix(session, "EXEC"))
	fmt.Fprintf(w, "\nreal EXEC commands:            %d\n", real)
	fmt.Fprintf(w, "naive pattern matcher fired:   %d  (%d false positives)\n", len(naive), len(naive)-real)
	fmt.Fprintf(w, "grammar-based tagger fired:    %d  (%d false positives)\n", contextual, contextual-real)
	return nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
