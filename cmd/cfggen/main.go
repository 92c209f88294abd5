// Command cfggen generates corpora: random conforming sentences (via
// grammar-derivation sampling) or realistic XML-RPC message streams
// (figure 14 or full wire dialect). Corpora feed cfgtagger, xmlrouter and
// the benchmark harness.
//
// Usage:
//
//	cfggen -builtin ifthenelse -n 100 > corpus.txt
//	cfggen -xmlrpc -n 500 -seed 7 -value-tags > traffic.txt
//	cfggen -grammar my.y -n 20
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/workload"
	"cfgtag/internal/xmlrpc"
)

func main() {
	var (
		grammarFile = flag.String("grammar", "", "grammar file")
		builtin     = flag.String("builtin", "", "built-in grammar: xmlrpc, ifthenelse or parens")
		xml         = flag.Bool("xmlrpc", false, "generate realistic XML-RPC messages instead of grammar samples")
		valueTags   = flag.Bool("value-tags", false, "with -xmlrpc: real wire format (<value> wrappers)")
		compact     = flag.Bool("compact", false, "with -xmlrpc: no whitespace between tokens")
		n           = flag.Int("n", 10, "number of sentences/messages")
		seed        = flag.Int64("seed", 1, "random seed")
		maxDepth    = flag.Int("max-depth", 0, "derivation depth bound (grammar sampling)")
	)
	flag.Parse()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if *xml {
		gen := xmlrpc.NewGenerator(*seed, xmlrpc.Options{ValueTags: *valueTags, Compact: *compact})
		for i := 0; i < *n; i++ {
			msg, _ := gen.Message()
			fmt.Fprintln(out, msg)
		}
		return
	}

	g, err := loadGrammar(*grammarFile, *builtin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfggen:", err)
		os.Exit(1)
	}
	spec, err := core.Compile(g, core.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfggen:", err)
		os.Exit(1)
	}
	gen := workload.NewGenerator(spec, *seed, workload.SentenceOptions{MaxDepth: *maxDepth})
	for i := 0; i < *n; i++ {
		text, _ := gen.Sentence()
		out.Write(text)
		out.WriteByte('\n')
	}
}

func loadGrammar(grammarFile, builtin string) (*grammar.Grammar, error) {
	switch {
	case grammarFile != "":
		src, err := os.ReadFile(grammarFile)
		if err != nil {
			return nil, err
		}
		return grammar.Parse(grammarFile, string(src))
	case builtin == "xmlrpc":
		return grammar.XMLRPC(), nil
	case builtin == "ifthenelse":
		return grammar.IfThenElse(), nil
	case builtin == "parens":
		return grammar.BalancedParens(), nil
	default:
		return nil, fmt.Errorf("need -grammar FILE, -builtin NAME, or -xmlrpc")
	}
}
