// Natural-language front end (section 5.1): the paper suggests using the
// architecture "for high-speed processing of natural languages ... by
// identifying words within their context". This example runs a small
// English fragment grammar and tags every word with its grammatical role —
// a streaming part-of-speech tagger built from the production positions.
package main

import (
	"fmt"
	"io"
	"os"

	"cfgtag"
)

const english = `
%%
sentence : np vp ;
np       : det nominal ;
det      : "the" | "a" ;
nominal  : "big" nominal | "old" nominal | noun ;
noun     : "dog" | "cat" | "router" | "packet" ;
vp       : verb object ;
verb     : "sees" | "routes" | "parses" ;
object   : | np ;
`

// role maps a production to a part-of-speech label.
var role = map[string]string{
	"det": "DET", "nominal": "ADJ", "noun": "NOUN", "verb": "VERB",
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "natlang:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	engine, err := cfgtag.Compile("english", english)
	if err != nil {
		return err
	}
	sentences := []string{
		"the big old dog sees a cat",
		"a router routes the packet",
		"the cat parses",
	}
	tg := engine.NewTagger()
	for _, s := range sentences {
		fmt.Fprintf(w, "%q\n", s)
		for _, m := range tg.Tag([]byte(s)) {
			prod := m.Context[:indexByte(m.Context, '[')]
			r, ok := role[prod]
			if !ok {
				r = prod
			}
			fmt.Fprintf(w, "  %-8q %-5s (context %s)\n", m.Term, r, m.Context)
		}
	}

	// The stack extension grades grammaticality exactly (section 5.2). The
	// recovery option makes bytes the tagger cannot place visible as error
	// events, so out-of-place words count against the verdict too.
	checked, err := cfgtag.Compile("english", english, cfgtag.RecoverRestart())
	if err != nil {
		return err
	}
	ct, err := checked.NewCheckedTagger(0)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ngrammaticality (stack-checked):")
	for _, s := range []string{
		"the dog sees a cat", // fine
		"the dog the cat",    // two NPs, no verb
		"sees the dog",       // verb first
	} {
		ct.Reset()
		ct.Write([]byte(s))
		err := ct.Close()
		ok := err == nil && ct.Violations() == 0 && ct.Errors() == 0
		fmt.Fprintf(w, "  %-22q grammatical: %v\n", s, ok)
	}
	return nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}
