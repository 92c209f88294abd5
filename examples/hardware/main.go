// Hardware flow: generate the XML-RPC tagger design, synthesize it for
// both table 1 devices, cross-check the gate-level simulation against the
// software engine, and show a slice of the emitted VHDL.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"cfgtag"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hardware:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	engine, err := cfgtag.Compile("xml-rpc", cfgtag.XMLRPCSource)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Synthesis (table 1 rows for the figure 14 grammar):")
	v4, err := engine.Synthesize(cfgtag.Virtex4LX200)
	if err != nil {
		return err
	}
	ve, err := engine.Synthesize(cfgtag.VirtexE2000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, " ", ve)
	fmt.Fprintln(w, " ", v4)
	fmt.Fprintln(w, "\nLUT breakdown (Virtex-4):")
	fmt.Fprint(w, v4.BreakdownString())

	msg := "<methodCall> <methodName>buy</methodName> <params> " +
		"<param> <double>3.14</double> </param> </params> </methodCall>"
	gate, err := engine.NewGateRunner()
	if err != nil {
		return err
	}
	hw := gate.Run([]byte(msg))
	sw := engine.NewTagger().Tag([]byte(msg))
	fmt.Fprintf(w, "\nGate-level simulation vs software engine on a sample message:\n")
	fmt.Fprintf(w, "  hardware detections: %d, software detections: %d, identical: %v\n",
		len(hw), len(sw), equal(hw, sw))

	src, err := engine.VHDL("xmlrpc_tagger")
	if err != nil {
		return err
	}
	lines := strings.SplitN(src, "\n", 16)
	fmt.Fprintf(w, "\nEmitted VHDL (%d bytes), first lines:\n", len(src))
	for _, l := range lines[:15] {
		fmt.Fprintln(w, " ", l)
	}
	return nil
}

func equal(a, b []cfgtag.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
