// Parse-tree back end (section 5.1): "the parser could identify tokens to
// create a parse tree" — here the tree drives a real XML-RPC decoder that
// turns message text into typed Go values.
package main

import (
	"fmt"
	"io"
	"os"

	"cfgtag/internal/xmlrpc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "decoder:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	msg := "<methodCall> <methodName>transfer</methodName> <params> " +
		"<param> <struct> " +
		"<member> <name>from</name> <string>checking</string> </member> " +
		"<member> <name>to</name> <string>savings</string> </member> " +
		"<member> <name>amount</name> <double>125.50</double> </member> " +
		"</struct> </param> " +
		"<param> <array> <data> <i4>1</i4> <i4>2</i4> <i4>3</i4> </data> </array> </param> " +
		"</params> </methodCall>"

	call, err := xmlrpc.Decode([]byte(msg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "method: %s\n", call.Method)
	for i, p := range call.Params {
		fmt.Fprintf(w, "param %d (%s): %s\n", i, p.Kind, render(p))
	}

	// The decoder also digests arbitrary generated traffic.
	gen := xmlrpc.NewGenerator(7, xmlrpc.Options{})
	ok := 0
	for i := 0; i < 500; i++ {
		m, _ := gen.Message()
		if _, err := xmlrpc.Decode([]byte(m)); err == nil {
			ok++
		}
	}
	fmt.Fprintf(w, "\ndecoded %d/500 generated messages\n", ok)
	return nil
}

func render(v xmlrpc.Value) string {
	switch v.Kind {
	case xmlrpc.KindInt:
		return fmt.Sprint(v.Int)
	case xmlrpc.KindDouble:
		return fmt.Sprint(v.Double)
	case xmlrpc.KindString, xmlrpc.KindDateTime, xmlrpc.KindBase64:
		return fmt.Sprintf("%q", v.Text)
	case xmlrpc.KindStruct:
		out := "{"
		for _, k := range []string{"from", "to", "amount"} {
			if m, ok := v.Struct[k]; ok {
				out += fmt.Sprintf(" %s: %s", k, render(m))
			}
		}
		return out + " }"
	case xmlrpc.KindArray:
		out := "["
		for _, e := range v.Array {
			out += " " + render(e)
		}
		return out + " ]"
	default:
		return "?"
	}
}
