package main

import (
	"bufio"
	"net"
	"strings"
	"testing"
)

// TestServeCountsAngleBrackets drives one connection through two
// interleaved streams and checks offsets, totals and END lines.
func TestServeCountsAngleBrackets(t *testing.T) {
	client, server := net.Pipe()
	go serve(server)
	go func() {
		client.Write([]byte("CFGTAG/1 MUX xml\nOPEN a\nOPEN b\nDATA a 5\nx<y<z\nDATA b 3\nqqq\nDATA a 2\n<<\nCLOSE a\nCLOSE b\n"))
	}()
	want := map[string][]string{
		"a": {"a TAG 1 0 LT ref[1]", "a TAG 3 0 LT ref[3]", "a TAG 5 0 LT ref[5]", "a TAG 6 0 LT ref[6]", "a END 4"},
		"b": {"b END 0"},
	}
	got := map[string][]string{}
	sc := bufio.NewScanner(client)
	for ended := 0; ended < 2 && sc.Scan(); {
		line := sc.Text()
		key, rest, _ := strings.Cut(line, " ")
		got[key] = append(got[key], line)
		if strings.HasPrefix(rest, "END") {
			ended++
		}
	}
	client.Close()
	for key, lines := range want {
		if strings.Join(got[key], "|") != strings.Join(lines, "|") {
			t.Errorf("stream %s: got %q, want %q", key, got[key], lines)
		}
	}
}
