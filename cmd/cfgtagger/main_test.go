package main

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"cfgtag"
)

// One conforming sentence per built-in grammar the tests drive, and a
// non-sentence the FSA still tags part of.
var inputs = map[string]struct{ sentence, broken string }{
	"ifthenelse": {"if true then go else stop", "if true go"},
	"xmlrpc": {
		"<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>",
		"<methodCall> <methodName>buy</methodName> </methodCall>",
	},
}

var (
	servedKinds    = []string{"", "dfa", "aot"}
	referenceKinds = []string{"stream", "gates", "parser", "earley"}
)

// name labels a kind's subtest; the empty kind is the default.
func name(kind string) string {
	if kind == "" {
		return "default"
	}
	return kind
}

// cli runs the command in-process and returns what it printed.
func cli(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out)
	return out.String(), err
}

// split separates the tag lines of an output from its trailer (token
// count, verdict, per-kind statistics).
func split(out string) (tags, trailer []string) {
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.Contains(line, "idx=") {
			tags = append(tags, line)
		} else {
			trailer = append(trailer, line)
		}
	}
	return tags, trailer
}

// byStream groups the per-stream lines of a -shards run (tag and shed
// lines, which start with the stream key) by key.
func byStream(out string) map[string][]string {
	m := make(map[string][]string)
	for _, line := range strings.Split(out, "\n") {
		if key, _, ok := strings.Cut(line, " "); ok && strings.HasPrefix(key, "line-") {
			m[key] = append(m[key], line)
		}
	}
	return m
}

// TestSingleStream drives -backend for every execution path: identical
// tag lines on a conforming sentence, the verdict line from the two exact
// recognizers (accept, and reject with exit status 0 on a non-sentence),
// and the cache line of every spelling of the served table.
func TestSingleStream(t *testing.T) {
	for builtin, in := range inputs {
		want, _ := cli(t, in.sentence, "-builtin", builtin, "-backend", "stream")
		wantTags, _ := split(want)
		if len(wantTags) == 0 {
			t.Fatalf("%s: the stream path tagged nothing:\n%s", builtin, want)
		}
		for _, kind := range append(append([]string(nil), servedKinds...), referenceKinds...) {
			t.Run(builtin+"/"+name(kind), func(t *testing.T) {
				out, err := cli(t, in.sentence, "-builtin", builtin, "-backend", kind)
				if err != nil {
					t.Fatal(err)
				}
				tags, trailer := split(out)
				if strings.Join(tags, "\n") != strings.Join(wantTags, "\n") {
					t.Errorf("tag lines differ from the stream path:\n%s\nwant\n%s", out, want)
				}
				rest := strings.Join(trailer, "\n")
				exact := kind == "parser" || kind == "earley"
				served := kind == "" || kind == "dfa" || kind == "aot"
				for line, expect := range map[string]bool{
					"tokens tagged":   true,
					"verdict: accept": exact,
					"table cache: ":   served,
				} {
					if strings.Contains(rest, line) != expect {
						t.Errorf("trailer line %q present = %v, want %v:\n%s", line, !expect, expect, rest)
					}
				}
				out, err = cli(t, in.broken, "-builtin", builtin, "-backend", kind)
				if err != nil {
					t.Fatalf("non-sentence: %v (a reject is output, not a failure)", err)
				}
				if strings.Contains(out, "verdict: reject") != exact {
					t.Errorf("non-sentence: reject verdict present = %v, want %v:\n%s", !exact, exact, out)
				}
			})
		}
	}
}

// TestShards drives -shards: the three spellings of the served table tag
// every line as its own stream with identical results, and the four
// reference paths are refused with a typed configuration error before
// anything is read.
func TestShards(t *testing.T) {
	for builtin, in := range inputs {
		stdin := in.sentence + "\n" + in.sentence + "\n" + in.sentence + "\n"
		single, _ := cli(t, in.sentence, "-builtin", builtin)
		perStream, _ := split(single)
		var want []string
		for _, kind := range servedKinds {
			t.Run(builtin+"/"+name(kind), func(t *testing.T) {
				out, err := cli(t, stdin, "-builtin", builtin, "-backend", kind, "-shards", "2")
				if err != nil {
					t.Fatal(err)
				}
				tags, trailer := split(out)
				if len(tags) != 3*len(perStream) {
					t.Errorf("%d tag lines for 3 streams of %d tags:\n%s", len(tags), len(perStream), out)
				}
				if len(trailer) != 1 || !strings.HasPrefix(trailer[0], "3 streams, ") || !strings.HasSuffix(trailer[0], " 0 stream faults") {
					t.Errorf("summary = %q", trailer)
				}
				// Streams on different shards print in either order.
				sort.Strings(tags)
				if want == nil {
					want = tags
				} else if strings.Join(tags, "\n") != strings.Join(want, "\n") {
					t.Errorf("tag lines differ from the default path:\n%s", out)
				}
			})
		}
		t.Run(builtin+"/mem-budget", func(t *testing.T) {
			// A 1-byte budget is exceeded by the first queued arena, so
			// lines are shed while one is in flight. Every line is either
			// tagged exactly like the unbudgeted run or shed as a whole.
			stdin := strings.Repeat(in.sentence+"\n", 8)
			full, err := cli(t, stdin, "-builtin", builtin, "-shards", "2")
			if err != nil {
				t.Fatal(err)
			}
			out, err := cli(t, stdin, "-builtin", builtin, "-shards", "2", "-mem-budget", "1")
			if err != nil {
				t.Fatal(err)
			}
			want, got := byStream(full), byStream(out)
			shed := 0
			for key, lines := range got {
				if len(lines) == 1 && strings.HasSuffix(lines[0], " shed: over 1-byte memory budget") {
					shed++
				} else if strings.Join(lines, "\n") != strings.Join(want[key], "\n") {
					t.Errorf("%s: %q, want the unbudgeted tags %q or the shed line", key, lines, want[key])
				}
			}
			if len(got) != 8 || shed == 0 {
				t.Errorf("%d of 8 lines reported, %d shed (want some):\n%s", len(got), shed, out)
			}
		})
		for _, kind := range referenceKinds {
			t.Run(builtin+"/"+kind, func(t *testing.T) {
				out, err := cli(t, stdin, "-builtin", builtin, "-backend", kind, "-shards", "2")
				if !errors.Is(err, cfgtag.ErrInvalidConfig) || !strings.Contains(err.Error(), "single-stream") {
					t.Errorf("err = %v, want ErrInvalidConfig naming the single-stream alternative", err)
				}
				if out != "" {
					t.Errorf("a refused run printed:\n%s", out)
				}
			})
		}
	}
}
