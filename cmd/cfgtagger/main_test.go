package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
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
			// The budget is one byte over what the tenant holds once it is
			// set up — the table's start state — so the first line is
			// admitted and tagged exactly like the unbudgeted run. From its
			// Send on, the gauge stays at or over the budget: its queued
			// chunk is charged before Send returns, and tagging it grows
			// the table before the chunk is discharged, so every later line
			// is shed as a whole. (A budget below the table sheds every
			// line: TestShardsMemBudgetCountsTable.)
			budget := setupMemUsage(t, builtin) + 1
			stdin := strings.Repeat(in.sentence+"\n", 8)
			full, err := cli(t, stdin, "-builtin", builtin, "-shards", "2")
			if err != nil {
				t.Fatal(err)
			}
			out, err := cli(t, stdin, "-builtin", builtin, "-shards", "2", "-mem-budget", fmt.Sprint(budget))
			if err != nil {
				t.Fatal(err)
			}
			want, got := byStream(full), byStream(out)
			shedLine := fmt.Sprintf(" shed: over %d-byte memory budget", budget)
			for key, lines := range got {
				if key == "line-0" {
					if strings.Join(lines, "\n") != strings.Join(want[key], "\n") {
						t.Errorf("%s: %q, want the unbudgeted tags %q", key, lines, want[key])
					}
				} else if len(lines) != 1 || !strings.HasSuffix(lines[0], shedLine) {
					t.Errorf("%s: %q, want the shed line", key, lines)
				}
			}
			if len(got) != 8 {
				t.Errorf("%d of 8 lines reported:\n%s", len(got), out)
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

// setupMemUsage builds, in-process, the one-tenant platform that
// "-builtin builtin -shards 2" runs and reports what its memory gauge
// holds before any input: the table's start state.
func setupMemUsage(t *testing.T, builtin string) int64 {
	t.Helper()
	name, src, err := grammarSource("", builtin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfgtag.NewPlatform(&cfgtag.PlatformConfig{Tenants: []cfgtag.TenantDef{{
		Name: name, Grammar: src, Shards: 2,
		Quota: cfgtag.QuotaConfig{MemBudgetBytes: math.MaxInt64},
	}}}, func(string, *cfgtag.TagBatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n, err := p.MemUsage(name)
	if err != nil || n <= 0 {
		t.Fatalf("set-up tenant holds %d bytes (err %v), want the table's start state", n, err)
	}
	return n
}

// TestShardsMemBudgetCountsTable pins -mem-budget as the tenant quota it
// is: the table counts, so a budget below the table's start state sheds
// every line.
func TestShardsMemBudgetCountsTable(t *testing.T) {
	out, err := cli(t, strings.Repeat(inputs["ifthenelse"].sentence+"\n", 4), "-builtin", "ifthenelse", "-shards", "2", "-mem-budget", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out, "4 streams, 0 tokens tagged, 0 stream faults, 4 shed\n") {
		t.Errorf("want every line shed:\n%s", out)
	}
}

// TestShardsChaosReproducible: a -chaos-seed names one fault schedule.
// Each stream's faults follow from the seed and its own first chunk, so
// ten runs at four shards print the same lines for every stream and the
// same summary; only how the streams interleave may differ.
func TestShardsChaosReproducible(t *testing.T) {
	stdin := chaosLines(24)
	var want map[string][]string
	var wantSummary string
	for run := 0; run < 10; run++ {
		out, err := cli(t, stdin, "-builtin", "xmlrpc", "-shards", "4", "-chaos", "0.3", "-chaos-seed", "1")
		if err != nil {
			t.Fatal(err)
		}
		got, summary := byStream(out), out[strings.Index(out, "24 streams, "):]
		if run == 0 {
			want, wantSummary = got, summary
			if !strings.Contains(summary, "\nfaults: ") {
				t.Fatalf("no stream faulted:\n%s", out)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) || summary != wantSummary {
			t.Fatalf("run %d differs from run 0:\n%s\nwant per stream %q\n%s", run, out, want, wantSummary)
		}
	}
}

// chaosLines is n XML-RPC sentences told apart by their trailing blanks:
// -chaos seeds a stream's faults from its first chunk, so equal lines
// would all fault alike.
func chaosLines(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s%s\n", inputs["xmlrpc"].sentence, strings.Repeat(" ", i))
	}
	return b.String()
}

// TestShardsChaos drives -chaos: injected backend errors, panics and
// latency end only the streams they hit. Every line is either tagged
// exactly like the unfaulted run, or ends in a fault line after a prefix
// of those tags, and the fault counters are printed.
func TestShardsChaos(t *testing.T) {
	stdin := chaosLines(16)
	full, err := cli(t, stdin, "-builtin", "xmlrpc", "-shards", "2")
	if err != nil {
		t.Fatal(err)
	}
	out, err := cli(t, stdin, "-builtin", "xmlrpc", "-shards", "2", "-chaos", "0.2", "-chaos-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	want, got := byStream(full), byStream(out)
	faulted := 0
	for key, lines := range got {
		n := len(lines) // the tag lines
		ok := n == len(want[key])
		if strings.Contains(lines[n-1], " fault: ") {
			faulted++
			n--
			ok = n <= len(want[key])
		}
		if !ok || strings.Join(lines[:n], "\n") != strings.Join(want[key][:n], "\n") {
			t.Errorf("%s: %q, want the unfaulted tags %q or a prefix of them and a fault line", key, lines, want[key])
		}
	}
	if len(got) != 16 || faulted == 0 {
		t.Errorf("%d of 16 lines reported, %d faulted (want some):\n%s", len(got), faulted, out)
	}
	if !strings.Contains(out, fmt.Sprintf(", %d stream faults\n", faulted)) || !strings.Contains(out, "\nfaults: ") {
		t.Errorf("no fault summary for %d faulted streams:\n%s", faulted, out)
	}
}
