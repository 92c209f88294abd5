package stream

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
)

func mustSpec(t *testing.T, g *grammar.Grammar, opts core.Options) *core.Spec {
	t.Helper()
	s, err := core.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// terms maps matches to their terminal names in order.
func terms(s *core.Spec, ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = s.Instances[m.InstanceID].Term
	}
	return out
}

// contexts maps matches to "term@context" strings.
func contexts(s *core.Spec, ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		in := s.Instances[m.InstanceID]
		out[i] = in.Term + "@" + in.Context(s.Grammar)
	}
	return out
}

func ends(ms []Match) []int64 {
	out := make([]int64, len(ms))
	for i, m := range ms {
		out[i] = m.End
	}
	return out
}

func TestIfThenElseSentence(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	input := "if true then go else stop"
	got := terms(s, tg.Tag([]byte(input)))
	want := []string{"if", "true", "then", "go", "else", "stop"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v, want %v", got, want)
	}
}

func TestIfThenElseNested(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	input := "if false then if true then stop else go else stop"
	got := terms(s, tg.Tag([]byte(input)))
	want := []string{"if", "false", "then", "if", "true", "then", "stop", "else", "go", "else", "stop"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v, want %v", got, want)
	}
}

func TestMatchEndOffsets(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	//        0123456789
	input := "if true then go"
	ms := tg.Tag([]byte(input))
	wantEnds := []int64{1, 6, 11, 14}
	if !reflect.DeepEqual(ends(ms), wantEnds) {
		t.Errorf("ends = %v, want %v", ends(ms), wantEnds)
	}
}

func TestNonConformingInputStalls(t *testing.T) {
	// "then" out of context is never tagged: the engine only looks where
	// the wiring points.
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	got := terms(s, tg.Tag([]byte("then go")))
	if len(got) != 0 {
		t.Errorf("out-of-context tags = %v, want none", got)
	}
	// After garbage kills the parse, nothing resumes (anchored start).
	got = terms(s, tg.Tag([]byte("if bogus then go")))
	if !reflect.DeepEqual(got, []string{"if"}) {
		t.Errorf("tags = %v, want [if]", got)
	}
}

func TestDelimiterRunsHoldPending(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	input := "if \t\n  true   \t then\n\n go"
	got := terms(s, tg.Tag([]byte(input)))
	want := []string{"if", "true", "then", "go"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v, want %v", got, want)
	}
}

func TestPartialTokenDiesAtDelimiter(t *testing.T) {
	// "tr ue" must not be recognized as "true" (section 3.2: only the
	// first register is stalled, so a partial match dies at a delimiter).
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	got := terms(s, tg.Tag([]byte("if tr ue then go")))
	if !reflect.DeepEqual(got, []string{"if"}) {
		t.Errorf("tags = %v, want [if] only", got)
	}
}

func TestBalancedParens(t *testing.T) {
	s := mustSpec(t, grammar.BalancedParens(), core.Options{})
	tg := NewTagger(s)
	got := terms(s, tg.Tag([]byte("( ( 0 ) )")))
	want := []string{"(", "(", "0", ")", ")"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v, want %v", got, want)
	}
}

func TestSupersetAcceptance(t *testing.T) {
	// Without a stack the engine accepts a superset of the grammar
	// (section 3.1): unbalanced parens still tag every token.
	s := mustSpec(t, grammar.BalancedParens(), core.Options{})
	tg := NewTagger(s)
	got := terms(s, tg.Tag([]byte("( 0 ) )")))
	want := []string{"(", "0", ")", ")"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unbalanced tags = %v, want %v (superset acceptance)", got, want)
	}
}

func TestAdjacentTokensNoDelimiter(t *testing.T) {
	s := mustSpec(t, grammar.BalancedParens(), core.Options{})
	tg := NewTagger(s)
	got := terms(s, tg.Tag([]byte("((0))")))
	want := []string{"(", "(", "0", ")", ")"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adjacent tags = %v, want %v", got, want)
	}
}

func TestLongestMatch(t *testing.T) {
	g, err := grammar.Parse("ints", "INT [0-9]+\n%%\nS : INT T ;\nT : | INT T ;\n")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	ms := tg.Tag([]byte("123 45 6"))
	// Longest match: exactly one detection per run, at its last digit.
	wantEnds := []int64{2, 5, 7}
	if !reflect.DeepEqual(ends(ms), wantEnds) {
		t.Errorf("ends = %v, want %v", ends(ms), wantEnds)
	}
}

func TestNoLongestMatchAblation(t *testing.T) {
	g, err := grammar.Parse("ints", "INT [0-9]+\n%%\nS : INT T ;\nT : | INT T ;\n")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{NoLongestMatch: true})
	tg := NewTagger(s)
	ms := tg.Tag([]byte("123"))
	// Without the figure 7 lookahead, a+ style tokens assert every cycle,
	// and each premature completion spuriously enables the follow-on
	// instance too: the first INT fires at offsets 0,1,2 while the
	// second INT instance (wired after the first) also fires at 1,2.
	wantEnds := []int64{0, 1, 1, 2, 2}
	if !reflect.DeepEqual(ends(ms), wantEnds) {
		t.Errorf("ablated ends = %v, want %v", ends(ms), wantEnds)
	}
}

// sampleRPC follows the figure 14 dialect: value is a pure nonterminal, so
// there are no <value>/</value> wrapper tags in the message text.
const sampleRPC = `<methodCall> <methodName>deposit</methodName> <params> ` +
	`<param> <i4>42</i4> </param> </params> </methodCall>`

func TestXMLRPCMessage(t *testing.T) {
	s := mustSpec(t, grammar.XMLRPC(), core.Options{})
	tg := NewTagger(s)
	got := contexts(s, tg.Tag([]byte(sampleRPC)))
	want := []string{
		"<methodCall>@methodCall[0]",
		"<methodName>@methodName[0]",
		"STRING@methodName[1]",
		"</methodName>@methodName[2]",
		"<params>@params[0]",
		"<param>@param[0]",
		"<i4>@i4[0]",
		"INT@i4[1]",
		"</i4>@i4[2]",
		"</param>@param[2]",
		"</params>@params[2]",
		"</methodCall>@methodCall[3]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("contexts = %v,\nwant %v", got, want)
	}
}

func TestXMLRPCAdjacentTags(t *testing.T) {
	// No whitespace anywhere: tags and values are directly adjacent.
	s := mustSpec(t, grammar.XMLRPC(), core.Options{})
	tg := NewTagger(s)
	msg := "<methodCall><methodName>buy</methodName><params><param><string>book7</string></param></params></methodCall>"
	got := terms(s, tg.Tag([]byte(msg)))
	want := []string{
		"<methodCall>", "<methodName>", "STRING", "</methodName>",
		"<params>", "<param>", "<string>", "STRING", "</string>",
		"</param>", "</params>", "</methodCall>",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v,\nwant %v", got, want)
	}
}

func TestXMLRPCDateTime(t *testing.T) {
	s := mustSpec(t, grammar.XMLRPC(), core.Options{})
	tg := NewTagger(s)
	msg := "<methodCall><methodName>when</methodName><params><param>" +
		"<dateTime.iso8601>19980717T14:08:55</dateTime.iso8601>" +
		"</param></params></methodCall>"
	got := terms(s, tg.Tag([]byte(msg)))
	want := []string{
		"<methodCall>", "<methodName>", "STRING", "</methodName>",
		"<params>", "<param>", "<dateTime.iso8601>",
		"YEAR", "MONTH", "DAY", "T", "HOUR", ":", "MIN", ":", "SEC",
		"</dateTime.iso8601>", "</param>", "</params>", "</methodCall>",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v,\nwant %v", got, want)
	}
}

func TestXMLRPCStructAndArray(t *testing.T) {
	s := mustSpec(t, grammar.XMLRPC(), core.Options{})
	tg := NewTagger(s)
	msg := "<methodCall><methodName>mix</methodName><params>" +
		"<param><struct>" +
		"<member><name>qty</name><int>3</int></member>" +
		"<member><name>tag</name><string>x9</string></member>" +
		"</struct></param>" +
		"<param><array><data>" +
		"<double>2.5</double>" +
		"<base64>aGk=</base64>" +
		"</data></array></param>" +
		"</params></methodCall>"
	ms := tg.Tag([]byte(msg))
	got := terms(s, ms)
	want := []string{
		"<methodCall>", "<methodName>", "STRING", "</methodName>", "<params>",
		"<param>", "<struct>",
		"<member>", "<name>", "STRING", "</name>", "<int>", "INT", "</int>", "</member>",
		"<member>", "<name>", "STRING", "</name>", "<string>", "STRING", "</string>", "</member>",
		"</struct>", "</param>",
		"<param>", "<array>", "<data>",
		"<double>", "DOUBLE", "</double>",
		"<base64>", "BASE64", "</base64>",
		"</data>", "</array>", "</param>",
		"</params>", "</methodCall>",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v,\nwant %v", got, want)
	}
}

func TestCanEndSignal(t *testing.T) {
	s := mustSpec(t, grammar.XMLRPC(), core.Options{})
	tg := NewTagger(s)
	ms := tg.Tag([]byte(sampleRPC))
	lastIn := s.Instances[ms[len(ms)-1].InstanceID]
	if !lastIn.CanEnd {
		t.Error("final match should carry CanEnd (message boundary)")
	}
	for _, m := range ms[:len(ms)-1] {
		if s.Instances[m.InstanceID].CanEnd {
			t.Errorf("intermediate match %s claims CanEnd", s.Instances[m.InstanceID].Term)
		}
	}
}

func TestIncrementalWritesMatchOneShot(t *testing.T) {
	s := mustSpec(t, grammar.XMLRPC(), core.Options{})
	one := NewTagger(s)
	all := one.Tag([]byte(sampleRPC))

	inc := NewTagger(s)
	var got []Match
	inc.OnMatch = func(m Match) { got = append(got, m) }
	// Feed in awkward chunk sizes, including 1-byte chunks.
	data := []byte(sampleRPC)
	for i := 0; i < len(data); {
		n := 1 + (i % 7)
		if i+n > len(data) {
			n = len(data) - i
		}
		if _, err := inc.Write(data[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := inc.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all) {
		t.Errorf("incremental = %v,\none-shot = %v", got, all)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	a := NewTagger(s)
	b := a.Clone()
	// Interleave writes; each stream must tag independently.
	a.Write([]byte("if "))
	b.Write([]byte("go"))
	a.Write([]byte("true then stop"))
	var am, bm []Match
	a.OnMatch = func(m Match) { am = append(am, m) }
	b.OnMatch = func(m Match) { bm = append(bm, m) }
	a.Close()
	b.Close()
	if len(am) == 0 {
		t.Error("clone corrupted the original's stream")
	}
	if len(bm) != 1 || s.Instances[bm[0].InstanceID].Term != "go" {
		t.Errorf("clone stream = %v", bm)
	}
}

func TestWriteAfterClose(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	tg.Close()
	if _, err := tg.Write([]byte("x")); err == nil {
		t.Error("Write after Close should fail")
	}
	if err := tg.Close(); err != nil {
		t.Error("double Close should be a no-op")
	}
}

func TestTagReader(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	want := tg.Tag([]byte("if true then go"))
	got, err := tg.TagReader(strings.NewReader("if true then go"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TagReader %v != Tag %v", got, want)
	}
	// Errors propagate.
	if _, err := tg.TagReader(errReader{}); err == nil {
		t.Error("reader error swallowed")
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, fmt.Errorf("boom") }

func TestResetReusesTagger(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	a := terms(s, tg.Tag([]byte("go")))
	b := terms(s, tg.Tag([]byte("stop")))
	if !reflect.DeepEqual(a, []string{"go"}) || !reflect.DeepEqual(b, []string{"stop"}) {
		t.Errorf("reuse failed: %v, %v", a, b)
	}
}

func TestEOFFlushesFinalToken(t *testing.T) {
	// A token ending exactly at EOF is confirmed by Close.
	g, err := grammar.Parse("ints", "INT [0-9]+\n%%\nS : INT ;\n")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	var got []Match
	tg.OnMatch = func(m Match) { got = append(got, m) }
	tg.Write([]byte("123"))
	if len(got) != 0 {
		t.Fatalf("match fired before Close: %v", got)
	}
	tg.Close()
	if len(got) != 1 || got[0].End != 2 {
		t.Errorf("after Close: %v", got)
	}
}

func TestConflictSimultaneousAssertions(t *testing.T) {
	g, err := grammar.Parse("amb", `
NUM  [0-9]+
WORD [a-z0-9]+
%%
S : NUM | WORD ;
`)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	ms := tg.Tag([]byte("42"))
	if len(ms) != 2 {
		t.Fatalf("matches = %v, want both NUM and WORD", terms(s, ms))
	}
	groups := GroupByEnd(ms)
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	// The encoder ORs the indices; equation 5 makes that the
	// higher-priority instance's index.
	idx := EncodeIndex(s, groups[0])
	top := s.InstanceByIndex(idx)
	if top == nil {
		t.Fatalf("OR index %d resolves to no instance", idx)
	}
	// On a pure-digit lexeme with equal pattern lengths the tie-break
	// picks a deterministic winner; it must be one of the two.
	if top.Term != "NUM" && top.Term != "WORD" {
		t.Errorf("winner = %q", top.Term)
	}
	// On "4a": NUM's longest match "4" ends at offset 0 ('a' cannot extend
	// it), then WORD completes at offset 1 — two separate cycles, exactly
	// what the parallel hardware reports.
	ms = tg.Tag([]byte("4a"))
	if len(ms) != 2 ||
		s.Instances[ms[0].InstanceID].Term != "NUM" || ms[0].End != 0 ||
		s.Instances[ms[1].InstanceID].Term != "WORD" || ms[1].End != 1 {
		t.Errorf("matches = %v at %v, want NUM@0 then WORD@1", terms(s, ms), ends(ms))
	}
}

func TestResidualCollisionDetection(t *testing.T) {
	// The static conflict analysis only sees shared-enabler groups; two
	// tokens from different groups can still assert on the same cycle:
	// with S : A | C B  (A="ab", C="a", B="b"), input "ab" fires C at
	// byte 0, then A and B — from different groups — together at byte 1.
	g, err := grammar.Parse("collide", `
%%
S : "ab" | C B ;
C : "a" ;
B : "b" ;
`)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	if len(s.ConflictSets) != 0 {
		t.Fatalf("static analysis should miss this: %v", s.ConflictSets)
	}
	tg := NewTagger(s)
	var collided [][2]int
	tg.OnCollision = func(pos int64, a, b int) { collided = append(collided, [2]int{a, b}) }
	ms := tg.Tag([]byte("ab"))
	if len(ms) != 3 { // C@0, then A and B @1
		t.Fatalf("matches = %v", terms(s, ms))
	}
	if tg.Collisions != 1 || len(collided) != 1 {
		t.Errorf("collisions = %d (%v), want 1", tg.Collisions, collided)
	}
	// Members of one static conflict set do NOT count as collisions.
	g2, err := grammar.Parse("amb", "NUM [0-9]+\nWORD [a-z0-9]+\n%%\nS : NUM | WORD ;\n")
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustSpec(t, g2, core.Options{})
	tg2 := NewTagger(s2)
	tg2.Tag([]byte("42"))
	if tg2.Collisions != 0 {
		t.Errorf("equation 5 set counted as collision: %d", tg2.Collisions)
	}
	// Reset clears the counter.
	tg.Tag([]byte("a"))
	if tg.Collisions != 0 {
		t.Errorf("collisions after reset = %d", tg.Collisions)
	}
}

func TestFreeRunningStart(t *testing.T) {
	g, err := grammar.Parse("kw", "%%\nS : \"ab\" ;\n")
	if err != nil {
		t.Fatal(err)
	}
	// Anchored: only a leading "ab" is found.
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	if n := len(tg.Tag([]byte("xx ab"))); n != 0 {
		t.Errorf("anchored found %d, want 0", n)
	}
	// Free-running: the engine looks for sentences starting anywhere.
	s = mustSpec(t, g, core.Options{FreeRunningStart: true})
	tg = NewTagger(s)
	ms := tg.Tag([]byte("xx ab yy ab"))
	if len(ms) != 2 {
		t.Errorf("free-running found %v, want 2 matches", ends(ms))
	}
}

func TestAllEnabledTagsOutOfContext(t *testing.T) {
	// The naive-matcher ablation: "then" is found even with no "if".
	s := mustSpec(t, grammar.IfThenElse(), core.Options{AllEnabled: true})
	tg := NewTagger(s)
	got := terms(s, tg.Tag([]byte("then go")))
	if !reflect.DeepEqual(got, []string{"then", "go"}) {
		t.Errorf("all-enabled tags = %v", got)
	}
}

func TestMultipleMessagesSameStream(t *testing.T) {
	// FreeRunningStart lets a long-lived stream tag back-to-back messages.
	s := mustSpec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	tg := NewTagger(s)
	msg := strings.Repeat(sampleRPC+"\n", 3)
	ms := tg.Tag([]byte(msg))
	count := 0
	for _, m := range ms {
		if s.Instances[m.InstanceID].Term == "</methodCall>" {
			count++
		}
	}
	if count != 3 {
		t.Errorf("completed messages = %d, want 3", count)
	}
}

func TestLeftRecursiveGrammar(t *testing.T) {
	// Left recursion breaks LL(1) table construction, but the stack-less
	// engine only needs occurrence-level Follow sets, which the fixpoint
	// computes fine: E : E '+' T | T tags expression chains directly.
	g, err := grammar.Parse("expr", `
NUM [0-9]+
%%
E : E '+' T | T ;
T : NUM ;
`)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	got := terms(s, tg.Tag([]byte("1 + 23 + 456")))
	want := []string{"NUM", "+", "NUM", "+", "NUM"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tags = %v, want %v", got, want)
	}
	// The true parser cannot even be built for it.
	// (Checked in internal/parser; here we just pin that tagging works.)
}

func TestLongTokenCrossesWordBoundaries(t *testing.T) {
	// A single literal longer than 64 positions forces the shift-with-
	// carry path across multiple bitset words inside one instance.
	long := strings.Repeat("ab", 80) // 160 positions
	g, err := grammar.Parse("long", "%%\nS : \""+long+"\" ;\n")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	ms := tg.Tag([]byte(long))
	if len(ms) != 1 || ms[0].End != int64(len(long)-1) {
		t.Fatalf("long literal matches = %v", ms)
	}
	// Near misses must not fire.
	if n := len(tg.Tag([]byte(long[:len(long)-1]))); n != 0 {
		t.Errorf("truncated long literal matched %d times", n)
	}
	almost := []byte(long)
	almost[100] = 'x'
	if n := len(tg.Tag(almost)); n != 0 {
		t.Errorf("corrupted long literal matched %d times", n)
	}
}

func TestLongClassRunCrossesWords(t *testing.T) {
	// A 100-position fixed-length digit token spans two words; every
	// position is a distinct bit advanced by the carry chain.
	pat := strings.Repeat("[0-9]", 100)
	g, err := grammar.Parse("digits", "D "+pat+"\n%%\nS : D ;\n")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	input := strings.Repeat("7", 100)
	ms := tg.Tag([]byte(input))
	if len(ms) != 1 || ms[0].End != 99 {
		t.Fatalf("matches = %v", ms)
	}
	if n := len(tg.Tag([]byte(input[:99]))); n != 0 {
		t.Errorf("99 digits matched %d times, want 0", n)
	}
}

func TestHighBytes(t *testing.T) {
	// Raw bytes above 0x7f (e.g. UTF-8 continuation bytes) are ordinary
	// decoder inputs.
	g, err := grammar.Parse("hi", "HB [\x80-\xff]+\n%%\nS : \"k\" HB ;\n")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSpec(t, g, core.Options{})
	tg := NewTagger(s)
	input := []byte{'k', 0x80, 0xc3, 0xff}
	ms := tg.Tag(input)
	if len(ms) != 2 || ms[1].End != 3 {
		t.Fatalf("matches = %v", ms)
	}
}

func TestEngineString(t *testing.T) {
	s := mustSpec(t, grammar.IfThenElse(), core.Options{})
	tg := NewTagger(s)
	if !strings.Contains(tg.e.String(), "7 instances") {
		t.Errorf("engine String = %q", tg.e.String())
	}
}
