package validate

import (
	"strings"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/parser"
	"cfgtag/internal/stream"
	"cfgtag/internal/workload"
	"cfgtag/internal/xmlrpc"
)

func spec(t *testing.T, g *grammar.Grammar, opts core.Options) *core.Spec {
	t.Helper()
	s, err := core.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkedTagger wires the serial reference tagger into a Validator, the
// way every in-process caller feeds one: each match reaches the stack
// machine, then OnMatch.
type checkedTagger struct {
	Tagger    *stream.Tagger
	Validator *Validator
	OnMatch   func(stream.Match)
}

func newChecked(spec *core.Spec, maxDepth int) (*checkedTagger, error) {
	val, err := New(spec, maxDepth)
	if err != nil {
		return nil, err
	}
	ct := &checkedTagger{Tagger: stream.NewTagger(spec), Validator: val}
	ct.Tagger.OnMatch = func(m stream.Match) {
		ct.Validator.Consume(m)
		if ct.OnMatch != nil {
			ct.OnMatch(m)
		}
	}
	return ct, nil
}

func (c *checkedTagger) Write(p []byte) (int, error) { return c.Tagger.Write(p) }

func (c *checkedTagger) Close() error {
	c.Tagger.Close()
	return c.Validator.Close()
}

func checked(t *testing.T, g *grammar.Grammar, opts core.Options) *checkedTagger {
	t.Helper()
	ct, err := newChecked(spec(t, g, opts), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func runChecked(t *testing.T, ct *checkedTagger, input string) (violations int64, closeErr error) {
	t.Helper()
	ct.Tagger.Reset()
	ct.Validator.Reset()
	if _, err := ct.Write([]byte(input)); err != nil {
		t.Fatal(err)
	}
	closeErr = ct.Close()
	return ct.Validator.Violations(), closeErr
}

// TestBalancedParensExactPower is the headline section 5.2 claim: the
// stack-less engine accepts a superset ("(0))" tags fine), while the
// stack-extended pipeline recognizes exactly the language.
func TestBalancedParensExactPower(t *testing.T) {
	ct := checked(t, grammar.BalancedParens(), core.Options{})
	good := []string{"0", "( 0 )", "( ( ( 0 ) ) )", "((0))"}
	for _, in := range good {
		if v, err := runChecked(t, ct, in); v != 0 || err != nil {
			t.Errorf("%q: violations=%d err=%v", in, v, err)
		}
	}
	bad := map[string]bool{ // input → expect violation at Close only
		"( 0":     true,  // truncated: surfaces at Close
		"( 0 ) )": false, // extra ')': surfaces at the token
		"( ( 0 )": true,
	}
	for in, atClose := range bad {
		v, err := runChecked(t, ct, in)
		if v == 0 {
			t.Errorf("%q: no violation", in)
		}
		if atClose && err == nil {
			t.Errorf("%q: Close should report the truncation", in)
		}
	}
	// "0 )" — the stray ')' is a violation even though the tagger tags it.
	if v, _ := runChecked(t, ct, "0 )"); v == 0 {
		t.Error(`"0 )": stray close paren not caught`)
	}
}

func TestXMLNestingViolations(t *testing.T) {
	ct := checked(t, grammar.XMLRPC(), core.Options{})
	// The recursion-collapse hole (section 3.1): nested structs share one
	// </struct> tokenizer instance, so the stack-less engine happily tags
	// a message that closes the inner struct and jumps straight to
	// </param>, skipping the outer </member> and </struct>. Only the stack
	// extension catches it.
	bad := "<methodCall> <methodName>m</methodName> <params> <param> " +
		"<struct> <member> <name>a</name> " +
		"<struct> <member> <name>b</name> <i4>1</i4> </member> </struct> " +
		"</param> </params> </methodCall>" // missing </member> </struct>
	// First confirm the tagger itself raises no alarm: the full token
	// stream is tagged (superset acceptance).
	plain := stream.NewTagger(spec(t, grammar.XMLRPC(), core.Options{}))
	ms := plain.Tag([]byte(bad))
	if got := plain.Spec().Instances[ms[len(ms)-1].InstanceID].Term; got != "</methodCall>" {
		t.Fatalf("tagger did not reach message end (last=%q); test premise broken", got)
	}
	var viols []string
	ct.Validator.OnViolation = func(v *Violation) { viols = append(viols, v.Error()) }
	if v, _ := runChecked(t, ct, bad); v == 0 {
		t.Fatal("mis-nesting not caught by the stack extension")
	}
	if len(viols) == 0 || !strings.Contains(viols[0], "</param>") {
		t.Errorf("violations: %v", viols)
	}
	// A clean nested message has none.
	good := "<methodCall> <methodName>m</methodName> <params> <param> " +
		"<struct> <member> <name>a</name> " +
		"<struct> <member> <name>b</name> <i4>1</i4> </member> </struct> " +
		"</member> </struct> </param> </params> </methodCall>"
	if v, err := runChecked(t, ct, good); v != 0 || err != nil {
		t.Errorf("clean message: violations=%d err=%v", v, err)
	}
}

func TestMultiSentenceStream(t *testing.T) {
	s := spec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	ct, err := newChecked(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := xmlrpc.NewGenerator(3, xmlrpc.Options{})
	corpus, _ := gen.Corpus(10)
	if v, err := runChecked(t, ct, corpus); v != 0 || err != nil {
		t.Errorf("10 messages: violations=%d err=%v", v, err)
	}
}

func TestInstanceContextAgreement(t *testing.T) {
	// On random conforming sentences the validator must agree with every
	// instance's (rule, pos) — a strong cross-check between the wiring
	// construction and the LL(1) machine.
	for _, g := range []*grammar.Grammar{grammar.IfThenElse(), grammar.XMLRPC()} {
		s := spec(t, g, core.Options{})
		ct, err := newChecked(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(s, 17, workload.SentenceOptions{})
		for trial := 0; trial < 100; trial++ {
			text, _ := gen.Sentence()
			if v, err := runChecked(t, ct, string(text)); v != 0 || err != nil {
				t.Fatalf("%s trial %d: violations=%d err=%v\ninput %q", g.Name, trial, v, err, text)
			}
		}
	}
}

func TestStackOverflow(t *testing.T) {
	s := spec(t, grammar.BalancedParens(), core.Options{})
	ct, err := newChecked(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	deep := strings.Repeat("( ", 50) + "0" + strings.Repeat(" )", 50)
	var sawOverflow bool
	ct.Validator.OnViolation = func(v *Violation) {
		if v.Err == parser.ErrStackOverflow {
			sawOverflow = true
		}
	}
	if v, _ := runChecked(t, ct, deep); v == 0 || !sawOverflow {
		t.Errorf("violations=%d overflow=%v; bounded stack should overflow", v, sawOverflow)
	}
	// A generous bound accepts the same input.
	ct2, err := newChecked(s, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := runChecked(t, ct2, deep); v != 0 || err != nil {
		t.Errorf("deep nesting with big stack: violations=%d err=%v", v, err)
	}
}

func TestStackDepthTracksNesting(t *testing.T) {
	s := spec(t, grammar.BalancedParens(), core.Options{})
	shallow, _ := newChecked(s, 0)
	deep, _ := newChecked(s, 0)
	runChecked(t, shallow, "0")
	runChecked(t, deep, "( ( ( ( 0 ) ) ) )")
	if deep.Validator.StackDepth() <= shallow.Validator.StackDepth() {
		t.Errorf("depth: deep=%d shallow=%d", deep.Validator.StackDepth(), shallow.Validator.StackDepth())
	}
}

func TestViolationRecoveryWithinStream(t *testing.T) {
	// After a violation the validator re-arms at the next Start instance:
	// message 2 is validated even though message 1 was malformed.
	s := spec(t, grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	ct, err := newChecked(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := "<methodCall> <methodName>a</methodName> <params> </params> </params> </methodCall>"
	good := "<methodCall> <methodName>b</methodName> <params> </params> </methodCall>"
	v, closeErr := runChecked(t, ct, bad+"\n"+good)
	if v != 1 {
		t.Errorf("violations = %d, want exactly 1 (second message clean)", v)
	}
	if closeErr != nil {
		t.Errorf("close: %v", closeErr)
	}
}

func TestNonLL1Rejected(t *testing.T) {
	g, err := grammar.Parse("nonll1", "%%\nS : \"a\" \"b\" | \"a\" \"c\" ;\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(spec(t, g, core.Options{}), 0); err == nil {
		t.Error("non-LL(1) grammar accepted by validator")
	}
}

func TestEmptyStreamIsClean(t *testing.T) {
	ct := checked(t, grammar.IfThenElse(), core.Options{})
	if v, err := runChecked(t, ct, "   "); v != 0 || err != nil {
		t.Errorf("empty stream: violations=%d err=%v", v, err)
	}
}

func TestMatchesStillFlow(t *testing.T) {
	ct := checked(t, grammar.IfThenElse(), core.Options{})
	var n int
	ct.OnMatch = func(stream.Match) { n++ }
	runChecked(t, ct, "if true then go else stop")
	if n != 6 {
		t.Errorf("matches delivered = %d, want 6", n)
	}
}
