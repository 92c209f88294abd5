// Package validate couples the stack-less tagging engine with the
// section 5.2 stack extension: a Validator consumes the tagger's match
// stream and runs the bounded LL(1) stack machine over it, turning the
// engine's superset acceptance back into exact recognition. Recursion
// violations the parallel hardware cannot see — unbalanced parentheses,
// mis-nested XML elements, truncated messages — surface as errors with the
// offending offset, while the tag stream itself flows through untouched.
package validate

import (
	"fmt"

	"cfgtag/internal/core"
	"cfgtag/internal/parser"
	"cfgtag/internal/stream"
)

// Violation describes a recursion/nesting error found in the tag stream.
type Violation struct {
	// End is the offset of the last byte of the offending token.
	End int64
	// Term is the offending terminal ("" for an unexpected end of input).
	Term string
	// Err is the underlying parser error.
	Err error
}

func (v *Violation) Error() string {
	if v.Term == "" {
		return fmt.Sprintf("validate: at end of input: %v", v.Err)
	}
	return fmt.Sprintf("validate: token %q ending at %d: %v", v.Term, v.End, v.Err)
}

// Validator checks a tagger's match stream against the full grammar using
// the bounded-stack acceptor.
type Validator struct {
	spec     *core.Spec
	acceptor *parser.Acceptor
	// OnViolation receives each violation; if nil, violations only count.
	// After a violation the acceptor restarts at the next sentence
	// boundary candidate (the next Start-capable instance).
	OnViolation func(*Violation)

	violations int64
	dead       bool // awaiting a restart opportunity after a violation
	fresh      bool // no tokens consumed since the last (re)start
	maxDepth   int  // high-water across sentence restarts
}

// New builds a validator for the spec; the grammar must be LL(1). maxDepth
// bounds the modeled hardware stack (0 = 4096).
func New(spec *core.Spec, maxDepth int) (*Validator, error) {
	tbl, err := parser.BuildTable(spec)
	if err != nil {
		return nil, err
	}
	return &Validator{spec: spec, acceptor: tbl.NewAcceptor(maxDepth), fresh: true}, nil
}

// Violations returns the number of violations seen since the last Reset.
func (v *Validator) Violations() int64 { return v.violations }

// StackDepth returns the stack high-water mark across the whole stream —
// the capacity a hardware stack would have needed.
func (v *Validator) StackDepth() int {
	if d := v.acceptor.Depth(); d > v.maxDepth {
		return d
	}
	return v.maxDepth
}

// Reset rewinds the acceptor to the start symbol.
func (v *Validator) Reset() {
	v.acceptor.Reset()
	v.violations = 0
	v.dead = false
	v.fresh = true
	v.maxDepth = 0
}

// Consume checks one match. Sentence boundaries are detected lazily: when
// a token cannot continue the current parse but the parse sits at a point
// where the sentence may end, the sentence is closed and the token starts
// the next one (greedy early closing would mis-split sentences that are
// proper prefixes of longer sentences). On a genuine violation it reports
// and re-arms at the next token that can start a sentence.
func (v *Validator) Consume(m stream.Match) {
	in := v.spec.Instances[m.InstanceID]
	if v.dead {
		if !in.Start {
			return
		}
		v.acceptor.Reset()
		v.dead = false
		v.fresh = true
	}
	atBoundary := v.acceptor.Complete()
	rule, pos, err := v.acceptor.Offer(in.Term)
	if err != nil && atBoundary {
		// The previous sentence ended here; restart on this token.
		if d := v.acceptor.Depth(); d > v.maxDepth {
			v.maxDepth = d
		}
		v.acceptor.Reset()
		rule, pos, err = v.acceptor.Offer(in.Term)
	}
	if err != nil {
		v.report(&Violation{End: m.End, Term: in.Term, Err: err})
		return
	}
	v.fresh = false
	// With context duplication the instance already names its production
	// position; the stack machine must agree (a disagreement would be an
	// engine bug, surfaced loudly).
	if in.Rule >= 0 && (rule != in.Rule || pos != in.Pos) {
		v.report(&Violation{End: m.End, Term: in.Term,
			Err: fmt.Errorf("instance context %d[%d] but parse used %d[%d]", in.Rule, in.Pos, rule, pos)})
		return
	}
}

// Close verifies the stream did not end mid-sentence: the current parse
// must sit at a valid sentence end (or nothing must have been consumed).
func (v *Validator) Close() error {
	if v.dead || v.fresh {
		return nil // any violation was already reported
	}
	if d := v.acceptor.Depth(); d > v.maxDepth {
		v.maxDepth = d
	}
	if err := v.acceptor.Finish(); err != nil {
		viol := &Violation{Err: err}
		v.report(viol)
		return viol
	}
	return nil
}

func (v *Validator) report(viol *Violation) {
	v.violations++
	v.dead = true
	if v.OnViolation != nil {
		v.OnViolation(viol)
	}
}
