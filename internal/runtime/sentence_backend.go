package runtime

import (
	"cmp"
	"slices"

	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// sentenceBackend adapts the two exact recognizers — the LL(1)
// predictive-parser baseline and the general-CFG Earley oracle — to the
// Backend contract. Unlike the FSA kinds they recognize the grammar
// exactly, one stream being one sentence: the stream is buffered and
// recognized at Close, non-conforming input is the Close error, and
// matches are appended only by a successful Close. They are reference
// implementations — conformance, the precision rail, single-stream use —
// and carry no resource bounds of their own.
type sentenceBackend struct {
	// recognize appends the matches of buf's derivations to out, or
	// reports the reject. It is the one thing the two kinds differ in; both
	// recognizers are immutable and shared by every backend of the factory.
	recognize func(buf []byte, out []stream.Match) ([]stream.Match, error)
	buf       []byte
	matches   int64
	closed    bool
}

// tagged is one terminal occurrence of a derivation as both recognizers
// report it (parser.Tagged, earley.Tag): the production coordinates
// core.Spec.InstanceAt resolves, the token index and the lexeme's span.
type tagged struct{ Rule, Pos, TokenIndex, Start, End int }

// newSentence returns the Factory of one exact recognizer, given as its
// whole-buffer function.
func newSentence[T ~struct{ Rule, Pos, TokenIndex, Start, End int }](spec *core.Spec, tags func([]byte) ([]T, error)) Factory {
	recognize := func(buf []byte, out []stream.Match) ([]stream.Match, error) {
		ts, err := tags(buf)
		for _, t := range ts {
			t := tagged(t)
			in := spec.InstanceAt(t.Rule, t.Pos)
			if in == nil {
				// Cannot happen for a recognizer built from this spec; fail loud.
				panic("runtime: recognizer tag with no spec instance")
			}
			out = append(out, stream.Match{InstanceID: in.ID, End: int64(t.End)})
		}
		return out, err
	}
	return func() (Backend, error) {
		return &sentenceBackend{recognize: recognize}, nil
	}
}

func (b *sentenceBackend) Reset() {
	b.buf = b.buf[:0]
	b.matches = 0
	b.closed = false
}

func (b *sentenceBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if b.closed {
		return out, errClosed
	}
	b.buf = append(b.buf, p...)
	return out, nil
}

func (b *sentenceBackend) Close(out []stream.Match) ([]stream.Match, error) {
	if b.closed {
		return out, nil
	}
	b.closed = true
	start := len(out)
	out, err := b.recognize(b.buf, out)
	if err != nil {
		return out[:start], err
	}
	// Distinct derivation tags can project onto one (instance, end) pair —
	// ambiguous parses sharing a lexeme, or NoContextDuplication folding
	// occurrences — so order and deduplicate at the match level, within
	// the stretch of out this stream appended. The parser's single
	// derivation arrives ordered and distinct already.
	slices.SortFunc(out[start:], compareMatches)
	out = out[:start+len(slices.Compact(out[start:]))]
	b.matches += int64(len(out) - start)
	return out, nil
}

// compareMatches orders matches by (End, InstanceID).
func compareMatches(a, c stream.Match) int {
	return cmp.Or(cmp.Compare(a.End, c.End), cmp.Compare(a.InstanceID, c.InstanceID))
}

func (b *sentenceBackend) Counters() Counters {
	return Counters{Bytes: int64(len(b.buf)), Matches: b.matches}
}
