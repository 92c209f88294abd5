package runtime

import (
	"errors"
	"fmt"
	"sort"

	"cfgtag/internal/core"
	"cfgtag/internal/earley"
	"cfgtag/internal/stream"
)

// earleyBackend adapts the general-CFG Earley oracle. Like the parser path
// it recognizes the grammar exactly — one stream must be one sentence — so
// it buffers the stream and recognizes at Close, reporting non-conforming
// input as the Close error. Unlike the parser path it handles every
// grammar class (left/right recursion, ambiguity, ambiguous lexicons) and
// on ambiguous input reports the union of tags over all derivations.
// Matches are appended only by a successful Close.
type earleyBackend struct {
	spec    *core.Spec
	rec     *earley.Recognizer
	shard   int
	hooks   *Hooks
	lim     Limits
	buf     []byte
	charged int64
	matches int64
	closed  bool
}

// EarleyFactory returns a Factory producing exact-language recognizers.
// The recognizer is compiled once and shared (it is immutable and safe for
// concurrent use); each Backend carries only its input buffer. It fails
// for spec options with no exact-language counterpart (FreeRunningStart,
// AllEnabled, recovery modes).
func EarleyFactory(spec *core.Spec) (Factory, error) {
	return EarleyFactoryLimits(spec, Limits{})
}

// EarleyFactoryLimits is EarleyFactory with per-stream resource bounds:
// MaxBufferBytes caps the whole-sentence buffer, MaxChartItems and
// MaxWorkPerByte bound the Close-time recognition's chart and worklist
// (see earley.Config), and Limits.Mem is charged with the buffer capacity
// and the live chart estimate. Every trip surfaces as an error wrapping
// ErrResourceExhausted, ending only the offending stream.
func EarleyFactoryLimits(spec *core.Spec, lim Limits) (Factory, error) {
	rec, err := earley.NewWithConfig(spec, earley.Config{
		MaxChartItems:  lim.MaxChartItems,
		MaxWorkPerByte: lim.MaxWorkPerByte,
		MemDelta:       lim.Mem.Delta(),
	})
	if err != nil {
		return nil, err
	}
	return func(shard int, h *Hooks) (Backend, error) {
		return &earleyBackend{spec: spec, rec: rec, shard: shard, hooks: h, lim: lim}, nil
	}, nil
}

func (b *earleyBackend) Reset() {
	b.buf = b.buf[:0]
	b.matches = 0
	b.closed = false
}

func (b *earleyBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if b.closed {
		return out, errClosed
	}
	if err := b.lim.checkBuffer(len(b.buf), len(p)); err != nil {
		return out, err
	}
	b.buf = append(b.buf, p...)
	b.chargeBuf()
	b.hooks.bytes(b.shard, len(p))
	return out, nil
}

// chargeBuf settles the memory gauge with the buffer's current capacity.
func (b *earleyBackend) chargeBuf() {
	if b.lim.Mem != nil {
		if c := int64(cap(b.buf)); c != b.charged {
			b.lim.Mem.Add(c - b.charged)
			b.charged = c
		}
	}
}

// releaseMem discharges the buffer charge when the stream retires.
func (b *earleyBackend) releaseMem() {
	if b.charged != 0 {
		b.lim.Mem.Add(-b.charged)
		b.charged = 0
	}
}

func (b *earleyBackend) Close(out []stream.Match) ([]stream.Match, error) {
	if b.closed {
		return out, nil
	}
	b.closed = true
	tags, err := b.rec.Tags(b.buf)
	if err != nil {
		if errors.Is(err, earley.ErrBudget) {
			// The chart outgrew its per-stream budget: surface the
			// pipeline's typed verdict so the stream is quarantined and
			// counted, keeping earley's sentinel as detail.
			return out, fmt.Errorf("%w: %v", ErrResourceExhausted, err)
		}
		return out, err
	}
	start := len(out)
	for _, tag := range tags {
		in := b.spec.InstanceAt(tag.Rule, tag.Pos)
		if in == nil {
			// Cannot happen for a recognizer built from this spec.
			panic("runtime: earley tag with no spec instance")
		}
		out = append(out, stream.Match{InstanceID: in.ID, End: int64(tag.End)})
	}
	// Distinct derivation tags can project onto one (instance, end) pair —
	// ambiguous parses sharing a lexeme, or NoContextDuplication folding
	// occurrences — so order and deduplicate at the match level, within
	// the stretch of out this stream appended.
	mine := out[start:]
	sort.Slice(mine, func(i, j int) bool {
		a, c := mine[i], mine[j]
		if a.End != c.End {
			return a.End < c.End
		}
		return a.InstanceID < c.InstanceID
	})
	dedup := mine[:0]
	for _, m := range mine {
		if n := len(dedup); n > 0 && m == dedup[n-1] {
			continue
		}
		dedup = append(dedup, m)
	}
	b.matches += int64(len(dedup))
	b.hooks.matches(b.shard, len(dedup))
	return out[:start+len(dedup)], nil
}

func (b *earleyBackend) Counters() Counters {
	return Counters{Bytes: int64(len(b.buf)), Matches: b.matches}
}
