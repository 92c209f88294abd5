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
// Matches become available only after a successful Close.
type earleyBackend struct {
	spec    *core.Spec
	rec     *earley.Recognizer
	shard   int
	hooks   *Hooks
	lim     Limits
	buf     []byte
	charged int64
	pending []stream.Match
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
	b.pending = b.pending[:0]
	b.matches = 0
	b.closed = false
}

func (b *earleyBackend) Feed(p []byte) error {
	if b.closed {
		return errClosed
	}
	if err := b.lim.checkBuffer(len(b.buf), len(p)); err != nil {
		return err
	}
	b.buf = append(b.buf, p...)
	b.chargeBuf()
	b.hooks.bytes(b.shard, len(p))
	return nil
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

func (b *earleyBackend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	tags, err := b.rec.Tags(b.buf)
	if err != nil {
		if errors.Is(err, earley.ErrBudget) {
			// The chart outgrew its per-stream budget: surface the
			// pipeline's typed verdict so the stream is quarantined and
			// counted, keeping earley's sentinel as detail.
			return fmt.Errorf("%w: %v", ErrResourceExhausted, err)
		}
		return err
	}
	for _, tag := range tags {
		in := b.spec.InstanceAt(tag.Rule, tag.Pos)
		if in == nil {
			// Cannot happen for a recognizer built from this spec.
			panic("runtime: earley tag with no spec instance")
		}
		b.pending = append(b.pending, stream.Match{InstanceID: in.ID, End: int64(tag.End)})
	}
	// Distinct derivation tags can project onto one (instance, end) pair —
	// ambiguous parses sharing a lexeme, or NoContextDuplication folding
	// occurrences — so order and deduplicate at the match level.
	sort.Slice(b.pending, func(i, j int) bool {
		a, c := b.pending[i], b.pending[j]
		if a.End != c.End {
			return a.End < c.End
		}
		return a.InstanceID < c.InstanceID
	})
	dedup := b.pending[:0]
	for _, m := range b.pending {
		if n := len(dedup); n > 0 && m == dedup[n-1] {
			continue
		}
		dedup = append(dedup, m)
	}
	b.pending = dedup
	b.matches += int64(len(dedup))
	b.hooks.matches(b.shard, len(dedup))
	return nil
}

func (b *earleyBackend) Matches() []stream.Match {
	out := b.pending
	b.pending = nil
	return out
}

func (b *earleyBackend) Counters() Counters {
	return Counters{Bytes: int64(len(b.buf)), Matches: b.matches}
}
