package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/parser"
	"cfgtag/internal/stream"
)

// parserBackend adapts the LL(1) predictive-parser baseline. Unlike the
// two tagging paths it recognizes the grammar exactly — one stream must be
// one sentence — so it buffers the stream and parses at Close, reporting
// non-conforming input as the Close error. Matches are appended only by a
// successful Close (the parser tags nothing on reject).
type parserBackend struct {
	spec    *core.Spec
	table   *parser.Table
	shard   int
	hooks   *Hooks
	lim     Limits
	buf     []byte
	charged int64
	matches int64
	closed  bool
}

// ParserFactory returns a Factory producing LL(1) acceptors. The parse
// table is built once (failing here if the grammar is not LL(1)); each
// Backend carries only its input buffer.
func ParserFactory(spec *core.Spec) (Factory, error) {
	return ParserFactoryLimits(spec, Limits{})
}

// ParserFactoryLimits is ParserFactory with per-stream resource bounds:
// MaxBufferBytes caps the whole-sentence buffer (the Feed that would
// exceed it fails with an error wrapping ErrResourceExhausted, accepting
// none of its bytes), and Limits.Mem is charged with the buffer's
// capacity while the stream is live.
func ParserFactoryLimits(spec *core.Spec, lim Limits) (Factory, error) {
	table, err := parser.BuildTable(spec)
	if err != nil {
		return nil, err
	}
	return func(shard int, h *Hooks) (Backend, error) {
		return &parserBackend{spec: spec, table: table, shard: shard, hooks: h, lim: lim}, nil
	}, nil
}

func (b *parserBackend) Reset() {
	b.buf = b.buf[:0]
	b.matches = 0
	b.closed = false
}

func (b *parserBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
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
func (b *parserBackend) chargeBuf() {
	if b.lim.Mem != nil {
		if c := int64(cap(b.buf)); c != b.charged {
			b.lim.Mem.Add(c - b.charged)
			b.charged = c
		}
	}
}

// releaseMem discharges the buffer charge when the stream retires.
func (b *parserBackend) releaseMem() {
	if b.charged != 0 {
		b.lim.Mem.Add(-b.charged)
		b.charged = 0
	}
}

func (b *parserBackend) Close(out []stream.Match) ([]stream.Match, error) {
	if b.closed {
		return out, nil
	}
	b.closed = true
	tags, err := b.table.Parse(b.buf)
	if err != nil {
		return out, err
	}
	for _, tag := range tags {
		in := b.spec.InstanceAt(tag.Rule, tag.Pos)
		if in == nil {
			// Cannot happen for a table built from this spec; fail loud.
			panic("runtime: parser tag with no spec instance")
		}
		out = append(out, stream.Match{InstanceID: in.ID, End: int64(tag.End)})
	}
	b.matches += int64(len(tags))
	b.hooks.matches(b.shard, len(tags))
	return out, nil
}

func (b *parserBackend) Counters() Counters {
	return Counters{Bytes: int64(len(b.buf)), Matches: b.matches}
}
