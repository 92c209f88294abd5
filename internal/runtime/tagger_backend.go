package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// taggerBackend adapts the bit-parallel stream.Tagger — the software
// stand-in for the 1-byte-per-cycle hardware — to the Backend contract.
type taggerBackend struct {
	tg      *stream.Tagger
	shard   int
	hooks   *Hooks
	lim     Limits
	out     []stream.Match // the caller's buffer, held only during a call
	bytes   int64
	matches int64
}

// TaggerFactory returns a Factory producing bit-parallel stream engines.
// The spec is compiled once; every Backend shares the read-only masks, so
// per-stream instantiation is cheap (state vectors only).
func TaggerFactory(spec *core.Spec) Factory {
	return TaggerFactoryLimits(spec, Limits{})
}

// TaggerFactoryLimits is TaggerFactory with per-stream resource bounds:
// MaxPendingMatches ends a stream when one Feed confirms more matches
// than the bound (a match bomb) with an error wrapping
// ErrResourceExhausted.
func TaggerFactoryLimits(spec *core.Spec, lim Limits) Factory {
	proto := stream.NewTagger(spec) // compile masks once
	return func(shard int, h *Hooks) (Backend, error) {
		// Clone, never hand out proto: factories run concurrently on
		// shard goroutines and clones share only read-only masks.
		tg := proto.Clone()
		b := &taggerBackend{tg: tg, shard: shard, hooks: h, lim: lim}
		tg.OnMatch = func(m stream.Match) {
			b.out = append(b.out, m)
			b.matches++
		}
		tg.OnError = func(pos int64) { b.hooks.recovery(b.shard, pos) }
		tg.OnCollision = func(pos int64, x, y int) { b.hooks.collision(b.shard, pos, x, y) }
		return b, nil
	}
}

func (b *taggerBackend) Reset() {
	b.tg.Reset()
	b.bytes = 0
	b.matches = 0
}

func (b *taggerBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	n, err := b.tg.Write(p)
	out, b.out = b.out, nil
	b.bytes += int64(n)
	b.hooks.bytes(b.shard, n)
	b.hooks.matches(b.shard, int(b.matches-before))
	if err == nil {
		err = b.lim.checkPending(int(b.matches - before))
	}
	return out, err
}

func (b *taggerBackend) Close(out []stream.Match) ([]stream.Match, error) {
	before := b.matches
	b.out = out
	err := b.tg.Close()
	out, b.out = b.out, nil
	b.hooks.matches(b.shard, int(b.matches-before))
	return out, err
}

func (b *taggerBackend) Counters() Counters {
	return Counters{
		Bytes:      b.bytes,
		Matches:    b.matches,
		Recoveries: b.tg.Errors,
		Collisions: b.tg.Collisions,
	}
}
