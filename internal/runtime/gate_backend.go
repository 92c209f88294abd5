package runtime

import (
	"cfgtag/internal/core"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/stream"
)

// gateBackend adapts the cycle-accurate gate-level simulation of the
// generated netlist. It is the fidelity-over-speed end of the spectrum:
// ~100× slower than the bit-parallel engine but bit-for-bit the hardware.
//
// The netlist's recovery and collision behavior is folded into its detect
// outputs rather than surfaced as counters, so Recoveries and Collisions
// read zero here; differential tests compare match sets, where the same
// events are visible.
type gateBackend struct {
	r       *hwgen.Runner
	shard   int
	hooks   *Hooks
	out     []stream.Match // the caller's buffer, held only during a call
	bytes   int64
	matches int64
	closed  bool
}

// GateFactory returns a Factory producing gate-level simulations of the
// spec's generated design. The netlist is generated once and shared
// read-only; each Backend instantiates its own simulator state.
func GateFactory(spec *core.Spec) (Factory, error) {
	d, err := hwgen.Generate(spec, hwgen.Options{})
	if err != nil {
		return nil, err
	}
	return func(shard int, h *Hooks) (Backend, error) {
		r, err := hwgen.NewRunner(d)
		if err != nil {
			return nil, err
		}
		b := &gateBackend{r: r, shard: shard, hooks: h}
		b.Reset()
		return b, nil
	}, nil
}

func (b *gateBackend) Reset() {
	b.r.Begin()
	b.bytes = 0
	b.matches = 0
	b.closed = false
}

func (b *gateBackend) emit(m stream.Match) {
	b.out = append(b.out, m)
	b.matches++
}

func (b *gateBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if b.closed {
		return out, errClosed
	}
	before := b.matches
	b.out = out
	b.r.Feed(p, b.emit)
	out, b.out = b.out, nil
	b.bytes += int64(len(p))
	b.hooks.bytes(b.shard, len(p))
	b.hooks.matches(b.shard, int(b.matches-before))
	return out, nil
}

func (b *gateBackend) Close(out []stream.Match) ([]stream.Match, error) {
	if b.closed {
		return out, nil
	}
	b.closed = true
	before := b.matches
	b.out = out
	b.r.Finish(b.emit)
	out, b.out = b.out, nil
	b.hooks.matches(b.shard, int(b.matches-before))
	return out, nil
}

func (b *gateBackend) Counters() Counters {
	return Counters{Bytes: b.bytes, Matches: b.matches}
}
