package runtime

import (
	"cfgtag/internal/hwgen"
	"cfgtag/internal/stream"
)

// gateEngine gives the cycle-accurate simulation of the generated netlist
// the surface of the software engines. It is the fidelity-over-speed end
// of the spectrum: ~100× slower than the bit-parallel engine but
// bit-for-bit the hardware.
//
// The netlist's recovery and collision behavior is folded into its detect
// outputs rather than surfaced as events, so onError and onCollision are
// never called and errors and collisions read zero; differential tests
// compare match sets, where the same events are visible.
type gateEngine struct {
	r                  *hwgen.Runner
	onMatch            func(stream.Match)
	onError            func(int64)
	onCollision        func(int64, int, int)
	errors, collisions int64
	closed             bool
}

func (g *gateEngine) Reset() {
	g.r.Begin()
	g.closed = false
}

func (g *gateEngine) Write(p []byte) (int, error) {
	if g.closed {
		return 0, errClosed
	}
	g.r.Feed(p, g.onMatch)
	return len(p), nil
}

func (g *gateEngine) Close() error {
	if !g.closed {
		g.closed = true
		g.r.Finish(g.onMatch)
	}
	return nil
}
