package runtime

import (
	"fmt"
	"sync/atomic"
)

// MemGauge aggregates an estimated live-memory byte count across the
// pieces that charge it: checked-out dispatch units (arena and tag
// buffer) and what a factory shares between its streams (the transition
// table). It is an estimate for admission control (Quota.MemBudgetBytes),
// not an allocator accounting. All methods are safe for concurrent use and
// nil-safe, so it threads through configs without guards.
type MemGauge struct{ v atomic.Int64 }

// Add charges (positive) or discharges (negative) delta bytes.
func (g *MemGauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load reports the current estimate (0 on a nil gauge).
func (g *MemGauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Limits bounds each stream's backend resource consumption; the zero
// value is unlimited. A tripped bound ends the stream with an error
// wrapping ErrResourceExhausted — an EOS batch and a quarantined key, via
// the same machinery as a backend panic.
type Limits struct {
	// MaxPendingMatches caps the matches one Feed may confirm (0 =
	// unlimited). The pipeline takes every call's matches with it —
	// nothing is left pending between calls — so the bound is per chunk,
	// and only a match bomb — adversarial input tagging far faster than it
	// can be delivered — trips it.
	MaxPendingMatches int
	// Mem, when set, is charged with the state a factory shares between
	// its streams — normally the pipeline's Config.Mem gauge, so tenant
	// memory budgets see the transition table, not just arenas.
	// NewFactory's release discharges it.
	Mem *MemGauge
}

// checkPending converts a Feed's match count past MaxPendingMatches into
// the typed budget error; nil while within bounds (or unbounded).
func (l Limits) checkPending(n int) error {
	if max := l.MaxPendingMatches; max > 0 && n > max {
		return fmt.Errorf("%w: %d matches in one Feed over MaxPendingMatches %d", ErrResourceExhausted, n, max)
	}
	return nil
}
