package runtime

import (
	"fmt"
	"sync/atomic"
)

// MemGauge aggregates an estimated live-memory byte count across the
// pieces that charge it: checked-out dispatch units (arena and tag
// buffer), per-stream backend buffers, DFA cache states and Earley charts. It is an estimate for
// admission control (Quota.MemBudgetBytes), not an allocator accounting.
// All methods are safe for concurrent use and nil-safe, so it threads
// through configs without guards.
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

// Delta returns Add as a plain callback for packages that cannot import
// runtime (stream, earley); nil on a nil gauge so zero-cost when unused.
func (g *MemGauge) Delta() func(int64) {
	if g == nil {
		return nil
	}
	return g.Add
}

// Limits bounds each stream's backend resource consumption; the zero
// value is unlimited (the behavior of the plain factory constructors).
// A tripped bound ends the stream with an error wrapping
// ErrResourceExhausted — an EOS batch and a quarantined key, via the same
// machinery as a backend panic.
type Limits struct {
	// MaxBufferBytes caps the bytes a whole-stream backend (parser,
	// earley) may buffer per stream before its Close-time recognition
	// (0 = unlimited). The Feed that would exceed it fails, and none of
	// its bytes are buffered.
	MaxBufferBytes int
	// MaxPendingMatches caps the matches one Feed of a streaming backend
	// (stream, dfa, aot) may confirm (0 = unlimited). The pipeline takes
	// every call's matches with it — nothing is left pending between
	// calls — so the bound is per chunk, and only a match bomb —
	// adversarial input tagging far faster than it can be delivered —
	// trips it.
	MaxPendingMatches int
	// MaxChartItems and MaxWorkPerByte bound the Earley backend's chart
	// per recognition (see earley.Config); ignored by the FSA paths.
	MaxChartItems  int
	MaxWorkPerByte int
	// Mem, when set, is charged with the backends' buffered-byte and
	// chart estimates — normally the pipeline's Config.Mem gauge, so
	// tenant memory budgets see backend state, not just arenas.
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

// checkBuffer rejects a Feed that would push a stream buffer past
// MaxBufferBytes, before any of its bytes are accepted.
func (l Limits) checkBuffer(have, add int) error {
	if max := l.MaxBufferBytes; max > 0 && have+add > max {
		return fmt.Errorf("%w: stream buffer %d+%d bytes over MaxBufferBytes %d", ErrResourceExhausted, have, add, max)
	}
	return nil
}

// memReleaser is implemented by limit-aware backends that charge a
// MemGauge; the shard releases the charge when the stream retires.
type memReleaser interface{ releaseMem() }

// Validate rejects negative limits with typed errors.
func (l Limits) Validate() error {
	if l.MaxBufferBytes < 0 {
		return &ConfigError{Field: "Limits.MaxBufferBytes", Value: l.MaxBufferBytes, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if l.MaxPendingMatches < 0 {
		return &ConfigError{Field: "Limits.MaxPendingMatches", Value: l.MaxPendingMatches, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if l.MaxChartItems < 0 {
		return &ConfigError{Field: "Limits.MaxChartItems", Value: l.MaxChartItems, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if l.MaxWorkPerByte < 0 {
		return &ConfigError{Field: "Limits.MaxWorkPerByte", Value: l.MaxWorkPerByte, Reason: "must be >= 0 (0 = unlimited)"}
	}
	return nil
}
