package stream

import "bytes"

// Skip-ahead bounds: a state accelerates only when at most accelMaxClasses
// byte classes can move it, and scans with literal search when those cover
// at most accelMaxLiterals byte values.
const (
	accelMaxClasses  = 3
	accelMaxLiterals = 3
)

// accel is one state's skip-ahead plan (RE2/Hyperscan-style): for every
// boring class the state self-loops with no emission, collision, recovery
// or pending change, so runs of boring bytes are skipped with a scan
// instead of per-byte cell loads.
type accel struct {
	// boring[c] reports class c inert for the state, both as the consumed
	// byte and as the figure 7 lookahead.
	boring []bool
	// lits holds the interesting byte values when few enough for a literal
	// scan; empty (with table nil) means the state absorbs every byte.
	lits []byte
	// table is the membership fallback when the interesting classes span
	// too many byte values.
	table *[256]bool
}

// scan returns the index of the first interesting byte at or after i, or
// len(p) when the rest of the chunk is boring.
func (a *accel) scan(p []byte, i int) int {
	if a.table != nil {
		for ; i < len(p); i++ {
			if a.table[p[i]] {
				return i
			}
		}
		return i
	}
	switch len(a.lits) {
	case 0:
		return len(p)
	case 1:
		if j := bytes.IndexByte(p[i:], a.lits[0]); j >= 0 {
			return i + j
		}
		return len(p)
	case 2:
		b0, b1 := a.lits[0], a.lits[1]
		for ; i < len(p); i++ {
			if b := p[i]; b == b0 || b == b1 {
				return i
			}
		}
		return i
	default:
		b0, b1, b2 := a.lits[0], a.lits[1], a.lits[2]
		for ; i < len(p); i++ {
			if b := p[i]; b == b0 || b == b1 || b == b2 {
				return i
			}
		}
		return i
	}
}

// probeAccel decides from the engine masks alone whether state (active,
// pending) accelerates, and builds its plan. Class c is boring when
//
//   - as a lookahead it confirms no match: active & last &^ extendC[c] is
//     empty, so a boring transition under it emits nothing;
//   - consuming it is a pure self-move: the NFA step reproduces active,
//     keeps the pending latch (c is a delimiter, or pending is empty) and
//     cannot trigger section 5.2 recovery.
//
// Any run of boring bytes then holds the state with no events, which is
// exactly what Runner.Write's scan collapses. The probe touches no table.
func (e *engine) probeAccel(active, pending []uint64) *accel {
	pendingZero, activeZero := isZero(pending), isZero(active)
	next := make([]uint64, e.words)
	boring := make([]bool, e.numClasses)
	n := 0
classes:
	for c := range boring {
		for w, a := range active {
			if a&e.last[w]&^e.extendC[c][w] != 0 {
				continue classes
			}
		}
		if !e.delimC[c] && !pendingZero {
			continue
		}
		if e.recoveryMask != nil && activeZero && (pendingZero || !e.delimC[c]) {
			continue
		}
		e.nextActive(active, pending, c, next)
		for w, a := range active {
			if next[w] != a {
				continue classes
			}
		}
		boring[c] = true
		n++
	}
	if n == 0 || e.numClasses-n > accelMaxClasses {
		return nil
	}
	a := &accel{boring: boring}
	for b := 0; b < 256; b++ {
		if !boring[e.classOf[b]] {
			a.lits = append(a.lits, byte(b))
		}
	}
	if len(a.lits) > accelMaxLiterals {
		a.table = new([256]bool)
		for _, b := range a.lits {
			a.table[b] = true
		}
		a.lits = nil
	}
	return a
}
