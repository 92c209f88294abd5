package stream

import "sync/atomic"

// fill resolves the transition on (c, look) of r's state, at row offset
// off, in the table's working generation: a sibling runner may have filled
// it already, else one NFA cycle computes and caches it. A runner parked in
// a superseded epoch is first re-canonicalised through its state's
// (active, pending) pair. r comes out holding the published generation, in
// which the returned restricted ref (plain or effect) is valid.
func (t *Table) fill(r *Runner, off int32, c, look int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := off / int32(t.nc)
	if r.g.epoch != t.g.epoch {
		w := 2 * t.e.words
		pair := r.g.pairs[w*int(s) : w*int(s)+w]
		s = t.canonical(pair[:w/2], pair[w/2:], r)
	}
	ref := t.g.ref(s*int32(t.nc), c, look)
	if ref == unfilled {
		r.misses++
		ref = t.compute(s, c, look, r)
	}
	r.g = t.g
	return ref
}

// compute runs one NFA cycle from state s consuming class c under
// lookahead look and stores the resulting ref in s's cell — or, for a
// conditional transition, in the look slot of s's row. When the cycle
// itself started a new epoch, s is gone and the ref is used once,
// uncached. by is charged any reset (nil while closing).
func (t *Table) compute(s int32, c, look int, by *Runner) int32 {
	e := t.e
	t.fills.Add(1)
	epoch, w := t.g.epoch, e.words
	active, pending := t.g.pairs[2*w*int(s):][:w], t.g.pairs[2*w*int(s)+w:][:w]
	conditional := e.nextActive(active, pending, c, t.next)
	ext := e.zeroMask // end of stream extends nothing
	if look < t.nc {
		ext = e.extendC[look]
	}
	for i := range t.end {
		t.end[i] = t.next[i] & e.last[i] &^ ext[i]
	}
	ref := t.outcome(pending, t.next, t.end, c, by)
	if t.g.epoch != epoch {
		return ref
	}
	cell := &t.g.trans[int(s)*t.nc+c]
	if !conditional {
		atomic.StoreInt32(cell, ref)
		return ref
	}
	row := atomic.LoadInt32(cell)
	if row == unfilled {
		if t.nRows*(t.nc+1) == len(t.g.cond) {
			t.grow(0, 0, 2*t.nRows)
		}
		row = condRef(t.nRows * (t.nc + 1))
		t.nRows++
		atomic.StoreInt32(&t.g.trans[int(s)*t.nc+c], row)
	}
	atomic.StoreInt32(&t.g.cond[int(^row>>1)+look], ref)
	return ref
}

// outcome finishes the cycle from pending whose next active set is
// nextActive and whose confirmed endings are end: emissions deduplicated
// per instance in bit order, collision flags against the first, follow
// wiring into the pending latch (kept across delimiters) and the section
// 5.2 dead-state re-arm — exactly Tagger.step and Tagger.emit. It returns
// the successor's plain ref, or the interned effect when the cycle has
// events.
func (t *Table) outcome(pending, nextActive, end []uint64, c int, by *Runner) int32 {
	e := t.e
	pend := t.pend
	copy(pend, pending)
	if !e.delimC[c] {
		clearMask(pend)
	}
	var ef effect
	forEachBit(end, func(p int) {
		k := e.owner[p]
		for _, prev := range ef.emits {
			if prev == k {
				return
			}
		}
		collide := false
		if len(ef.emits) > 0 {
			a := e.conflictSetID[ef.emits[0]]
			collide = a < 0 || a != e.conflictSetID[k]
		}
		ef.emits = append(ef.emits, k)
		ef.collide = append(ef.collide, collide)
		ef.rare = ef.rare || collide
		for _, f := range e.spec.Instances[k].Follow {
			orInto(pend, e.firstMask[f])
		}
	})
	if e.recoveryMask != nil && isZero(nextActive) && isZero(pend) {
		ef.recovered, ef.rare = true, true
		copy(pend, e.recoveryMask)
	}
	next := t.canonical(nextActive, pend, by) // may grow or reset t.g
	ef.next = t.g.plain(next, t.nc)
	if len(ef.emits) == 0 && !ef.recovered {
		return ef.next
	}
	key := append(t.key[:0], byte(ef.next), byte(ef.next>>8), byte(ef.next>>16), byte(ef.next>>24), boolByte(ef.recovered))
	for i, k := range ef.emits {
		key = append(key, byte(k), byte(k>>8), byte(k>>16), byte(k>>24), boolByte(ef.collide[i]))
	}
	t.key = key
	if i, ok := t.effIDs[string(key)]; ok {
		return effectRef(int(i))
	}
	if t.nEffects == len(t.g.effects) {
		t.grow(0, 2*t.nEffects, 0)
	}
	i := t.nEffects
	t.effIDs[string(key)] = int32(i)
	t.g.effects[i] = ef
	t.nEffects++
	return effectRef(i)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// canonical returns the id of state (active, pending) in the current
// epoch, adding it when new. At the MaxStates bound a new epoch starts
// first (RE2's policy: adversarial input degrades toward NFA speed, never
// to unbounded memory) and by is charged the reset.
func (t *Table) canonical(active, pending []uint64, by *Runner) int32 {
	if id, ok := t.ids[string(t.stateKey(active, pending))]; ok {
		return id
	}
	if t.nStates >= t.cfg.MaxStates {
		t.resets.Add(1)
		if by != nil {
			by.resets++
		}
		t.reset(t.g.epoch + 1)
		if id, ok := t.ids[string(t.stateKey(active, pending))]; ok {
			return id // the start state
		}
	}
	return t.addState(active, pending)
}

// addState appends a state, growing the working generation when full. Its
// pair and skip-ahead plan are written before any ref to it is stored.
func (t *Table) addState(active, pending []uint64) int32 {
	if t.nStates == len(t.g.accel) {
		t.grow(2*t.nStates, 0, 0)
	}
	s, w := t.nStates, t.e.words
	copy(t.g.pairs[2*w*s:], active)
	copy(t.g.pairs[2*w*s+w:], pending)
	if !t.cfg.NoAccel {
		t.g.accel[s] = t.e.probeAccel(active, pending)
	}
	t.ids[string(t.stateKey(active, pending))] = int32(s)
	t.nStates++
	return int32(s)
}

func (t *Table) stateKey(active, pending []uint64) []byte {
	key := t.key[:0]
	for _, m := range [2][]uint64{active, pending} {
		for _, w := range m {
			key = append(key,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
	}
	t.key = key
	return key
}

// nextActive computes into next the chain registers after consuming class
// c from (active, pending) — Tagger.step's fused pass — and reports whether
// any accept candidate's confirmation depends on the lookahead (figure 7).
func (e *engine) nextActive(active, pending []uint64, c int, next []uint64) (conditional bool) {
	var scattered []uint64
	if e.hasExtras {
		for w := range active {
			if active[w]&e.extraSrc[w] != 0 {
				scattered = make([]uint64, e.words)
				src := make([]uint64, e.words)
				for v := range src {
					src[v] = active[v] & e.extraSrc[v]
				}
				forEachBit(src, func(p int) { orInto(scattered, e.extraTo[p]) })
				break
			}
		}
	}
	mb := e.matchC[c]
	var carry uint64
	for w := range next {
		a := active[w]
		shifted := a<<1 | carry
		carry = a >> 63
		nx := (shifted & e.succ[w]) | (a & e.self[w]) | pending[w] | e.alwaysPending[w]
		if scattered != nil {
			nx |= scattered[w]
		}
		nx &= mb[w]
		next[w] = nx
		if nx&e.last[w]&e.extendAny[w] != 0 {
			conditional = true
		}
	}
	return conditional
}
