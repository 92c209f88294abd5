package stream

import (
	"fmt"
	"sync/atomic"
)

// Runner is a streaming token tagger over one input, equivalent byte for
// byte to Tagger on the same input but executing a Table. Not safe for
// concurrent use; mint one per stream — any number may share one table.
//
// What survives a Write is the whole carry across a chunk boundary: the
// state, the held lookahead byte's class and the offset. Detections
// therefore never depend on how the stream is chunked.
type Runner struct {
	t *Table
	g *gen

	// OnMatch receives every detection in input order (identical to
	// Tagger.OnMatch on the same input).
	OnMatch func(Match)
	// OnError receives section 5.2 recovery offsets, as Tagger.OnError.
	OnError func(pos int64)
	// OnCollision receives residual index collisions, as
	// Tagger.OnCollision.
	OnCollision func(pos int64, a, b int)

	// Errors and Collisions mirror Tagger's counters.
	Errors     int64
	Collisions int64

	cur       int32
	pos       int64
	have      bool
	heldClass int
	closed    bool

	// Lifetime fill accounting, kept across Reset: bytes of finished
	// streams, bytes whose step this runner computed, resets it forced.
	done, misses, resets int64
}

// Table returns the table the runner executes.
func (r *Runner) Table() *Table { return r.t }

// Reset rewinds to stream start for reuse, on the table's newest
// generation. The table stays filled: it belongs to the table, not the
// stream.
func (r *Runner) Reset() {
	r.done += r.pos
	r.g = r.t.cur.Load()
	r.cur = 0
	r.pos = 0
	r.have = false
	r.closed = false
	r.Errors = 0
	r.Collisions = 0
}

// CacheStats reports this runner's lifetime fill totals on a lazy table:
// bytes served from filled cells (skip-ahead included), bytes whose
// transition this runner computed, and epoch resets it forced. hits+misses
// equals the bytes processed. A closed table never misses; it reports
// zeros.
func (r *Runner) CacheStats() (hits, misses, resets int64) {
	if r.t.closed {
		return 0, 0, 0
	}
	return r.done + r.pos - r.misses, r.misses, r.resets
}

// Write feeds stream bytes; matches fire on OnMatch as they are confirmed,
// one byte of lookahead behind (figure 7).
//
// In steady state a byte is one classOf lookup and one cell load, two for
// a conditional row; only effects and unfilled cells leave the loop, for
// resolve. Cells are read with atomic loads so a lazy table can fill
// concurrently; on amd64 and arm64 those are plain loads.
func (r *Runner) Write(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("stream: Write after Close")
	}
	if len(p) == 0 {
		return 0, nil
	}
	classOf, nc := &r.t.e.classOf, r.t.nc
	i := 0
	if !r.have {
		r.heldClass = int(classOf[p[0]])
		r.have = true
		i = 1
	}
	// Few live values keep the loop in registers: pos is derived, since
	// every iteration and every skip advance it and i alike.
	trans, cond, plans := r.g.trans, r.g.cond, r.g.accel
	c, cur, off := r.heldClass, int(r.cur), r.pos-int64(i)
	for ; i < len(p); i++ {
		// Skip-ahead: the bytes collapsed are exactly the iterations whose
		// consumed byte and lookahead are both boring; the byte before the
		// first interesting one takes the normal path, so conditional
		// emissions still see their lookahead.
		if a := plans[cur]; a != nil && a.boring[c] {
			if j := a.scan(p, i); j > i {
				c = int(classOf[p[j-1]])
				i = j
				if i == len(p) {
					break
				}
			}
		}
		look := int(classOf[p[i]])
		ref := atomic.LoadInt32(&trans[cur*nc+c])
		if ref < 0 {
			if ^ref&1 == 1 && ref != unfilled {
				ref = atomic.LoadInt32(&cond[int(^ref>>1)*(nc+1)+look])
			}
			if ref < 0 {
				r.cur, r.pos = int32(cur), off+int64(i)
				ref = r.resolve(ref, c, look)
				trans, cond, plans = r.g.trans, r.g.cond, r.g.accel
			}
		}
		cur, c = int(ref), look
	}
	r.cur, r.pos, r.heldClass = int32(cur), off+int64(i), c
	return len(p), nil
}

// Close flushes the held final byte through the end-of-stream lookahead
// slot and prevents further writes.
func (r *Runner) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.have {
		if ref := r.g.ref(r.cur, r.heldClass, r.t.nc, r.t.nc); ref >= 0 {
			r.cur = ref
		} else {
			r.cur = r.resolve(ref, r.heldClass, r.t.nc)
		}
		r.pos++
		r.have = false
	}
	return nil
}

// Tag runs a whole buffer through a fresh pass and returns the matches
// (Reset first, Close implied).
func (r *Runner) Tag(data []byte) []Match {
	r.Reset()
	var out []Match
	prev := r.OnMatch
	r.OnMatch = func(m Match) { out = append(out, m) }
	defer func() { r.OnMatch = prev }()
	r.Write(data)
	r.Close()
	return out
}

// resolve finishes a transition of the current state on (c, look) (look
// nc at end of stream) whose restricted ref is negative: an unfilled cell
// is filled, and an effect fires its events at the current offset —
// collisions interleaved before their matches, then the recovery, exactly
// Tagger.emit's order. It returns the successor state.
func (r *Runner) resolve(ref int32, c, look int) int32 {
	if ref == unfilled {
		if ref = r.t.fill(r, c, look); ref >= 0 {
			return ref
		}
	}
	ef := &r.g.effects[^ref>>1]
	if len(ef.emits) > 0 {
		first := int(ef.emits[0])
		for i, k := range ef.emits {
			if ef.collide[i] {
				r.Collisions++
				if r.OnCollision != nil {
					r.OnCollision(r.pos, first, int(k))
				}
			}
			if r.OnMatch != nil {
				r.OnMatch(Match{InstanceID: int(k), End: r.pos})
			}
		}
	}
	if ef.recovered {
		r.Errors++
		if r.OnError != nil {
			r.OnError(r.pos)
		}
	}
	return ef.next
}
