package stream

import (
	"errors"
	"sync/atomic"
)

var errWriteAfterClose = errors.New("stream: Write after Close")

// Events receives a Runner's rare events in input order: section 5.2
// recoveries and residual index collisions, as Tagger.OnError and
// Tagger.OnCollision. An interface rather than callbacks, so a backend that
// already satisfies it binds a runner without allocating a closure.
type Events interface {
	Recovery(pos int64)
	Collision(pos int64, a, b int)
}

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

	// Events, when set, receives recoveries and collisions.
	Events Events

	// Errors and Collisions mirror Tagger's counters.
	Errors     int64
	Collisions int64

	cur       int32 // the state's plain ref: row offset, accelTag if planned
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
	r.cur = r.g.plain(0, r.t.nc)
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

// Write feeds stream bytes and appends the matches it confirms — one byte
// of lookahead behind (figure 7) — to out, returning the extended slice
// like the built-in append.
//
// The inner loop has no call site. A steady-state byte is one classOf
// load, one add and one cell load; a conditional row is a second load and
// an effect that only emits is written straight into out's spare capacity,
// both inline. Everything rare leaves it for the outer step, one
// transition at a time: entering a state with a skip-ahead plan (the scan),
// an unfilled cell (the fill), an effect carrying a collision or a
// recovery, and an emission out has no room for. Cells are read with
// atomic loads so a lazy table can fill concurrently; on amd64 and arm64
// those are plain loads.
func (r *Runner) Write(p []byte, out []Match) ([]Match, error) {
	if r.closed {
		return out, errWriteAfterClose
	}
	if len(p) == 0 {
		return out, nil
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
	trans, cond, effects := r.g.trans, r.g.cond, r.g.effects
	c, cur, off := r.heldClass, int(r.cur), r.pos-int64(i)
	for i < len(p) {
		if cur >= accelTag {
			// Skip-ahead: the bytes collapsed are exactly the iterations
			// whose consumed byte and lookahead are both boring; the byte
			// before the first interesting one takes the normal path, so
			// conditional emissions still see their lookahead.
			if a := r.g.accel[(cur-accelTag)/nc]; a.boring[c] {
				if j := a.scan(p, i); j > i {
					c = int(classOf[p[j-1]])
					i = j
					if i == len(p) {
						break
					}
				}
			}
			cur -= accelTag
		}
		for ; i < len(p); i++ {
			look := int(classOf[p[i]])
			ref := atomic.LoadInt32(&trans[cur+c])
			if uint32(ref) >= accelTag {
				if ref < 0 {
					if ^ref&1 == 1 && ref != unfilled {
						ref = atomic.LoadInt32(&cond[int(^ref>>1)+look])
					}
					if ref == unfilled {
						break
					}
					if ref < 0 {
						ef := &effects[^ref>>1]
						n := len(out)
						if ef.rare || n+len(ef.emits) > cap(out) {
							break
						}
						out = out[:n+len(ef.emits)]
						for j, k := range ef.emits {
							out[n+j] = Match{InstanceID: int(k), End: off + int64(i)}
						}
						ref = ef.next
					}
				}
				if ref >= accelTag {
					cur, c = int(ref), look
					i++
					break
				}
			}
			cur, c = int(ref), look
		}
		if i == len(p) || cur >= accelTag {
			continue
		}
		// The rare step: one transition the loop left, at byte i.
		look := int(classOf[p[i]])
		r.pos = off + int64(i)
		var ref int32
		ref, out = r.step(int32(cur), c, look, out)
		trans, cond, effects = r.g.trans, r.g.cond, r.g.effects
		cur, c = int(ref), look
		i++
	}
	r.cur, r.pos, r.heldClass = int32(cur), off+int64(i), c
	return out, nil
}

// Close flushes the held final byte through the end-of-stream lookahead
// slot, appending what it confirms to out, and prevents further writes.
func (r *Runner) Close(out []Match) []Match {
	if r.closed {
		return out
	}
	r.closed = true
	if r.have {
		r.cur, out = r.step(r.cur&^accelTag, r.heldClass, r.t.nc, out)
		r.pos++
		r.have = false
	}
	return out
}

// Tag runs a whole buffer through a fresh pass and returns the matches
// (Reset first, Close implied).
func (r *Runner) Tag(data []byte) []Match {
	r.Reset()
	out, _ := r.Write(data, nil)
	return r.Close(out)
}

// step takes the transition of the state at row offset off on (c, look)
// (look nc at end of stream) at the current offset, whatever it holds: an
// unfilled cell is filled, and an effect appends its matches to out with
// collisions interleaved before them, then fires its recovery — exactly
// Tagger.emit's order. It returns the successor's plain ref.
func (r *Runner) step(off int32, c, look int, out []Match) (int32, []Match) {
	ref := r.g.ref(off, c, look)
	if ref == unfilled {
		ref = r.t.fill(r, off, c, look)
	}
	if ref >= 0 {
		return ref, out
	}
	ef := &r.g.effects[^ref>>1]
	for i, k := range ef.emits {
		if ef.collide[i] {
			r.Collisions++
			if r.Events != nil {
				r.Events.Collision(r.pos, int(ef.emits[0]), int(k))
			}
		}
		out = append(out, Match{InstanceID: int(k), End: r.pos})
	}
	if ef.recovered {
		r.Errors++
		if r.Events != nil {
			r.Events.Recovery(r.pos)
		}
	}
	return ef.next, out
}
