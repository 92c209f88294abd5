package stream

import (
	"fmt"
	"io"

	"cfgtag/internal/core"
)

// Match reports one token detection: the tokenizer instance that completed
// and the offset of the lexeme's final byte. The instance identifies both
// the terminal and its grammatical context (the paper's tag).
type Match struct {
	// InstanceID indexes Spec.Instances.
	InstanceID int
	// End is the absolute offset of the last byte of the lexeme.
	End int64
}

// Tagger is a streaming token tagger over one input. It is not safe for
// concurrent use; create one Tagger per stream (they share the compiled
// engine).
type Tagger struct {
	e *engine

	// OnMatch receives every detection in input order. Detections sharing
	// an End offset are simultaneous hardware assertions; EncodeIndex
	// reproduces what the index encoder would emit for such a group.
	OnMatch func(Match)

	active  []uint64
	scatter []uint64
	pending []uint64
	scratch []uint64

	pos       int64
	have      bool // one byte of lookahead buffered
	heldByte  byte
	closed    bool
	emitStamp []int64 // per-instance last emission position, for dedupe

	// Errors counts recovery events: bytes after which the engine was dead
	// and the section 5.2 recovery re-armed it. Always zero with
	// RecoveryNone.
	Errors int64
	// OnError, if set, is called with the offset of each such byte.
	OnError func(pos int64)

	// Collisions counts residual runtime index collisions: cycles where
	// two instances outside a common static conflict set asserted
	// together, so the OR-tree encoder's output would be the OR of
	// unrelated indices. The static analysis (core.Spec.ConflictSets) is
	// an approximation; this is its runtime audit.
	Collisions int64
	// OnCollision, if set, receives the offset and the two instance IDs.
	OnCollision func(pos int64, a, b int)

	firstEmit int // first instance emitted this cycle, -1 when none
}

// NewTagger compiles the spec (cheap per extra Tagger: masks are shared via
// the engine embedded in the returned value).
func NewTagger(spec *core.Spec) *Tagger {
	e := compile(spec)
	t := &Tagger{e: e}
	t.active = make([]uint64, e.words)
	t.scatter = make([]uint64, e.words)
	t.pending = make([]uint64, e.words)
	t.scratch = make([]uint64, e.words)
	t.emitStamp = make([]int64, len(spec.Instances))
	t.Reset()
	return t
}

// Clone creates an independent Tagger sharing this one's compiled engine —
// cheap (no mask recomputation) and the way to tag several streams
// concurrently.
func (t *Tagger) Clone() *Tagger {
	c := &Tagger{e: t.e}
	c.active = make([]uint64, t.e.words)
	c.scatter = make([]uint64, t.e.words)
	c.pending = make([]uint64, t.e.words)
	c.scratch = make([]uint64, t.e.words)
	c.emitStamp = make([]int64, len(t.e.spec.Instances))
	c.Reset()
	return c
}

// Spec returns the specification the tagger was compiled from.
func (t *Tagger) Spec() *core.Spec { return t.e.spec }

// Reset rewinds the tagger to stream start: chains idle, start instances
// pending.
func (t *Tagger) Reset() {
	clearMask(t.active)
	clearMask(t.pending)
	copy(t.pending, t.e.startPending)
	t.pos = 0
	t.have = false
	t.closed = false
	t.Errors = 0
	t.Collisions = 0
	for i := range t.emitStamp {
		t.emitStamp[i] = -1
	}
}

// Write feeds stream bytes; matches fire on OnMatch as they are confirmed
// (one byte of lookahead latency for longest-match). It never fails; the
// error is for io.Writer conformance.
func (t *Tagger) Write(p []byte) (int, error) {
	if t.closed {
		return 0, fmt.Errorf("stream: Write after Close")
	}
	for _, b := range p {
		if t.have {
			t.step(t.heldByte, t.e.extendC[t.e.classOf[b]])
		}
		t.heldByte = b
		t.have = true
	}
	return len(p), nil
}

// Close flushes the final byte (whose lookahead is end-of-stream) and
// prevents further writes.
func (t *Tagger) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	if t.have {
		t.step(t.heldByte, t.e.zeroMask) // end of stream extends nothing
		t.have = false
	}
	return nil
}

// Pos returns the number of bytes fully processed (confirmed, not merely
// buffered for lookahead).
func (t *Tagger) Pos() int64 { return t.pos }

// step advances one byte; ext is the extend mask of the lookahead byte
// (zeroMask at end of stream). One fused pass computes
//
//	next   = (((active<<1) & succ) | (active & self) | scatter | pending) & match[b]
//	ending = next & last & ^ext                         (figure 7)
//
// and reloads the pending latch on every non-delimiter byte (the inverted
// delimiter register enable of section 3.2).
func (t *Tagger) step(b byte, ext []uint64) {
	e := t.e
	c := e.classOf[b]
	delim := e.delimC[c]
	mb := e.matchC[c]

	// Scatter the sparse non-chain Glushkov edges first (rare: pure
	// literal/class grammars have none).
	var scattered []uint64
	if e.hasExtras {
		any := uint64(0)
		for w := 0; w < e.words; w++ {
			src := t.active[w] & e.extraSrc[w]
			t.scratch[w] = src
			any |= src
		}
		if any != 0 {
			clearMask(t.scatter)
			forEachBit(t.scratch, func(p int) {
				orInto(t.scatter, e.extraTo[p])
			})
			scattered = t.scatter
		}
	}

	words := e.words
	active, pending, scratch := t.active[:words], t.pending[:words], t.scratch[:words]
	succ, self, last := e.succ[:words], e.self[:words], e.last[:words]
	always := e.alwaysPending[:words]
	mbw, extw := mb[:words], ext[:words]
	var carry, emitted, anyActive uint64
	for w := 0; w < words; w++ {
		a := active[w]
		shifted := a<<1 | carry
		carry = a >> 63
		nxw := (shifted & succ[w]) | (a & self[w]) | pending[w] | always[w]
		if scattered != nil {
			nxw |= scattered[w]
		}
		nxw &= mbw[w]
		end := nxw & last[w] &^ extw[w]
		scratch[w] = end
		emitted |= end
		anyActive |= nxw
		active[w] = nxw
		if !delim {
			pending[w] = 0
		}
	}

	if emitted != 0 {
		t.emit(scratch)
	}
	if anyActive == 0 && e.recoveryMask != nil {
		// Dead-state detector (section 5.2): no chain is active; if no
		// tokenizer is pending either, re-arm the recovery set so
		// processing continues from the point of the error.
		dead := true
		for w := 0; w < words; w++ {
			if t.pending[w] != 0 {
				dead = false
				break
			}
		}
		if dead {
			copy(t.pending, e.recoveryMask)
			t.Errors++
			if t.OnError != nil {
				t.OnError(t.pos)
			}
		}
	}
	t.pos++
}

// emit walks the ending bit set, wiring follow pendings and reporting
// matches, deduplicated per instance per cycle (a pattern can reach several
// accepting positions simultaneously).
func (t *Tagger) emit(ending []uint64) {
	e := t.e
	t.firstEmit = -1
	forEachBit(ending, func(p int) {
		k := int(e.owner[p])
		if t.emitStamp[k] == t.pos {
			return
		}
		t.emitStamp[k] = t.pos
		if t.firstEmit < 0 {
			t.firstEmit = k
		} else if a := t.firstEmit; e.conflictSetID[a] < 0 || e.conflictSetID[a] != e.conflictSetID[k] {
			// Simultaneous assertions outside one equation 5 set: the
			// encoder output would be an unrelated OR.
			t.Collisions++
			if t.OnCollision != nil {
				t.OnCollision(t.pos, a, k)
			}
		}
		in := e.spec.Instances[k]
		for _, f := range in.Follow {
			orInto(t.pending, e.firstMask[f])
		}
		if t.OnMatch != nil {
			t.OnMatch(Match{InstanceID: k, End: t.pos})
		}
	})
}

// TagReader streams from r until EOF, returning all matches (Reset first,
// Close implied). Use Write/Close directly for callback-style streaming.
func (t *Tagger) TagReader(r io.Reader) ([]Match, error) {
	t.Reset()
	var out []Match
	prev := t.OnMatch
	t.OnMatch = func(m Match) { out = append(out, m) }
	defer func() { t.OnMatch = prev }()
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := t.Write(buf[:n]); werr != nil {
				return out, werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	t.Close()
	return out, nil
}

// Tag runs a whole buffer through a fresh pass and returns the matches.
// The tagger is Reset first; Close is implied.
func (t *Tagger) Tag(data []byte) []Match {
	t.Reset()
	var out []Match
	prev := t.OnMatch
	t.OnMatch = func(m Match) { out = append(out, m) }
	defer func() { t.OnMatch = prev }()
	t.Write(data)
	t.Close()
	return out
}

// EncodeIndex reproduces the token index encoder output for a set of
// simultaneous detections: the bitwise OR of the instance indices
// (section 3.4). Under the equation 5 assignment the result equals the
// highest-priority member's index.
func EncodeIndex(spec *core.Spec, group []Match) int {
	idx := 0
	for _, m := range group {
		idx |= spec.Instances[m.InstanceID].Index
	}
	return idx
}

// GroupByEnd partitions matches into runs sharing an End offset, preserving
// order — the per-cycle groups a hardware back-end would see.
func GroupByEnd(matches []Match) [][]Match {
	var out [][]Match
	for i := 0; i < len(matches); {
		j := i + 1
		for j < len(matches) && matches[j].End == matches[i].End {
			j++
		}
		out = append(out, matches[i:j])
		i = j
	}
	return out
}
