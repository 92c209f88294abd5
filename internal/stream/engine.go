// Package stream executes a compiled tagger specification in software as a
// bit-parallel NFA: one bit per pattern position across all tokenizer
// instances, 64 positions per machine word. It implements exactly the
// semantics of the generated hardware (see package core). Served streams
// run the table determinized from it (Table, Runner), several times
// faster; the NFA itself (Tagger) is what fills that table and the serial
// reference it is checked against.
//
// Per input byte the engine computes
//
//	next   = ((active << 1) & succ) | (active & self) | extra(active) | (pending & match[b])
//	ending = next & last & ^extend[b']        (b' = lookahead byte)
//
// where succ marks chain edges p→p+1, self marks self-loops (the
// one-or-more templates of figure 6), extra covers the remaining Glushkov
// edges, match[b] masks positions whose byte class contains b, and
// extend[b'] masks accepting positions whose match could continue with b'
// (the figure 7 longest-match lookahead). Completions wire pending bits for
// the instances in their Follow sets; pending survives delimiter bytes and
// is reloaded on every non-delimiter byte, mirroring the inverted-delimiter
// register enable of section 3.2.
package stream

import (
	"fmt"
	"math/bits"

	"cfgtag/internal/core"
)

// engine holds the compile-time bit masks shared by all Tagger instances of
// a Spec.
//
// The per-byte decoder columns are stored byte-class compressed: the 256
// byte values are partitioned into equivalence classes — bytes with
// identical match, extend and delimiter behaviour share a class — and the
// tables hold one column per class instead of one per byte. classOf maps a
// byte to its class; real grammars collapse 256 columns to a few dozen.
type engine struct {
	spec  *core.Spec
	words int // words per position bitset

	// classOf[b] is the byte-equivalence class of byte b.
	classOf [256]uint16
	// numClasses is the number of byte-equivalence classes.
	numClasses int
	// matchC[c] marks positions whose byte class contains the bytes of
	// equivalence class c.
	matchC [][]uint64
	// extendC[c] marks positions p (accepting or not) with some q∈follow(p)
	// whose byte class contains the bytes of equivalence class c.
	extendC [][]uint64
	// delimC[c] reports whether class c's bytes are delimiters.
	delimC []bool
	// extendAny is the OR of every extendC column: positions whose
	// accepting status depends on the lookahead byte at all. The lazy DFA
	// uses it to split lookahead-independent transition edges from
	// conditional ones.
	extendAny []uint64
	// succ marks positions q entered from q-1 (chain edges).
	succ []uint64
	// self marks positions with a self-loop.
	self []uint64
	// extraSrc marks positions with Glushkov edges not covered by succ and
	// self; extraTo[p] is their target mask. hasExtras gates the (rare)
	// scatter pass: pure literal/class grammars have none.
	extraSrc  []uint64
	extraTo   map[int][]uint64
	hasExtras bool
	// zeroMask is an all-zero bitset standing in for extend[next] at end
	// of stream.
	zeroMask []uint64
	// alwaysPending is startPending under FreeRunningStart, else zeroMask;
	// it is OR-injected on every byte.
	alwaysPending []uint64
	// recoveryMask is re-armed into pending when the engine goes dead
	// (section 5.2 error recovery); nil when recovery is off.
	recoveryMask []uint64
	// conflictSetID[k] is the index of instance k's static conflict set,
	// or -1; used to flag residual runtime collisions the static analysis
	// did not anticipate (section 3.4's "possibility that a search engine
	// will detect more than one pattern at any instance").
	conflictSetID []int
	// last marks accepting positions.
	last []uint64
	// firstMask[k] marks instance k's first positions.
	firstMask [][]uint64
	// startPending marks the first positions of all start instances.
	startPending []uint64
	// owner[p] is the instance owning position p.
	owner []int32
	// base[k] is instance k's first global position.
	base []int
}

// compile lays out every instance's pattern positions in one global bit
// space and precomputes the transition masks.
func compile(spec *core.Spec) *engine {
	total := 0
	for _, in := range spec.Instances {
		total += in.Program.Len()
	}
	e := &engine{
		spec:    spec,
		words:   (total + 63) / 64,
		extraTo: make(map[int][]uint64),
		owner:   make([]int32, total),
		base:    make([]int, len(spec.Instances)),
	}
	if e.words == 0 {
		e.words = 1
	}
	newMask := func() []uint64 { return make([]uint64, e.words) }
	e.succ = newMask()
	e.self = newMask()
	e.extraSrc = newMask()
	e.last = newMask()
	e.startPending = newMask()
	// Full-width decoder columns, built per byte and compressed into
	// equivalence classes at the end of compile.
	var match, extend [256][]uint64
	var delim [256]bool
	for b := 0; b < 256; b++ {
		match[b] = newMask()
		extend[b] = newMask()
		delim[b] = spec.Delim.Has(byte(b))
	}
	e.firstMask = make([][]uint64, len(spec.Instances))

	off := 0
	for k, in := range spec.Instances {
		p := in.Program
		e.base[k] = off
		e.firstMask[k] = newMask()
		for i := 0; i < p.Len(); i++ {
			g := off + i
			e.owner[g] = int32(k)
			for _, bb := range p.Classes[i].Bytes() {
				setBit(match[bb], g)
			}
		}
		for _, f := range p.First {
			setBit(e.firstMask[k], off+f)
		}
		for _, l := range p.Last {
			setBit(e.last, off+l)
		}
		for q, tos := range p.Follow {
			gq := off + q
			for _, t := range tos {
				gt := off + t
				switch {
				case gt == gq+1:
					setBit(e.succ, gt)
				case gt == gq:
					setBit(e.self, gq)
				default:
					setBit(e.extraSrc, gq)
					if e.extraTo[gq] == nil {
						e.extraTo[gq] = newMask()
					}
					setBit(e.extraTo[gq], gt)
				}
				// Any byte matching the target class extends a match
				// pending at q.
				for _, bb := range p.Classes[t].Bytes() {
					setBit(extend[bb], gq)
				}
			}
		}
		off += p.Len()
	}
	for _, k := range spec.StartInstances {
		orInto(e.startPending, e.firstMask[k])
	}
	e.hasExtras = len(e.extraTo) > 0
	e.zeroMask = newMask()
	e.conflictSetID = make([]int, len(spec.Instances))
	for k := range e.conflictSetID {
		e.conflictSetID[k] = -1
	}
	for si, set := range spec.ConflictSets {
		for _, id := range set {
			e.conflictSetID[id] = si
		}
	}
	e.alwaysPending = e.zeroMask
	if spec.Opts.FreeRunningStart {
		// Free-running start folds into the per-word injection instead of
		// re-adding the start mask after every byte.
		e.alwaysPending = e.startPending
	}
	if !spec.Opts.FreeRunningStart {
		// Under FreeRunningStart the start set is always pending, so the
		// engine is never dead and recovery cannot trigger.
		switch spec.Opts.Recovery {
		case core.RecoveryRestart:
			e.recoveryMask = e.startPending
		case core.RecoveryResync:
			e.recoveryMask = newMask()
			for k := range spec.Instances {
				orInto(e.recoveryMask, e.firstMask[k])
			}
		}
	}
	if spec.Opts.NoLongestMatch {
		// Ablation: no figure 7 lookahead — matches report at every
		// accepting cycle.
		for b := 0; b < 256; b++ {
			for w := range extend[b] {
				extend[b][w] = 0
			}
		}
	}
	e.compressClasses(&match, &extend, &delim)
	return e
}

// compressClasses partitions the 256 byte columns into equivalence classes:
// bytes with identical match and extend columns and the same delimiter bit
// transition every engine state identically, so one shared column serves
// them all. Classes are numbered in first-byte order.
func (e *engine) compressClasses(match, extend *[256][]uint64, delim *[256]bool) {
	key := make([]byte, 0, 16*e.words+1)
	seen := make(map[string]uint16)
	for b := 0; b < 256; b++ {
		key = key[:0]
		for _, w := range match[b] {
			key = append(key,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
		for _, w := range extend[b] {
			key = append(key,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
		if delim[b] {
			key = append(key, 1)
		} else {
			key = append(key, 0)
		}
		c, ok := seen[string(key)]
		if !ok {
			c = uint16(len(e.matchC))
			seen[string(key)] = c
			e.matchC = append(e.matchC, match[b])
			e.extendC = append(e.extendC, extend[b])
			e.delimC = append(e.delimC, delim[b])
		}
		e.classOf[b] = c
	}
	e.numClasses = len(e.matchC)
	e.extendAny = make([]uint64, e.words)
	for _, col := range e.extendC {
		orInto(e.extendAny, col)
	}
}

func setBit(m []uint64, i int) { m[i>>6] |= 1 << (i & 63) }

func orInto(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

func clearMask(m []uint64) {
	for w := range m {
		m[w] = 0
	}
}

func isZero(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEachBit calls fn for every set bit index in m, ascending.
func forEachBit(m []uint64, fn func(int)) {
	for w, v := range m {
		for v != 0 {
			b := bits.TrailingZeros64(v)
			fn(w<<6 | b)
			v &= v - 1
		}
	}
}

func (e *engine) String() string {
	return fmt.Sprintf("engine: %d instances, %d positions, %d words, %d byte classes",
		len(e.spec.Instances), len(e.owner), e.words, e.numClasses)
}
