// The compiled form of the tagger automaton: one flat table, filled on
// demand (lazily, RE2-style) — the form every served stream runs — or to
// closure before the first byte by Determinize (the software analogue of
// the paper's synthesized hardware, kept as the closed reference), and one
// Runner whose Write loop executes it either way.
//
// A table state is a hash-consed (active, pending) bitset pair — the whole
// NFA configuration, so determinization is exact, recovery included. Per
// byte-equivalence class c, state s owns one cell trans[s*nc+c] holding a
// ref:
//
//	r >= 0         plain move, no events: the successor's row offset
//	               r&^accelTag (s*nc, premultiplied), with accelTag set
//	               exactly when the successor has a skip-ahead plan
//	r == unfilled  not computed yet (a lazy table's miss; never closed)
//	^r even        effect ^r>>1: emissions, collision flags, recovery, next
//	^r odd         conditional row at cond[^r>>1:] (trans cells only)
//
// Figure 7's longest-match rule makes some transitions depend on the next
// byte: a conditional row holds nc+1 restricted refs (plain, effect or
// unfilled) indexed by the lookahead's class, the last slot end of stream.
// The low tag bit keeps the encoding independent of how many effects and
// rows exist, so both pools grow during lazy fill without re-encoding a
// cell. Premultiplied offsets and accelTag keep a steady-state byte to one
// add and one cell load: no multiply, no per-byte plan lookup. Each state
// also carries a skip-ahead plan (accel.go) and keeps its (active, pending)
// pair: fills start from it, and a runner parked in a superseded epoch
// re-canonicalises through it (state = offset ÷ nc).
//
// Publication. Fills run under Table.mu and write cells with atomic stores
// into the working generation; runners read a generation lock-free with
// atomic loads. Storage that must grow is copied into a new generation and
// published before any ref into the new space is stored, and a superseded
// generation is never written again — so every ref a runner loads points
// inside the generation it holds. When a lazy table would exceed MaxStates
// it starts a new epoch instead (empty but for the start state, always
// state 0); a runner still in an older epoch keeps reading its immutable
// generation until its next miss.
package stream

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag/internal/core"
)

// DefaultMaxStates bounds a table when TableConfig.MaxStates is zero. The
// small grammars close well inside it (xmlrpc.y: 324 states), but the
// paper's own larger ones do not: workload.Scale(xmlrpc.y, n) closes in
// 1 453 states at n = 4 and 3 742 at n = 10, so at those sizes a table
// under this bound keeps starting new epochs and runs at fill speed.
const DefaultMaxStates = 1024

// unfilled marks a cell no fill has computed yet. Its complement is odd, so
// the loop meets it only on the negative-ref branch.
const unfilled int32 = math.MinInt32

// accelTag marks a plain ref whose successor has a skip-ahead plan. Every
// other ref is either below it (a plain move the loop takes without a
// branch beyond one compare) or negative, so one unsigned compare sends
// both to the rare path. Offsets stay below it: a table holds at most
// accelTag cells per epoch (newTable clamps MaxStates to that).
const accelTag = 1 << 30

func effectRef(i int) int32 { return ^int32(i << 1) }

// condRef encodes the conditional row starting at cond[off].
func condRef(off int) int32 { return ^int32(off<<1 | 1) }

// TableConfig tunes a Table.
type TableConfig struct {
	// MaxStates bounds the states of one epoch (0 = DefaultMaxStates,
	// minimum 2, at most 2^30 cells ÷ byte classes: the ref encoding's
	// ceiling, a 4 GiB table). A lazy table at the bound starts a new
	// epoch; Determinize fails instead.
	MaxStates int
	// NoAccel disables the skip-ahead plans. Output is identical either
	// way; the switch exists for differential testing and benchmarking.
	NoAccel bool
	// MemDelta, when set, receives the change in the table's resident
	// bytes whenever it grows or resets. Calls happen under the table's
	// mutex; the callback must not re-enter the table.
	MemDelta func(delta int64)
}

// CompileStats is a table's size report: states of the current epoch, byte
// classes, resident bytes and, on a table Determinize closed, the
// wall-clock time the closure took.
type CompileStats struct {
	States     int
	Classes    int
	TableBytes int
	Duration   time.Duration
}

// effect is everything an event-carrying transition does beyond the state
// move: the cycle's emissions in NFA bit order (one per instance), aligned
// collision flags (always against the first emission), the section 5.2
// recovery verdict, and the successor as a plain ref. rare marks an effect
// with a collision or a recovery, which Runner.Write steps outside its loop.
type effect struct {
	next      int32
	rare      bool
	recovered bool
	emits     []int32
	collide   []bool
}

// gen is one generation of a table's storage. Slices are allocated at
// capacity: trans and accel for cap(states), cond for cap(rows).
type gen struct {
	epoch   int64
	trans   []int32
	cond    []int32
	effects []effect
	accel   []*accel
	pairs   []uint64 // (active, pending) of state s at [2*words*s:]
}

// ref resolves the transition at row offset off on class c under lookahead
// look to a restricted ref (plain, effect or unfilled).
func (g *gen) ref(off int32, c, look int) int32 {
	ref := atomic.LoadInt32(&g.trans[int(off)+c])
	if ref != unfilled && ref < 0 && ^ref&1 == 1 {
		ref = atomic.LoadInt32(&g.cond[int(^ref>>1)+look])
	}
	return ref
}

// plain is the plain ref of state s in g at nc classes.
func (g *gen) plain(s int32, nc int) int32 {
	ref := s * int32(nc)
	if g.accel[s] != nil {
		ref |= accelTag
	}
	return ref
}

func (g *gen) size() int64 {
	n := 512 + 4*len(g.trans) + 4*len(g.cond) + 8*len(g.pairs) + 8*len(g.accel)
	for _, ef := range g.effects {
		n += 56 + 4*len(ef.emits) + len(ef.collide)
	}
	for _, a := range g.accel {
		if a != nil {
			n += 56 + len(a.boring) + len(a.lits)
			if a.table != nil {
				n += 256
			}
		}
	}
	return int64(n)
}

// Table is the shared compiled automaton of one (grammar, config) pair.
// Any number of Runners execute against it concurrently.
type Table struct {
	e   *engine
	nc  int
	cfg TableConfig
	cur atomic.Pointer[gen] // the published generation

	// mu serializes fills, growth and resets; everything below it is only
	// touched with mu held.
	mu                       sync.Mutex
	g                        *gen // the working generation
	ids                      map[string]int32
	effIDs                   map[string]int32
	nStates, nEffects, nRows int
	key                      []byte
	next, end, pend          []uint64 // fill scratch
	charged                  int64

	closed  bool
	closure time.Duration // Determinize's wall-clock time

	fills, resets atomic.Int64
}

// NewTable compiles spec and returns a lazy table holding only the start
// state; runners fill it as traffic crosses new transitions.
func NewTable(spec *core.Spec, cfg TableConfig) *Table {
	return newTable(compile(spec), cfg)
}

func newTable(e *engine, cfg TableConfig) *Table {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = DefaultMaxStates
	}
	cfg.MaxStates = min(max(cfg.MaxStates, 2), accelTag/e.numClasses)
	t := &Table{
		e: e, nc: e.numClasses, cfg: cfg,
		next: make([]uint64, e.words), end: make([]uint64, e.words), pend: make([]uint64, e.words),
	}
	t.mu.Lock()
	t.reset(0)
	t.mu.Unlock()
	return t
}

// Determinize compiles spec and fills its table to closure: every state
// reachable from the start, every class, every lookahead. The fills are
// the lazy table's own, so a closed table is the lazy one's fixpoint by
// construction; afterwards conditional rows whose slots all agree collapse
// into their cell, so the loop never row-indexes for them. It fails when
// the grammar does not close within cfg.MaxStates states.
func Determinize(spec *core.Spec, cfg TableConfig) (*Table, error) {
	began := time.Now()
	mem := cfg.MemDelta
	cfg.MemDelta = nil // charge the final table once, not its growth
	t := newTable(compile(spec), cfg)
	t.mu.Lock()
	defer t.mu.Unlock()
	budget := t.cfg.MaxStates
	t.cfg.MaxStates = math.MaxInt // the budget check below fires first
	for s := int32(0); int(s) < t.nStates; s++ {
		for c := 0; c < t.nc; c++ {
			for look := 0; look <= t.nc; look++ {
				if t.g.ref(s*int32(t.nc), c, look) != unfilled {
					continue
				}
				t.compute(s, c, look, nil)
				if t.nStates > budget {
					return nil, fmt.Errorf("stream: determinize: grammar does not close within %d states (MaxStates); use the lazy dfa path", budget)
				}
			}
		}
	}
	t.cfg.MaxStates, t.cfg.MemDelta = budget, mem
	t.compact()
	t.closed, t.closure = true, time.Since(began)
	return t, nil
}

// compact installs a closed table's final, exact-size generation:
// all-equal conditional rows collapse into their cell and identical rows
// share one copy.
func (t *Table) compact() {
	old, w := t.g, t.nc+1
	g := &gen{
		epoch:   old.epoch,
		trans:   make([]int32, t.nStates*t.nc),
		effects: old.effects[:t.nEffects:t.nEffects],
		accel:   old.accel[:t.nStates:t.nStates],
		pairs:   old.pairs[: 2*t.e.words*t.nStates : 2*t.e.words*t.nStates],
	}
	rows := make(map[string]int32)
	for i := range g.trans {
		ref := old.trans[i]
		if ref < 0 && ^ref&1 == 1 {
			row := old.cond[int(^ref>>1):][:w]
			ref = row[0]
			var key []byte
			for _, r := range row {
				if r != row[0] {
					ref = unfilled
				}
				key = append(key, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
			}
			if ref == unfilled {
				k, ok := rows[string(key)]
				if !ok {
					k = condRef(len(g.cond))
					rows[string(key)] = k
					g.cond = append(g.cond, row...)
				}
				ref = k
			}
		}
		g.trans[i] = ref
	}
	t.install(g)
}

// States reports the states of the current epoch; never above MaxStates.
func (t *Table) States() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nStates
}

// MaxStates reports the configured bound.
func (t *Table) MaxStates() int { return t.cfg.MaxStates }

// Stats reports fleet-wide lifetime totals: NFA cycles computed by fills
// (by any runner) and epoch resets forced by MaxStates. N runners of
// identical traffic pay what one would: that is what sharing buys.
func (t *Table) Stats() (fills, resets int64) { return t.fills.Load(), t.resets.Load() }

// CompileStats reports the table as it stands: a lazy table's current
// epoch, or a closed table's whole program. Duration is zero on a lazy
// table, which compiles nothing ahead of time.
func (t *Table) CompileStats() CompileStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return CompileStats{States: t.nStates, Classes: t.nc, TableBytes: int(t.g.size()), Duration: t.closure}
}

// NewRunner mints a stream executor over the table.
func (t *Table) NewRunner() *Runner {
	r := &Runner{t: t}
	r.Reset()
	return r
}

// install makes g the working and published generation and charges the
// change in resident bytes.
func (t *Table) install(g *gen) {
	t.g = g
	t.cur.Store(g)
	if t.cfg.MemDelta != nil {
		n := g.size()
		t.cfg.MemDelta(n - t.charged)
		t.charged = n
	}
}

// grow copies the working generation into one with room for the given
// counts, doubling what is short.
func (t *Table) grow(states, effects, rows int) {
	old, w := t.g, t.nc+1
	states = max(states, len(old.accel))
	effects = max(effects, len(old.effects))
	rows = max(rows, len(old.cond)/w)
	g := &gen{
		epoch:   old.epoch,
		trans:   make([]int32, states*t.nc),
		cond:    make([]int32, rows*w),
		effects: make([]effect, effects),
		accel:   make([]*accel, states),
		pairs:   make([]uint64, 2*t.e.words*states),
	}
	fillUnfilled(g.trans[copy(g.trans, old.trans):])
	fillUnfilled(g.cond[copy(g.cond, old.cond):])
	copy(g.effects, old.effects)
	copy(g.accel, old.accel)
	copy(g.pairs, old.pairs)
	t.install(g)
}

func fillUnfilled(cells []int32) {
	for i := range cells {
		cells[i] = unfilled
	}
}

// reset starts epoch: fresh storage holding only the start state, which is
// written before the generation is published (Runner.Reset reaches it
// without loading a ref).
func (t *Table) reset(epoch int64) {
	const initial = 8
	t.ids = make(map[string]int32)
	t.effIDs = make(map[string]int32)
	t.nStates, t.nEffects, t.nRows = 0, 0, 0
	g := &gen{
		epoch:   epoch,
		trans:   make([]int32, initial*t.nc),
		cond:    make([]int32, initial*(t.nc+1)),
		effects: make([]effect, initial),
		accel:   make([]*accel, initial),
		pairs:   make([]uint64, 2*t.e.words*initial),
	}
	fillUnfilled(g.trans)
	fillUnfilled(g.cond)
	t.g = g
	t.addState(t.e.zeroMask, t.e.startPending)
	t.install(g)
}
