package runtime

import (
	"sync/atomic"

	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// NewFactory compiles spec into the served Factory: the grammar's table,
// holding only the start state until live traffic fills it and bounded by
// stream.DefaultMaxStates (on overflow it starts a new epoch, degrading to
// fill speed, never to unbounded memory). The table is built here, once,
// and shared by every Backend the factory mints, so minting one is cheap.
//
// What the factory holds on lim.Mem — the table as it grows — stays
// charged until release is called, which the owner does when no stream of
// the factory is left: Pipeline.Close, or the retirement of a reloaded
// version. release is never nil and calling it again is a no-op.
func NewFactory(spec *core.Spec, lim Limits) (f Factory, release func(), err error) {
	if err := ValidateLimits(lim); err != nil {
		return nil, nil, err
	}
	mem := lim.Mem
	var charged atomic.Int64
	var charge func(int64) // nil without a gauge, so the table skips the accounting
	if mem != nil {
		charge = func(d int64) { charged.Add(d); mem.Add(d) }
	}
	release = func() { mem.Add(-charged.Swap(0)) }
	return TableFactory(stream.NewTable(spec, stream.TableConfig{MemDelta: charge}), lim), release, nil
}

// TableFactory mints runners of tbl behind the Backend contract, each
// bounded by lim: NewFactory's served table, and the bounded,
// unaccelerated and closed table variants the conformance harness checks
// against it.
func TableFactory(tbl *stream.Table, lim Limits) Factory {
	return func() (Backend, error) {
		return &fsaBackend{run: tbl.NewRunner(), lim: lim}, nil
	}
}
