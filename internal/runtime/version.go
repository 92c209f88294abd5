package runtime

import (
	"fmt"
	"sort"
)

// factoryVersion is one published generation of a pipeline's backend: the
// factory that mints its streams' backends and the sink their batches are
// delivered through. Streams bind the version that is current when their
// backend is created and keep it for life: a SwapFactory never migrates a
// live stream, it only changes what new streams get. The version is
// retired — its sink is closed — when it is no longer current and its last
// stream's final batch has been delivered, so whatever the factory or the
// sink closes over (a shared DFA cache, the grammar its tags decode with)
// is safe to tear down in that Close.
type factoryVersion struct {
	id      int
	factory Factory
	sink    Sink

	// streams counts live bindings. It only increases while the version is
	// current (acquire happens under verMu), so once superseded the count
	// is monotonically non-increasing and zero is final.
	streams int64 // guarded by p.verMu
	retired bool  // guarded by p.verMu
}

// SwapFactory atomically publishes f, with the sink that delivers the
// batches of the streams it creates, as the pipeline's backend and returns
// the new version's id. New streams created after SwapFactory returns bind
// f and sink; live streams keep draining on the version that created their
// backend, with no dropped or reordered batches. The superseded version is
// retired — its Sink.Close is called — once its last stream's final batch
// has been delivered (immediately, when it has no live streams). After
// Close, SwapFactory fails with ErrClosed.
func (p *Pipeline) SwapFactory(f Factory, sink Sink) (int, error) {
	if f == nil || sink == nil {
		return 0, fmt.Errorf("runtime: SwapFactory needs a factory and a sink")
	}
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if p.closed {
		return 0, ErrClosed
	}
	p.verMu.Lock()
	old := p.curVer
	p.nextVerID++
	v := &factoryVersion{id: p.nextVerID, factory: f, sink: sink}
	p.curVer = v
	p.liveVers[v.id] = v
	retire := old.streams == 0 && !old.retired
	if retire {
		old.retired = true
		delete(p.liveVers, old.id)
	}
	p.verMu.Unlock()
	if retire {
		p.closeSink(old)
	}
	return v.id, nil
}

// CurrentVersion reports the id of the factory version new streams bind.
// Version ids start at 1 and increase with every SwapFactory.
func (p *Pipeline) CurrentVersion() int {
	p.verMu.Lock()
	defer p.verMu.Unlock()
	return p.curVer.id
}

// LiveVersions reports the ids of the factory versions not yet retired —
// the current version plus any superseded versions still draining live
// streams — in ascending order. A stable length-1 result after a reload
// proves the old version was fully retired (no factory leak).
func (p *Pipeline) LiveVersions() []int {
	p.verMu.Lock()
	ids := make([]int, 0, len(p.liveVers))
	for id := range p.liveVers {
		ids = append(ids, id)
	}
	p.verMu.Unlock()
	sort.Ints(ids)
	return ids
}

// acquireVersion binds one new stream to the current version.
func (p *Pipeline) acquireVersion() *factoryVersion {
	p.verMu.Lock()
	v := p.curVer
	v.streams++
	p.verMu.Unlock()
	return v
}

// releaseVersion drops one stream binding, retiring the version when it is
// superseded and this was its last stream. Called by the sink worker after
// the stream's final batch is delivered (or dropped on a failed sink) —
// never earlier, so per-version resources outlive every
// batch that references them.
func (p *Pipeline) releaseVersion(v *factoryVersion) {
	p.verMu.Lock()
	v.streams--
	retire := v.streams == 0 && v != p.curVer && !v.retired
	if retire {
		v.retired = true
		delete(p.liveVers, v.id)
	}
	p.verMu.Unlock()
	if retire {
		p.closeSink(v)
	}
}

// closeSink closes a retired version's sink, keeping the first error for
// Close to report.
func (p *Pipeline) closeSink(v *factoryVersion) {
	if err := v.sink.Close(); err != nil {
		p.closeErr.CompareAndSwap(nil, &err)
	}
}
