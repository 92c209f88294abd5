package router

import (
	"sync"

	"cfgtag/internal/core"
	"cfgtag/internal/runtime"
)

// sinkVersion is one factory version's decode state: the spec that version's
// backends tag with, and the service-name instance IDs resolved inside it.
// Streams bind exactly one version for their whole life (the pipeline's
// reload guarantee), so each switchCore is built from the version its first
// batch carries.
type sinkVersion struct {
	spec          *core.Spec
	nameInstances map[int]bool
}

// Sink plugs the content-based switch into the sharded runtime pipeline:
// each delivered batch carries a chunk of one stream plus the tags some
// upstream Backend confirmed over it, and the Sink runs one switching core
// per stream. It implements runtime.Sink; Deliver is called from the
// pipeline's single sink goroutine, so stream state needs no locking.
//
// The Sink is version-aware: when the pipeline's factory is hot-swapped
// (Pipeline.SwapFactory), batches keep carrying the version that tagged
// them, and the Sink decodes each stream with that version's spec. Stage a
// new spec with StageVersion before the swap, bind it with CommitVersion
// after, and wire DropVersion into Config.VersionRetired so retired
// versions' specs are released.
type Sink struct {
	nameProduction string
	routes         map[string]int
	defaultPort    int

	// verMu guards the version table: Deliver reads it on the sink
	// goroutine while Stage/Commit/Drop run on the reloading goroutine.
	verMu    sync.RWMutex
	versions map[int]*sinkVersion
	pending  *sinkVersion // staged by StageVersion, not yet bound to an id
	base     *sinkVersion // construction-time fallback for unknown versions

	validateDepth int
	validatePort  int
	validate      bool

	streams map[string]*switchCore
	stats   Stats

	// OnRoute receives every completed message with the stream it came
	// from and its resolved port and service. The message slice is only
	// valid during the call.
	OnRoute func(stream string, port int, service string, message []byte)
}

// NewSink builds a pipeline sink switching on the terminal detected inside
// nameProduction. The spec must be the very spec the pipeline's Backend
// factory was built from (instance IDs must agree); compile it with
// FreeRunningStart so long-lived streams route message after message. The
// spec is registered as factory version 1, the id NewPipeline seeds.
func NewSink(spec *core.Spec, nameProduction string, routes []Route, defaultPort int) (*Sink, error) {
	names, err := resolveNameInstances(spec, nameProduction)
	if err != nil {
		return nil, err
	}
	table, err := buildRouteTable(routes)
	if err != nil {
		return nil, err
	}
	base := &sinkVersion{spec: spec, nameInstances: names}
	s := &Sink{
		nameProduction: nameProduction,
		routes:         table,
		defaultPort:    defaultPort,
		versions:       map[int]*sinkVersion{1: base},
		base:           base,
		streams:        make(map[string]*switchCore),
	}
	s.stats.PerPort = make(map[int]int)
	return s, nil
}

// EnableValidation gives every stream its own section 5.2 stack validator
// (see Router.EnableValidation). Must be called before the first Deliver.
func (s *Sink) EnableValidation(maxDepth, invalidPort int) error {
	// Probe once so a non-LL(1) grammar fails here, not mid-pipeline.
	probe := newSwitchCore(s.base.spec, s.base.nameInstances, s.routes, s.defaultPort, &Stats{PerPort: map[int]int{}})
	if err := probe.enableValidation(maxDepth, invalidPort); err != nil {
		return err
	}
	s.validate = true
	s.validateDepth = maxDepth
	s.validatePort = invalidPort
	return nil
}

// StageVersion prepares a new spec for a factory hot-swap: the service-name
// instances are resolved (and, with validation enabled, the grammar probed)
// now, so a spec the router cannot switch on fails here instead of
// mid-pipeline. Call before Pipeline.SwapFactory; the staged spec decodes
// any batch carrying an unknown version until CommitVersion binds it —
// covering the window where the new version's first batch reaches the sink
// before SwapFactory has returned its id. Reloads must be serialized by the
// caller (one staged version at a time).
func (s *Sink) StageVersion(spec *core.Spec) error {
	names, err := resolveNameInstances(spec, s.nameProduction)
	if err != nil {
		return err
	}
	v := &sinkVersion{spec: spec, nameInstances: names}
	if s.validate {
		probe := newSwitchCore(spec, names, s.routes, s.defaultPort, &Stats{PerPort: map[int]int{}})
		if err := probe.enableValidation(s.validateDepth, s.validatePort); err != nil {
			return err
		}
	}
	s.verMu.Lock()
	s.pending = v
	s.verMu.Unlock()
	return nil
}

// CommitVersion binds the staged spec to the version id SwapFactory
// returned and clears the staging slot. Pass version <= 0 to abort a stage
// whose swap failed.
func (s *Sink) CommitVersion(version int) {
	s.verMu.Lock()
	if s.pending != nil && version > 0 {
		if _, ok := s.versions[version]; !ok {
			s.versions[version] = s.pending
		}
	}
	s.pending = nil
	s.verMu.Unlock()
}

// AddVersion registers a spec under an already-known version id — the
// direct form of StageVersion/CommitVersion for callers that learn the id
// before any of its batches can arrive.
func (s *Sink) AddVersion(version int, spec *core.Spec) error {
	if err := s.StageVersion(spec); err != nil {
		return err
	}
	s.CommitVersion(version)
	return nil
}

// DropVersion forgets a retired version's spec. Wire it into the
// pipeline's Config.VersionRetired: the runtime retires a version only
// after its last stream's final batch has been delivered, so no live
// switchCore still references the dropped spec.
func (s *Sink) DropVersion(version int) {
	s.verMu.Lock()
	delete(s.versions, version)
	s.verMu.Unlock()
}

// versionFor resolves the decode state for a batch's factory version,
// memoizing the staged version under a first-seen id.
func (s *Sink) versionFor(ver int) *sinkVersion {
	s.verMu.RLock()
	v := s.versions[ver]
	pending := s.pending
	s.verMu.RUnlock()
	if v != nil {
		return v
	}
	if pending != nil {
		s.verMu.Lock()
		if existing := s.versions[ver]; existing != nil {
			v = existing
		} else {
			s.versions[ver] = pending
			v = pending
		}
		s.verMu.Unlock()
		return v
	}
	return s.base
}

// Deliver consumes one batch: bytes first, then the tags over them; on EOS
// the stream's core is finished and released. Incomplete final messages
// are counted in Stats rather than failing the pipeline.
func (s *Sink) Deliver(b *runtime.Batch) error {
	w, ok := s.streams[b.Key]
	if !ok {
		v := s.versionFor(b.Version)
		w = newSwitchCore(v.spec, v.nameInstances, s.routes, s.defaultPort, &s.stats)
		if s.validate {
			if err := w.enableValidation(s.validateDepth, s.validatePort); err != nil {
				return err
			}
		}
		key := b.Key
		w.onRoute = func(port int, service string, message []byte) {
			if s.OnRoute != nil {
				s.OnRoute(key, port, service, message)
			}
		}
		s.streams[b.Key] = w
	}
	if len(b.Data) > 0 {
		w.feed(b.Data)
	}
	for _, m := range b.Tags {
		w.consume(m)
	}
	if b.EOS {
		w.finish() // incomplete tail counted in stats
		delete(s.streams, b.Key)
	}
	return nil
}

// Close implements runtime.Sink; open streams have already been flushed by
// the pipeline's synthetic EOS batches.
func (s *Sink) Close() error { return nil }

// Stats returns the routing counters aggregated across all streams. Call
// after the pipeline is closed (or from the sink goroutine).
func (s *Sink) Stats() Stats { return s.stats }
