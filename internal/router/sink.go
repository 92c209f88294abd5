package router

import (
	"cfgtag/internal/core"
	"cfgtag/internal/stream"
)

// Sink runs the content-based switch behind a sharded pipeline: each
// delivered batch carries a chunk of one stream, the tags some upstream
// tagger confirmed over it and the spec that tagged them, and the Sink runs
// one switching core per stream. Deliver is called from one goroutine at a
// time (the pipeline's single sink worker), so stream state needs no
// locking.
//
// A stream decodes with the spec its first batch carries. Across a grammar
// reload the streams opened before it keep delivering the old spec, so
// they finish routing on the grammar that tagged their first bytes.
type Sink struct {
	nameProduction string
	routes         map[string]int
	defaultPort    int

	validateDepth int
	validatePort  int
	validate      bool

	// spec and names are the last spec a stream started with and its
	// service-name instances, so a new stream resolves them only when the
	// grammar changed.
	spec  *core.Spec
	names map[int]bool

	streams map[string]*switchCore
	stats   Stats

	// OnRoute receives every completed message with the stream it came
	// from and its resolved port and service. The message slice is only
	// valid during the call.
	OnRoute func(stream string, port int, service string, message []byte)
}

// NewSink builds a pipeline sink switching on the terminal detected inside
// nameProduction of spec, the grammar the pipeline tags with first; compile
// it with FreeRunningStart so long-lived streams route message after
// message.
func NewSink(spec *core.Spec, nameProduction string, routes []Route, defaultPort int) (*Sink, error) {
	names, err := resolveNameInstances(spec, nameProduction)
	if err != nil {
		return nil, err
	}
	table, err := buildRouteTable(routes)
	if err != nil {
		return nil, err
	}
	s := &Sink{
		nameProduction: nameProduction,
		routes:         table,
		defaultPort:    defaultPort,
		spec:           spec,
		names:          names,
		streams:        make(map[string]*switchCore),
	}
	s.stats.PerPort = make(map[int]int)
	return s, nil
}

// EnableValidation gives every stream its own section 5.2 stack validator
// (see Router.EnableValidation). Must be called before the first Deliver.
func (s *Sink) EnableValidation(maxDepth, invalidPort int) error {
	// Probe once so a non-LL(1) grammar fails here, not mid-pipeline.
	probe := newSwitchCore(s.spec, s.names, s.routes, s.defaultPort, &Stats{PerPort: map[int]int{}})
	if err := probe.enableValidation(maxDepth, invalidPort); err != nil {
		return err
	}
	s.validate = true
	s.validateDepth = maxDepth
	s.validatePort = invalidPort
	return nil
}

// Check reports whether the Sink can switch streams tagged with spec: the
// name production must carry a class terminal and, with validation
// enabled, the grammar must be LL(1). Run it before a pipeline tags with
// a new grammar; Deliver fails the same way, but only once the grammar
// is already serving. Safe to call concurrently with Deliver.
func (s *Sink) Check(spec *core.Spec) error {
	names, err := resolveNameInstances(spec, s.nameProduction)
	if err != nil || !s.validate {
		return err
	}
	probe := newSwitchCore(spec, names, s.routes, s.defaultPort, &Stats{PerPort: map[int]int{}})
	return probe.enableValidation(s.validateDepth, s.validatePort)
}

// Deliver consumes one batch of the keyed stream: its bytes first, then
// the tags spec confirmed over them; on eos the stream's core is finished
// and released. Incomplete final messages are counted in Stats rather
// than failing the pipeline.
func (s *Sink) Deliver(key string, spec *core.Spec, data []byte, tags []stream.Match, eos bool) error {
	w, ok := s.streams[key]
	if !ok {
		if spec != s.spec {
			names, err := resolveNameInstances(spec, s.nameProduction)
			if err != nil {
				return err
			}
			s.spec, s.names = spec, names
		}
		w = newSwitchCore(spec, s.names, s.routes, s.defaultPort, &s.stats)
		if s.validate {
			if err := w.enableValidation(s.validateDepth, s.validatePort); err != nil {
				return err
			}
		}
		w.onRoute = func(port int, service string, message []byte) {
			if s.OnRoute != nil {
				s.OnRoute(key, port, service, message)
			}
		}
		s.streams[key] = w
	}
	if len(data) > 0 {
		w.feed(data)
	}
	for _, m := range tags {
		w.consume(m)
	}
	if eos {
		w.finish() // incomplete tail counted in stats
		delete(s.streams, key)
	}
	return nil
}

// Stats returns the routing counters aggregated across all streams. Call
// after the pipeline is closed (or from the sink goroutine).
func (s *Sink) Stats() Stats { return s.stats }
