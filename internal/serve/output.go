package serve

import (
	"fmt"
	"strings"

	"cfgtag"
)

// bufferOutput collects a stream's rendered tag events in memory — the
// HTTP input uses it to hold the response body until the stream ends. The
// server delivers one session's batches under the session's lock, and data
// is read after the session is done.
type bufferOutput struct {
	data []byte
	tags int
}

func (bo *bufferOutput) Deliver(b *cfgtag.TagBatch) error {
	bo.data = b.AppendText(bo.data, "", &bo.tags)
	return nil
}

// MetricsText renders the /metrics payload: flat text key/value lines,
// one per counter, labeled Prometheus-style with the tenant name. No
// third-party exposition library — the format is greppable and stable.
func (s *Server) MetricsText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve_sessions_active %d\n", s.ActiveSessions())
	fmt.Fprintf(&b, "serve_sessions_opened_total %d\n", s.opened.Load())
	fmt.Fprintf(&b, "serve_sessions_ended_total %d\n", s.ended.Load())
	fmt.Fprintf(&b, "serve_refused_total %d\n", s.refused.Load())
	fmt.Fprintf(&b, "serve_output_write_errors_total %d\n", s.writeErrors.Load())
	fmt.Fprintf(&b, "serve_slow_consumers_total %d\n", s.slowConsumers.Load())
	fmt.Fprintf(&b, "serve_output_writes_total %d\n", s.outWrites.Load())
	fmt.Fprintf(&b, "serve_output_bytes_total %d\n", s.outBytes.Load())
	draining := 0
	if s.Draining() {
		draining = 1
	}
	fmt.Fprintf(&b, "serve_draining %d\n", draining)
	if s.stats == nil {
		return b.String()
	}
	for _, t := range s.stats.Tenants() {
		c, depth, err := s.stats.Metrics(t)
		if err != nil {
			continue
		}
		lbl := fmt.Sprintf("{tenant=%q}", t)
		fmt.Fprintf(&b, "cfgtag_bytes_total%s %d\n", lbl, c.Bytes)
		fmt.Fprintf(&b, "cfgtag_matches_total%s %d\n", lbl, c.Matches)
		fmt.Fprintf(&b, "cfgtag_recoveries_total%s %d\n", lbl, c.Recoveries)
		fmt.Fprintf(&b, "cfgtag_collisions_total%s %d\n", lbl, c.Collisions)
		fmt.Fprintf(&b, "cfgtag_cache_hits_total%s %d\n", lbl, c.CacheHits)
		fmt.Fprintf(&b, "cfgtag_cache_misses_total%s %d\n", lbl, c.CacheMisses)
		fmt.Fprintf(&b, "cfgtag_cache_resets_total%s %d\n", lbl, c.CacheResets)
		fmt.Fprintf(&b, "cfgtag_queue_depth_max%s %d\n", lbl, depth)
		if f, err := s.stats.Faults(t); err == nil {
			fmt.Fprintf(&b, "cfgtag_panics_recovered_total%s %d\n", lbl, f.PanicsRecovered)
			fmt.Fprintf(&b, "cfgtag_streams_quarantined_total%s %d\n", lbl, f.StreamsQuarantined)
			fmt.Fprintf(&b, "cfgtag_streams_evicted_total%s %d\n", lbl, f.StreamsEvicted)
			fmt.Fprintf(&b, "cfgtag_sink_retries_total%s %d\n", lbl, f.SinkRetries)
			fmt.Fprintf(&b, "cfgtag_sends_shed_total%s %d\n", lbl, f.SendsShed)
			fmt.Fprintf(&b, "cfgtag_watchdog_trips_total%s %d\n", lbl, f.WatchdogTrips)
			fmt.Fprintf(&b, "cfgtag_resource_exhausted_total%s %d\n", lbl, f.ResourceExhausted)
		}
		if vs, err := s.stats.LiveVersions(t); err == nil {
			fmt.Fprintf(&b, "cfgtag_live_versions%s %d\n", lbl, len(vs))
			if len(vs) > 0 {
				fmt.Fprintf(&b, "cfgtag_current_version%s %d\n", lbl, vs[len(vs)-1])
			}
		}
	}
	return b.String()
}
