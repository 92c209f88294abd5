package serve

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"cfgtag"
)

// AppendBatchText renders one batch as newline-delimited events:
//
//	TAG <end> <index> <term> <context>\n     one line per match
//	END <total-tags>\n                       clean end of stream
//	ERR <message>\n                          faulted or evicted end
//
// Every line is prefixed with prefix (the stream key plus a space on
// multiplexed connections, empty on dedicated ones), and the stream's
// cumulative tag count is tracked in *total. It is shared by the live
// outputs and the test oracle, which is what makes "byte-identical to the
// serial oracle" a well-defined assertion.
func AppendBatchText(dst []byte, prefix string, b *cfgtag.TagBatch, total *int) []byte {
	// Reserve the whole batch once, so the per-tag appends below never
	// grow dst: per line the prefix, "TAG ", two numbers of at most 20
	// digits, three separators and the newline, plus the names.
	need := len(b.Tags) * (len(prefix) + 4 + 20 + 1 + 20 + 1 + 1 + 1)
	for i := range b.Tags {
		need += len(b.Tags[i].Term) + len(b.Tags[i].Context)
	}
	dst = slices.Grow(dst, need)
	*total += len(b.Tags)
	for i := range b.Tags {
		m := &b.Tags[i]
		dst = append(dst, prefix...)
		dst = append(dst, "TAG "...)
		dst = appendUint(dst, int(m.End))
		dst = append(dst, ' ')
		dst = appendUint(dst, m.Index)
		dst = append(dst, ' ')
		dst = append(dst, m.Term...)
		dst = append(dst, ' ')
		dst = append(dst, m.Context...)
		dst = append(dst, '\n')
	}
	if !b.EOS {
		return dst
	}
	dst = append(dst, prefix...)
	switch {
	case b.Evicted:
		dst = append(dst, "ERR evicted"...)
	case b.Err != nil:
		dst = append(dst, "ERR "...)
		dst = appendSanitized(dst, b.Err.Error())
	default:
		dst = append(dst, "END "...)
		dst = appendUint(dst, *total)
	}
	return append(dst, '\n')
}

// appendSanitized keeps error text on one line: control bytes (newlines
// included) become spaces, and the text is capped.
func appendSanitized(dst []byte, s string) []byte {
	const maxErrLen = 512
	if len(s) > maxErrLen {
		s = s[:maxErrLen]
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < ' ' || c == 0x7f {
			c = ' '
		}
		dst = append(dst, c)
	}
	return dst
}

// bufferOutput collects a stream's rendered tag events in memory — the
// HTTP input uses it to hold the response body until the stream ends.
type bufferOutput struct {
	mu   sync.Mutex
	data []byte
	tags int
}

func (bo *bufferOutput) Deliver(b *cfgtag.TagBatch) error {
	bo.mu.Lock()
	defer bo.mu.Unlock()
	bo.data = AppendBatchText(bo.data, "", b, &bo.tags)
	return nil
}

// Bytes returns the rendered stream output; call only after the session
// is done.
func (bo *bufferOutput) Bytes() []byte {
	bo.mu.Lock()
	defer bo.mu.Unlock()
	return bo.data
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
			fmt.Fprintf(&b, "cfgtag_dead_letters_total%s %d\n", lbl, f.DeadLetters)
			fmt.Fprintf(&b, "cfgtag_sends_shed_total%s %d\n", lbl, f.SendsShed)
			fmt.Fprintf(&b, "cfgtag_watchdog_trips_total%s %d\n", lbl, f.WatchdogTrips)
			fmt.Fprintf(&b, "cfgtag_resource_exhausted_total%s %d\n", lbl, f.ResourceExhausted)
			fmt.Fprintf(&b, "cfgtag_breaker_opens_total%s %d\n", lbl, f.BreakerOpens)
			fmt.Fprintf(&b, "cfgtag_breaker_sheds_total%s %d\n", lbl, f.BreakerSheds)
			fmt.Fprintf(&b, "cfgtag_breaker_open_workers%s %d\n", lbl, f.BreakerOpenWorkers)
		}
		if vs, err := s.stats.LiveVersions(t); err == nil {
			fmt.Fprintf(&b, "cfgtag_live_versions%s %d\n", lbl, len(vs))
			if len(vs) > 0 {
				fmt.Fprintf(&b, "cfgtag_current_version%s %d\n", lbl, vs[len(vs)-1])
			}
		}
		// AOT compile-cost gauges, only for Stats implementations that
		// expose them and only once the tenant has minted an AOT backend
		// (States is 0 until then, and stays 0 forever on non-AOT tenants).
		if cs, ok := s.stats.(interface {
			CompileStats(string) (cfgtag.CompileStats, error)
		}); ok {
			if st, err := cs.CompileStats(t); err == nil && st.States > 0 {
				fmt.Fprintf(&b, "cfgtag_aot_states%s %d\n", lbl, st.States)
				fmt.Fprintf(&b, "cfgtag_aot_classes%s %d\n", lbl, st.Classes)
				fmt.Fprintf(&b, "cfgtag_aot_table_bytes%s %d\n", lbl, st.TableBytes)
				fmt.Fprintf(&b, "cfgtag_aot_compile_seconds%s %g\n", lbl, st.Duration.Seconds())
			}
		}
	}
	return b.String()
}
