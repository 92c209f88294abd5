package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQuotaExceeded is returned by Send when admitting the chunk would
// violate Config.Quota — a new stream past MaxStreams, or bytes past the
// BytesPerSec token bucket. The rejection is non-blocking and cheap:
// nothing is enqueued, and the caller decides whether to shed or retry
// later. Test with errors.Is.
var ErrQuotaExceeded = errors.New("runtime: tenant quota exceeded")

// Quota bounds one pipeline's admission — in a multi-tenant process, one
// tenant's resource consumption. The zero value is unlimited. The JSON
// tags are the keys of a platform tenant's "quota" object.
type Quota struct {
	// MaxStreams caps the concurrently live streams (0 = unlimited).
	// Unlike Config.MaxStreams — a per-shard cap that evicts the
	// least-recently-active stream — the quota rejects the new stream at
	// Send with ErrQuotaExceeded and touches nothing live. A stream holds
	// its slot until its final batch leaves the sink worker, however it
	// ended.
	MaxStreams int `json:"max_streams,omitempty"`
	// BytesPerSec caps the sustained Send byte rate (0 = unlimited) with a
	// token bucket holding one second of burst. Sends beyond the rate fail
	// with ErrQuotaExceeded rather than blocking.
	BytesPerSec int64 `json:"bytes_per_sec,omitempty"`
	// MemBudgetBytes caps the estimated live memory on Config.Mem (0 =
	// unlimited): dispatch units (chunk arenas and the tag buffers queued
	// with them) and the table's states. A Send arriving while the gauge
	// is at or over budget fails with ErrResourceExhausted and nothing is
	// enqueued; existing streams drain normally, releasing memory.
	// NewPipeline installs a gauge when Config.Mem is nil.
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// admitQuota runs the Config.Quota checks for one non-EOS message, in
// order: the token bucket, the memory budget, the live-stream slot. added
// reports whether key took a new slot, which a refusal further down
// dispatch gives back.
func (p *Pipeline) admitQuota(key string, n int) (added bool, err error) {
	if p.bucket != nil && !p.bucket.take(n) {
		return false, fmt.Errorf("%w: over %d bytes/sec", ErrQuotaExceeded, p.cfg.Quota.BytesPerSec)
	}
	if bb := p.cfg.Quota.MemBudgetBytes; bb > 0 && p.cfg.Mem.Load() >= bb {
		return false, fmt.Errorf("%w: over %d-byte memory budget", ErrResourceExhausted, bb)
	}
	if p.live == nil {
		return false, nil
	}
	return p.live.admit(key)
}

// LiveStreams reports the streams holding a Quota.MaxStreams slot:
// admitted, and their final batch not yet through the sink worker. Always
// 0 when MaxStreams is unlimited (nothing is tracked).
func (p *Pipeline) LiveStreams() int {
	if p.live == nil {
		return 0
	}
	p.live.mu.Lock()
	defer p.live.mu.Unlock()
	return len(p.live.keys)
}

// liveSet is the Quota.MaxStreams tracker: the stream keys admitted by
// dispatch and not yet released by the sink worker.
type liveSet struct {
	mu   sync.Mutex
	max  int
	keys map[string]struct{}
}

// admit records key as live, rejecting a new key past max. added reports
// whether this call inserted the key.
func (ls *liveSet) admit(key string) (added bool, err error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if _, ok := ls.keys[key]; ok {
		return false, nil
	}
	if len(ls.keys) >= ls.max {
		return false, fmt.Errorf("%w: at %d live streams", ErrQuotaExceeded, ls.max)
	}
	ls.keys[key] = struct{}{}
	return true, nil
}

// release forgets a live key (idempotent).
func (ls *liveSet) release(key string) {
	ls.mu.Lock()
	delete(ls.keys, key)
	ls.mu.Unlock()
}

// tokenBucket is a non-blocking rate limiter: rate tokens (bytes) per
// second with a one-second burst, refilled lazily on take.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(bytesPerSec int64) *tokenBucket {
	r := float64(bytesPerSec)
	return &tokenBucket{rate: r, burst: r, tokens: r, last: time.Now()}
}

// take consumes n tokens if available, refilling from elapsed time first.
func (b *tokenBucket) take(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if float64(n) > b.tokens {
		return false
	}
	b.tokens -= float64(n)
	return true
}
