package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cfgtag/internal/stream"
)

// ErrUnknownTenant is returned by Registry operations naming a tenant that
// was never added (or was removed). Test with errors.Is.
var ErrUnknownTenant = errors.New("runtime: unknown tenant")

// ErrTenantExists is returned by Registry.Add when the tenant name is
// already registered. Test with errors.Is.
var ErrTenantExists = errors.New("runtime: tenant already exists")

// ErrQuotaExceeded is returned by Registry.Send when admitting the chunk
// would violate the tenant's Quota — a new stream past MaxStreams, or
// bytes past the BytesPerSec token bucket. The rejection is non-blocking
// and cheap: nothing is enqueued, and the caller decides whether to shed
// or retry later. Test with errors.Is.
var ErrQuotaExceeded = errors.New("runtime: tenant quota exceeded")

// Quota bounds one tenant's resource consumption. The zero value is
// unlimited.
type Quota struct {
	// MaxStreams caps the tenant's concurrently live streams (0 =
	// unlimited). Unlike Config.MaxStreams — a per-shard cap that evicts
	// the least-recently-active stream — the tenant quota rejects the new
	// stream at Send with ErrQuotaExceeded and touches nothing live.
	MaxStreams int
	// BytesPerSec caps the tenant's sustained Send byte rate (0 =
	// unlimited) with a token bucket holding one second of burst. Sends
	// beyond the rate fail with ErrQuotaExceeded rather than blocking.
	BytesPerSec int64
	// MemBudgetBytes caps the tenant's estimated live memory (0 =
	// unlimited), accounted on the pipeline's MemGauge across dispatch
	// units (chunk arenas and the tag buffers queued with them), dfa cache
	// states and aot tables. A Send arriving while the tenant is over
	// budget fails with ErrResourceExhausted and nothing is enqueued;
	// existing streams drain normally, releasing memory. Add installs a
	// gauge on the tenant's Config.Mem when one is not already set.
	MemBudgetBytes int64
}

// validate rejects negative quotas with typed errors.
func (q Quota) validate() error {
	if q.MaxStreams < 0 {
		return &ConfigError{Field: "Quota.MaxStreams", Value: q.MaxStreams, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if q.BytesPerSec < 0 {
		return &ConfigError{Field: "Quota.BytesPerSec", Value: q.BytesPerSec, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if q.MemBudgetBytes < 0 {
		return &ConfigError{Field: "Quota.MemBudgetBytes", Value: q.MemBudgetBytes, Reason: "must be >= 0 (0 = unlimited)"}
	}
	return nil
}

// Tenant declares one isolated pipeline in a Registry: a name, the full
// pipeline Config (backend factory, shards, batching and fault knobs) and
// the admission Quota. Tenants share nothing at runtime except the
// process: each gets its own shard group, its own backend-factory version
// chain and its own quarantine state.
type Tenant struct {
	Name   string
	Config Config
	Quota  Quota
}

// tenantState is one live tenant: its pipeline, its registry-owned
// metrics, and its quota trackers.
type tenantState struct {
	tenant Tenant
	p      *Pipeline
	mc     *MetricCounters

	// liveMu guards live, the set of stream keys admitted and not yet
	// ended (their EOS batch not yet delivered). Maintained only when
	// Quota.MaxStreams > 0.
	liveMu sync.Mutex
	live   map[string]struct{}

	bucket *tokenBucket // nil when BytesPerSec is unlimited
	mem    *MemGauge    // the pipeline's gauge; nil when no budget and none configured
}

// Registry is the multi-tenant front door: it owns one Pipeline per
// Tenant and routes (tenant, key) traffic to the right shard group, with
// per-tenant admission quotas, per-tenant metrics and per-tenant
// zero-downtime factory swaps. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*tenantState
	closed  bool
}

// NewRegistry returns an empty registry; add tenants with Add.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*tenantState)}
}

// Add registers t and starts its pipeline, delivering its batches to
// sink. The tenant's Config is validated (typed ConfigError wrapping
// ErrInvalidConfig); its Hooks, when set, observe the tenant's events
// alongside the registry's own metrics.
func (r *Registry) Add(t Tenant, sink Sink) error {
	if t.Name == "" {
		return &ConfigError{Field: "Name", Value: t.Name, Reason: "tenant name is required"}
	}
	if err := t.Quota.validate(); err != nil {
		return err
	}
	ts := &tenantState{tenant: t, mc: &MetricCounters{}}
	if t.Quota.MaxStreams > 0 {
		ts.live = make(map[string]struct{})
	}
	if t.Quota.BytesPerSec > 0 {
		ts.bucket = newTokenBucket(t.Quota.BytesPerSec)
	}
	cfg := t.Config
	cfg.Hooks = chainHooks(ts.mc.Hooks(), t.Config.Hooks)
	if t.Quota.MemBudgetBytes > 0 && cfg.Mem == nil {
		cfg.Mem = &MemGauge{}
	}
	ts.mem = cfg.Mem
	var s Sink = sink
	if ts.live != nil {
		s = &tenantSink{ts: ts, inner: sink}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.tenants[t.Name]; ok {
		return fmt.Errorf("%w: %q", ErrTenantExists, t.Name)
	}
	p, err := NewPipeline(cfg, s)
	if err != nil {
		return err
	}
	ts.p = p
	r.tenants[t.Name] = ts
	return nil
}

// Remove closes the named tenant's pipeline — flushing its open streams
// and delivering their EOS batches — and forgets it.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	ts, ok := r.tenants[name]
	if ok {
		delete(r.tenants, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return ts.p.Close()
}

// Tenants reports the registered tenant names in sorted order.
func (r *Registry) Tenants() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

func (r *Registry) state(tenant string) (*tenantState, error) {
	r.mu.RLock()
	ts, ok := r.tenants[tenant]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	return ts, nil
}

// Send routes one chunk to the tenant's pipeline, enforcing the tenant's
// admission quotas first: a chunk that would exceed BytesPerSec, or open a
// stream past MaxStreams, fails with ErrQuotaExceeded and nothing is
// enqueued.
func (r *Registry) Send(tenant, key string, data []byte) error {
	ts, err := r.state(tenant)
	if err != nil {
		return err
	}
	if ts.bucket != nil && !ts.bucket.take(len(data)) {
		return fmt.Errorf("%w: tenant %q over %d bytes/sec", ErrQuotaExceeded, tenant, ts.tenant.Quota.BytesPerSec)
	}
	if bb := ts.tenant.Quota.MemBudgetBytes; bb > 0 && ts.mem.Load() >= bb {
		return fmt.Errorf("%w: tenant %q over %d-byte memory budget", ErrResourceExhausted, tenant, bb)
	}
	added, err := ts.admit(key)
	if err != nil {
		return err
	}
	if err := ts.p.Send(key, data); err != nil {
		if added {
			ts.release(key)
		}
		return err
	}
	return nil
}

// CloseStream ends one stream of the tenant.
func (r *Registry) CloseStream(tenant, key string) error {
	ts, err := r.state(tenant)
	if err != nil {
		return err
	}
	return ts.p.CloseStream(key)
}

// Swap publishes a new backend factory for the tenant — a zero-downtime
// grammar reload. New streams bind the new version; live streams drain on
// the old one, which is retired (Hooks.VersionRetired) when its last
// stream's final batch is delivered.
func (r *Registry) Swap(tenant string, f Factory) (int, error) {
	ts, err := r.state(tenant)
	if err != nil {
		return 0, err
	}
	return ts.p.SwapFactory(f)
}

// Pipeline exposes the tenant's pipeline for advanced use (version
// inspection, Err). It remains owned by the registry: do not Close it.
func (r *Registry) Pipeline(tenant string) (*Pipeline, error) {
	ts, err := r.state(tenant)
	if err != nil {
		return nil, err
	}
	return ts.p, nil
}

// Counters reports the tenant's metric totals and queue high-water mark.
func (r *Registry) Counters(tenant string) (Counters, int, error) {
	ts, err := r.state(tenant)
	if err != nil {
		return Counters{}, 0, err
	}
	c, q := ts.mc.Snapshot()
	return c, q, nil
}

// CompileStats reports the tenant's most recent AOT synthesis report:
// zero until an aot backend is minted, then the current program's states,
// classes, table bytes and compile duration (rewritten on each reload).
func (r *Registry) CompileStats(tenant string) (stream.CompileStats, error) {
	ts, err := r.state(tenant)
	if err != nil {
		return stream.CompileStats{}, err
	}
	return ts.mc.Compile(), nil
}

// Faults reports the tenant's fault-tolerance totals.
func (r *Registry) Faults(tenant string) (FaultStats, error) {
	ts, err := r.state(tenant)
	if err != nil {
		return FaultStats{}, err
	}
	return ts.mc.Faults(), nil
}

// MemUsage reports the tenant's current estimated memory (0 when no
// gauge is configured).
func (r *Registry) MemUsage(tenant string) (int64, error) {
	ts, err := r.state(tenant)
	if err != nil {
		return 0, err
	}
	return ts.mem.Load(), nil
}

// LiveStreams reports the tenant's currently admitted stream count. It is
// only tracked when Quota.MaxStreams > 0 (otherwise 0).
func (r *Registry) LiveStreams(tenant string) (int, error) {
	ts, err := r.state(tenant)
	if err != nil {
		return 0, err
	}
	if ts.live == nil {
		return 0, nil
	}
	ts.liveMu.Lock()
	n := len(ts.live)
	ts.liveMu.Unlock()
	return n, nil
}

// Close shuts every tenant pipeline down and returns the first error.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.closed = true
	tenants := r.tenants
	r.tenants = make(map[string]*tenantState)
	r.mu.Unlock()
	var first error
	// Deterministic order, mostly for tests.
	names := make([]string, 0, len(tenants))
	for n := range tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := tenants[n].p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// admit records key as a live stream, rejecting past MaxStreams. added
// reports whether this call inserted the key (so a failed Send can undo
// it).
func (ts *tenantState) admit(key string) (added bool, err error) {
	if ts.live == nil {
		return false, nil
	}
	ts.liveMu.Lock()
	defer ts.liveMu.Unlock()
	if _, ok := ts.live[key]; ok {
		return false, nil
	}
	if len(ts.live) >= ts.tenant.Quota.MaxStreams {
		return false, fmt.Errorf("%w: tenant %q at %d live streams", ErrQuotaExceeded, ts.tenant.Name, ts.tenant.Quota.MaxStreams)
	}
	ts.live[key] = struct{}{}
	return true, nil
}

// release forgets a live stream key (idempotent).
func (ts *tenantState) release(key string) {
	ts.liveMu.Lock()
	delete(ts.live, key)
	ts.liveMu.Unlock()
}

// tenantSink observes stream ends on the delivery path: every EOS batch —
// normal close, fault, eviction or pipeline shutdown — frees the key's
// MaxStreams slot. Wrapping the sink (rather than hooking dispatch) makes
// the release exact: the slot opens only after the stream's final batch is
// out, so a key is never double-counted live.
type tenantSink struct {
	ts    *tenantState
	inner Sink
}

func (s *tenantSink) Deliver(b *Batch) error {
	err := s.inner.Deliver(b)
	if b.EOS {
		// Released even when Deliver errors: retries redeliver the same
		// batch and release is idempotent, while a dead-lettered final
		// batch must still free the slot.
		s.ts.release(b.Key)
	}
	return err
}

func (s *tenantSink) Close() error { return s.inner.Close() }

// chainHooks fans every event out to both hook sets (either may be nil).
func chainHooks(a, b *Hooks) *Hooks {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Hooks{
		Bytes:          func(shard, n int) { a.bytes(shard, n); b.bytes(shard, n) },
		Matches:        func(shard, n int) { a.matches(shard, n); b.matches(shard, n) },
		Recovery:       func(shard int, pos int64) { a.recovery(shard, pos); b.recovery(shard, pos) },
		Collision:      func(shard int, pos int64, x, y int) { a.collision(shard, pos, x, y); b.collision(shard, pos, x, y) },
		QueueDepth:     func(shard, depth int) { a.queueDepth(shard, depth); b.queueDepth(shard, depth) },
		CacheStats:     func(shard int, h, m, rs int64) { a.cacheStats(shard, h, m, rs); b.cacheStats(shard, h, m, rs) },
		CompileStats:   func(shard int, s stream.CompileStats) { a.compileStats(shard, s); b.compileStats(shard, s) },
		PanicRecovered: func(shard int, origin string) { a.panicRecovered(shard, origin); b.panicRecovered(shard, origin) },
		Quarantined:    func(shard int, key string) { a.quarantined(shard, key); b.quarantined(shard, key) },
		Evicted:        func(shard int, key string) { a.evicted(shard, key); b.evicted(shard, key) },
		SinkRetry:      func(attempt int, err error) { a.sinkRetry(attempt, err); b.sinkRetry(attempt, err) },
		DeadLetter:     func(key string, err error) { a.deadLetter(key, err); b.deadLetter(key, err) },
		VersionRetired: func(v int) { a.versionRetired(v); b.versionRetired(v) },
		Overloaded:     func(shard int, key string) { a.overloaded(shard, key); b.overloaded(shard, key) },
		Watchdog: func(shard int, key, origin string, el time.Duration) {
			a.watchdog(shard, key, origin, el)
			b.watchdog(shard, key, origin, el)
		},
		ResourceExhausted: func(shard int, key string) { a.resourceExhausted(shard, key); b.resourceExhausted(shard, key) },
		Breaker:           func(worker int, open bool) { a.breaker(worker, open); b.breaker(worker, open) },
		BreakerShed:       func(worker int, key string) { a.breakerShed(worker, key); b.breakerShed(worker, key) },
	}
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
