package cfgtag

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfgtag/internal/runtime"
)

// ErrInvalidConfig is the sentinel wrapped by every configuration
// rejection — PlatformConfig.Validate, Engine.NewPipeline, tenant quotas.
// Test with errors.Is.
var ErrInvalidConfig = runtime.ErrInvalidConfig

// ConfigError names the invalid field behind an ErrInvalidConfig.
type ConfigError = runtime.ConfigError

// ErrUnknownTenant is returned by Platform operations naming a tenant not
// in the config. Test with errors.Is.
var ErrUnknownTenant = errors.New("cfgtag: unknown tenant")

// ErrQuotaExceeded is returned by Platform.Send when the chunk would
// violate the tenant's quota (MaxStreams or BytesPerSec); nothing is
// enqueued. Test with errors.Is.
var ErrQuotaExceeded = runtime.ErrQuotaExceeded

// ErrPlatformClosed is returned by every Platform operation — including
// a second Close — once the platform has been closed. Close is
// idempotent and safe to race: exactly one caller performs the shutdown,
// the rest observe this error. Test with errors.Is.
var ErrPlatformClosed = errors.New("cfgtag: platform closed")

// Duration is a time.Duration that unmarshals from JSON as either a
// number of nanoseconds or a Go duration string ("30s", "1ms", "-1ns").
type Duration time.Duration

// UnmarshalJSON accepts 5000000, "5ms", etc.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// QuotaConfig bounds one tenant's resource consumption; zero values are
// unlimited. MaxStreams rejects a new stream at Send with
// ErrQuotaExceeded (unlike the per-shard MaxStreams knob, which evicts),
// BytesPerSec caps the sustained Send rate with a one-second burst, and
// MemBudgetBytes refuses Sends with ErrResourceExhausted while the
// tenant's gauge — queued chunks and their tag storage, the transition
// table — is at or over budget.
type QuotaConfig = runtime.Quota

// LimitsConfig bounds each stream's backend resources declaratively; see
// StreamLimits for semantics. Zero values are unlimited.
type LimitsConfig struct {
	MaxPendingMatches int `json:"max_pending_matches,omitempty"`
}

// TenantDef declares one tenant in a PlatformConfig: a name, a grammar
// (inline source or a file path), compile options, the execution backend
// and the pipeline/quota knobs. Zero values select the documented
// defaults; Engine.NewPipeline sets only Backend, Shards and Queue.
type TenantDef struct {
	// Name identifies the tenant; required, unique within the config.
	Name string `json:"name"`
	// Grammar is the inline Lex/Yacc-style grammar source. Exactly one of
	// Grammar and GrammarFile must be set.
	Grammar string `json:"grammar,omitempty"`
	// GrammarFile is a path to the grammar source, read at Platform
	// construction; a SIGHUP-style reload re-reads it and passes the text
	// to Reload.
	GrammarFile string `json:"grammar_file,omitempty"`
	// Options are compile options by name: "free-running-start",
	// "no-context-duplication", "no-longest-match", "all-enabled",
	// "recover-restart", "recover-resync".
	Options []string `json:"options,omitempty"`
	// Backend names the execution path. Every tenant runs the same one:
	// the grammar's table, filled on demand and shared by the tenant's
	// streams (one per version across Reloads, discharged from the memory
	// gauge when its version retires). "" (the default), "dfa"
	// and "aot" all select it; the last two stay accepted because configs
	// write them. The reference backends ("stream", "gates", "parser",
	// "earley") are not served: Validate rejects them, naming the
	// single-stream alternative.
	Backend string `json:"backend,omitempty"`
	// Shards is the tenant's pipeline width (0 = GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Queue is each shard's input queue depth in batches (0 = 64).
	Queue int `json:"queue,omitempty"`
	// MaxStreams caps live streams per shard (0 = unlimited), ending the
	// least-recently-fed one with an Evicted batch (its key is refused until
	// delivery); see also Quota.MaxStreams for the rejecting cap.
	MaxStreams int `json:"max_streams,omitempty"`
	// Quarantine is the faulted-stream rejection TTL ("30s"; negative
	// disables, zero selects the default).
	Quarantine Duration `json:"quarantine,omitempty"`
	// BatchBytes is the dispatch-coalescing target (0 = 64 KiB, negative
	// disables coalescing).
	BatchBytes int `json:"batch_bytes,omitempty"`
	// SinkAttempts is the deliver tries per batch, the first included
	// (0 = 3); a batch that spends them fails the pipeline permanently.
	// SinkBackoff is the base retry delay, doubled per retry with jitter
	// (0 = 1ms). SinkWorkers is the number of delivery workers (0 = 1);
	// with more, one stream's batches still arrive in order, but deliver
	// must be safe for concurrent use across streams.
	SinkAttempts int      `json:"sink_attempts,omitempty"`
	SinkBackoff  Duration `json:"sink_backoff,omitempty"`
	SinkWorkers  int      `json:"sink_workers,omitempty"`
	// SendTimeout switches the tenant's Sends from backpressure on a full
	// shard queue to load shedding with ErrOverloaded, which accepts none
	// of the chunk: 0 = block, "-1ns" = shed immediately, positive =
	// bounded wait.
	SendTimeout Duration `json:"send_timeout,omitempty"`
	// FeedDeadline arms the backend watchdog: a Feed or Close call past
	// it ends the stream with ErrBackendStalled and quarantines its key
	// (0 = disabled).
	FeedDeadline Duration `json:"feed_deadline,omitempty"`
	// Limits bounds each stream's backend resources (see LimitsConfig).
	Limits LimitsConfig `json:"limits,omitempty"`
	// Quota bounds the tenant's admission (see QuotaConfig).
	Quota QuotaConfig `json:"quota,omitempty"`
}

// PlatformConfig is the declarative multi-tenant configuration: one
// isolated pipeline per tenant, each with its own grammar, backend and
// governance knobs.
type PlatformConfig struct {
	Tenants []TenantDef `json:"tenants"`

	// WrapFactory, when set, wraps every tenant's backend factory —
	// including the factories published by later Reloads — before it is
	// installed. It is the seam fault-injection and instrumentation
	// harnesses use to sit between the pipeline and the real backends;
	// it is code, not configuration, and never round-trips through JSON.
	WrapFactory func(runtime.Factory) runtime.Factory `json:"-"`
}

// optionByName maps the declarative option names to compile Options.
var optionByName = map[string]Option{
	"free-running-start":     FreeRunningStart(),
	"no-context-duplication": WithoutContextDuplication(),
	"no-longest-match":       WithoutLongestMatch(),
	"all-enabled":            AllEnabled(),
	"recover-restart":        RecoverRestart(),
	"recover-resync":         RecoverResync(),
}

// ParsePlatformConfig decodes a JSON platform configuration strictly:
// unknown fields are errors, so a typo'd knob cannot silently no-op. The
// result is structurally decoded but not yet validated; call Validate (or
// let NewPlatform do both).
func ParsePlatformConfig(data []byte) (*PlatformConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pc PlatformConfig
	if err := dec.Decode(&pc); err != nil {
		return nil, fmt.Errorf("cfgtag: platform config: %w", err)
	}
	// Trailing garbage after the config object is an error too.
	if dec.More() {
		return nil, fmt.Errorf("cfgtag: platform config: trailing data after config object")
	}
	// "options": [] is no options, as an omitted key is, so the config
	// marshals back (empty options are omitted) to the value it decoded to.
	for i := range pc.Tenants {
		if len(pc.Tenants[i].Options) == 0 {
			pc.Tenants[i].Options = nil
		}
	}
	return &pc, nil
}

// Validate checks the config's semantics: at least one tenant, unique
// non-empty names, exactly one grammar source each, known options and a
// served backend. Every pipeline, quota and limits knob is range-checked
// by the runtime on the tenant's converted config, so its ConfigError
// names the Go field ("tenants[0].SinkWorkers",
// "tenants[0].Quota.MemBudgetBytes"). Grammar sources are not compiled
// here (that happens in NewPlatform); every rejection wraps
// ErrInvalidConfig.
func (pc *PlatformConfig) Validate() error {
	if len(pc.Tenants) == 0 {
		return &ConfigError{Field: "tenants", Value: 0, Reason: "at least one tenant is required"}
	}
	seen := make(map[string]bool, len(pc.Tenants))
	for i := range pc.Tenants {
		t := &pc.Tenants[i]
		field := func(name string) string { return fmt.Sprintf("tenants[%d].%s", i, name) }
		if t.Name == "" {
			return &ConfigError{Field: field("name"), Value: t.Name, Reason: "tenant name is required"}
		}
		if seen[t.Name] {
			return &ConfigError{Field: field("name"), Value: t.Name, Reason: "duplicate tenant name"}
		}
		seen[t.Name] = true
		if (t.Grammar == "") == (t.GrammarFile == "") {
			return &ConfigError{Field: field("grammar"), Value: t.Grammar,
				Reason: "exactly one of grammar and grammar_file is required"}
		}
		for _, o := range t.Options {
			if _, ok := optionByName[o]; !ok {
				return &ConfigError{Field: field("options"), Value: o, Reason: "unknown compile option"}
			}
		}
		if err := t.check(field(""), field("backend")); err != nil {
			return err
		}
	}
	return nil
}

// check is the per-tenant knob check Validate and Engine.NewPipeline
// share: a served backend, named backendField when refused, then every
// pipeline, quota and limits knob, range-checked by the runtime on the one
// conversion and named with prefix.
func (t *TenantDef) check(prefix, backendField string) error {
	if err := checkServed(BackendKind(t.Backend), backendField); err != nil {
		return err
	}
	rc := t.pipelineConfig()
	err := rc.Validate()
	if err == nil {
		err = runtime.ValidateLimits(t.limits(nil))
	}
	if ce, ok := err.(*ConfigError); ok {
		ce.Field = prefix + ce.Field
	}
	return err
}

// options resolves the tenant's named compile options.
func (t *TenantDef) options() []Option {
	opts := make([]Option, 0, len(t.Options))
	for _, name := range t.Options {
		opts = append(opts, optionByName[name])
	}
	return opts
}

// pipelineConfig is the runtime.Config of the tenant's pipeline and quota
// knobs — the one conversion check validates and NewPlatform and
// Engine.NewPipeline start. The factory, metrics and gauge are the
// caller's.
func (t *TenantDef) pipelineConfig() runtime.Config {
	return runtime.Config{
		Shards:       t.Shards,
		Queue:        t.Queue,
		MaxStreams:   t.MaxStreams,
		Quarantine:   time.Duration(t.Quarantine),
		BatchBytes:   t.BatchBytes,
		SinkAttempts: t.SinkAttempts,
		SinkBackoff:  time.Duration(t.SinkBackoff),
		SinkWorkers:  t.SinkWorkers,
		SendTimeout:  time.Duration(t.SendTimeout),
		FeedDeadline: time.Duration(t.FeedDeadline),
		Quota:        t.Quota,
	}
}

// limits is the tenant's per-stream limits, charging mem.
func (t *TenantDef) limits(mem *MemGauge) StreamLimits {
	return StreamLimits{MaxPendingMatches: t.Limits.MaxPendingMatches, Mem: mem}
}

// grammarSource returns the tenant's grammar text, reading GrammarFile
// when the source is file-based.
func (t *TenantDef) grammarSource() (string, error) {
	if t.Grammar != "" {
		return t.Grammar, nil
	}
	b, err := os.ReadFile(t.GrammarFile)
	if err != nil {
		return "", fmt.Errorf("cfgtag: tenant %q: %w", t.Name, err)
	}
	return string(b), nil
}

// platformTenant is one tenant: its definition, its pipeline, the
// counters and memory gauge that pipeline charges, and what every factory
// version of it is built from. Each version decodes its batches with its
// own engine (see versionSink), so a batch tagged by the old grammar
// decodes with the old engine throughout a reload.
type platformTenant struct {
	def  TenantDef
	pipe *runtime.Pipeline
	mc   *runtime.MetricCounters
	mem  *MemGauge // nil without a memory budget
	// lim bounds every factory version: the tenant's resolved limits,
	// memory gauge included.
	lim StreamLimits
	// deliver hands a batch to the platform's callback with the tenant's
	// name.
	deliver func(*TagBatch) error

	// reloadMu serializes Reloads; src is the grammar text the current
	// version was compiled from.
	reloadMu sync.Mutex
	src      string
}

// Platform is the config-driven multi-tenant runtime: one isolated
// pipeline per tenant, declarative construction from a PlatformConfig,
// zero-downtime grammar reloads, and per-tenant metrics and quotas. All
// methods are safe for concurrent use.
type Platform struct {
	wrap    func(runtime.Factory) runtime.Factory
	tenants map[string]*platformTenant // written only by NewPlatform
	closed  atomic.Bool
}

// NewPlatform validates cfg, compiles every tenant's grammar and starts
// the per-tenant pipelines. deliver receives every tag batch with the
// originating tenant's name; like Pipeline's deliver, it must not retain
// b, b.Data or b.Tags past the call (the batch is pooled, see TagBatch),
// and per-stream batches arrive in order.
func NewPlatform(cfg *PlatformConfig, deliver func(tenant string, b *TagBatch) error) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("cfgtag: NewPlatform: deliver is required")
	}
	p := &Platform{wrap: cfg.WrapFactory, tenants: make(map[string]*platformTenant)}
	for i := range cfg.Tenants {
		def := cfg.Tenants[i]
		if err := p.addTenant(def, deliver); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *Platform) addTenant(def TenantDef, deliver func(string, *TagBatch) error) error {
	src, err := def.grammarSource()
	if err != nil {
		return err
	}
	engine, err := Compile(def.Name, src, def.options()...)
	if err != nil {
		return fmt.Errorf("cfgtag: tenant %q: %w", def.Name, err)
	}
	// One gauge per tenant, shared by the factory (the table), the pipeline
	// (arenas) and the quota check at Send.
	var mem *MemGauge
	if def.Quota.MemBudgetBytes > 0 {
		mem = &MemGauge{}
	}
	pt := &platformTenant{
		def:     def,
		mc:      &runtime.MetricCounters{},
		mem:     mem,
		lim:     def.limits(mem),
		deliver: func(b *TagBatch) error { return deliver(def.Name, b) },
		src:     src,
	}
	cfg := def.pipelineConfig()
	cfg.Metrics = pt.mc
	if pt.pipe, err = engine.startPipeline(cfg, pt.lim, p.wrap, pt.deliver); err != nil {
		return fmt.Errorf("cfgtag: tenant %q: %w", def.Name, err)
	}
	p.tenants[def.Name] = pt
	return nil
}

// lookup resolves a tenant by name; it answers after Close too, so the
// read accessors keep reporting a closed platform's final totals.
func (p *Platform) lookup(name string) (*platformTenant, error) {
	pt, ok := p.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return pt, nil
}

// tenant resolves a tenant for an operation that feeds or changes it:
// after Close it fails with ErrPlatformClosed.
func (p *Platform) tenant(name string) (*platformTenant, error) {
	if p.closed.Load() {
		return nil, ErrPlatformClosed
	}
	return p.lookup(name)
}

// Send routes one chunk of the keyed stream to the tenant's pipeline,
// enforcing the tenant's quotas (ErrQuotaExceeded) before anything is
// enqueued. After Close it fails with ErrPlatformClosed; a Send racing
// Close fails with ErrPlatformClosed or ErrPipelineClosed.
func (p *Platform) Send(tenant, stream string, data []byte) error {
	pt, err := p.tenant(tenant)
	if err != nil {
		return err
	}
	return pt.pipe.Send(stream, data)
}

// CloseStream ends one stream of the tenant; its final batch is delivered
// with EOS set. After Close it fails like Send.
func (p *Platform) CloseStream(tenant, stream string) error {
	pt, err := p.tenant(tenant)
	if err != nil {
		return err
	}
	return pt.pipe.CloseStream(stream)
}

// Reload compiles grammarSrc with the tenant's configured options and
// backend and publishes it as a new factory version — a zero-downtime
// grammar swap. Streams already live keep their old grammar (their
// batches keep decoding with the old engine, stamped with the old
// Version); streams that start after Reload returns run the new grammar.
// The old version's resources are torn down when its last stream's final
// batch has been delivered. Returns the new version id.
//
// The platform remembers the grammar text each tenant runs: a Reload with
// that same text is not a new version. It compiles nothing, publishes
// nothing, keeps the warm table and returns the current version id, so a
// caller may reload every tenant whenever its source might have changed.
// Reloads of one tenant are serialized.
func (p *Platform) Reload(tenant, grammarSrc string) (int, error) {
	pt, err := p.tenant(tenant)
	if err != nil {
		return 0, err
	}
	pt.reloadMu.Lock()
	defer pt.reloadMu.Unlock()
	if grammarSrc == pt.src {
		return pt.pipe.CurrentVersion(), nil
	}
	engine, err := Compile(tenant, grammarSrc, pt.def.options()...)
	if err != nil {
		return 0, fmt.Errorf("cfgtag: tenant %q: %w", tenant, err)
	}
	factory, sink, err := engine.newVersion(pt.lim, p.wrap, pt.deliver)
	if err != nil {
		return 0, fmt.Errorf("cfgtag: tenant %q: %w", tenant, err)
	}
	v, err := pt.pipe.SwapFactory(factory, sink)
	if err != nil {
		sink.Close()
		return 0, err
	}
	pt.src = grammarSrc
	return v, nil
}

// Tenants reports the tenant names in sorted order.
func (p *Platform) Tenants() []string {
	names := make([]string, 0, len(p.tenants))
	for n := range p.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Metrics reports the tenant's observability totals and its queue-depth
// high-water mark; after Close, the final totals.
func (p *Platform) Metrics(tenant string) (BackendCounters, int, error) {
	pt, err := p.lookup(tenant)
	if err != nil {
		return BackendCounters{}, 0, err
	}
	c, q := pt.mc.Snapshot()
	return c, q, nil
}

// Faults reports the tenant's fault-tolerance totals.
func (p *Platform) Faults(tenant string) (FaultStats, error) {
	pt, err := p.lookup(tenant)
	if err != nil {
		return FaultStats{}, err
	}
	return pt.mc.Faults(), nil
}

// LiveStreams reports the tenant's admitted live-stream count (tracked
// only when the tenant has a MaxStreams quota).
func (p *Platform) LiveStreams(tenant string) (int, error) {
	pt, err := p.lookup(tenant)
	if err != nil {
		return 0, err
	}
	return pt.pipe.LiveStreams(), nil
}

// MemUsage reports the tenant's estimated live bytes — the gauge the
// mem_budget_bytes quota reads. Always zero for tenants without a memory
// budget (no gauge is installed).
func (p *Platform) MemUsage(tenant string) (int64, error) {
	pt, err := p.lookup(tenant)
	if err != nil {
		return 0, err
	}
	return pt.mem.Load(), nil
}

// CurrentVersion reports the factory version new streams of the tenant
// bind (1 until the first Reload).
func (p *Platform) CurrentVersion(tenant string) (int, error) {
	pt, err := p.lookup(tenant)
	if err != nil {
		return 0, err
	}
	return pt.pipe.CurrentVersion(), nil
}

// LiveVersions reports the tenant's not-yet-retired factory versions in
// ascending order; length 1 means no old version is still draining.
func (p *Platform) LiveVersions(tenant string) ([]int, error) {
	pt, err := p.lookup(tenant)
	if err != nil {
		return nil, err
	}
	return pt.pipe.LiveVersions(), nil
}

// Close shuts every tenant pipeline down, in name order — flushing open
// streams and delivering their EOS batches, then retiring every version,
// so MemUsage reads 0 afterwards — and returns the first error. Close is
// idempotent: exactly one caller (even under a race) performs the
// shutdown; every later or losing call returns ErrPlatformClosed without
// touching the pipelines. The read accessors keep answering afterwards.
func (p *Platform) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return ErrPlatformClosed
	}
	var first error
	for _, name := range p.Tenants() {
		if err := p.tenants[name].pipe.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
