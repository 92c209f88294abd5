package runtime

import (
	"errors"
	"fmt"
)

// ErrInvalidConfig is the sentinel wrapped by every ConfigError, so
// callers can classify rejection with errors.Is across all config types.
var ErrInvalidConfig = errors.New("runtime: invalid config")

// ConfigError reports one invalid configuration field, naming the field
// and the offending value. It wraps ErrInvalidConfig.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("runtime: invalid config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// Validate is the one range check of every pipeline and quota knob; the
// serving layers (cfgtag's PlatformConfig.Validate among them) convert
// their configs and call it rather than repeat it. Zero values always
// mean "use the default", and the two documented negative switches stay
// legal (BatchBytes < 0 disables coalescing, Quarantine < 0 disables
// quarantining); every other negative value is a typed error instead of
// an accidental no-op or a runtime panic. NewPipeline validates
// implicitly, and also requires a Factory.
func (cfg *Config) Validate() error {
	if cfg.Shards < 0 {
		return &ConfigError{Field: "Shards", Value: cfg.Shards, Reason: "must be >= 0 (0 = GOMAXPROCS)"}
	}
	if cfg.Queue < 0 {
		return &ConfigError{Field: "Queue", Value: cfg.Queue, Reason: "must be >= 0 (0 = default)"}
	}
	if cfg.MaxStreams < 0 {
		return &ConfigError{Field: "MaxStreams", Value: cfg.MaxStreams, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if cfg.SinkWorkers < 0 {
		return &ConfigError{Field: "SinkWorkers", Value: cfg.SinkWorkers, Reason: "must be >= 0 (0 = single worker)"}
	}
	if cfg.SinkAttempts < 0 {
		return &ConfigError{Field: "SinkAttempts", Value: cfg.SinkAttempts, Reason: "must be >= 0 (0 = default, 1 = no retry)"}
	}
	if cfg.SinkBackoff < 0 {
		return &ConfigError{Field: "SinkBackoff", Value: cfg.SinkBackoff, Reason: "must be >= 0 (0 = default)"}
	}
	// SendTimeout: all values are meaningful (0 = block, < 0 = shed
	// immediately, > 0 = bounded wait), so nothing to reject.
	if cfg.FeedDeadline < 0 {
		return &ConfigError{Field: "FeedDeadline", Value: cfg.FeedDeadline, Reason: "must be >= 0 (0 = watchdog disabled)"}
	}
	if cfg.Quota.MaxStreams < 0 {
		return &ConfigError{Field: "Quota.MaxStreams", Value: cfg.Quota.MaxStreams, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if cfg.Quota.BytesPerSec < 0 {
		return &ConfigError{Field: "Quota.BytesPerSec", Value: cfg.Quota.BytesPerSec, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if cfg.Quota.MemBudgetBytes < 0 {
		return &ConfigError{Field: "Quota.MemBudgetBytes", Value: cfg.Quota.MemBudgetBytes, Reason: "must be >= 0 (0 = unlimited)"}
	}
	return nil
}

// ValidateLimits is the range check of Limits, shared by NewFactory and
// the serving layers' config checks.
func ValidateLimits(l Limits) error {
	if n := l.MaxPendingMatches; n < 0 {
		return &ConfigError{Field: "Limits.MaxPendingMatches", Value: n, Reason: "must be >= 0 (0 = unlimited)"}
	}
	return nil
}
