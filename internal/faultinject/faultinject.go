// Package faultinject wraps runtime Backends and Sinks with configurable
// fault injection — errors, panics and latency — so the pipeline's
// fault-tolerance layer (panic isolation, stream quarantine, sink retry)
// can be exercised deterministically in tests and demos.
//
// Faults come in two flavors:
//
//   - rate-based: each Feed rolls a seeded per-backend RNG against the
//     configured probabilities, giving statistically even coverage on
//     soak workloads;
//   - trigger-based: in-band byte markers (TriggerPanic, TriggerError,
//     TriggerSlow) fault exactly the streams whose payload carries them,
//     letting a differential test know precisely which streams were hit
//     and assert the rest are untouched.
//
// A zero Config injects nothing: the wrapper must then be observably
// transparent, which the conformance harness checks by running the whole
// backend relation through it (oracle.ConformanceOptions.WrapFactory).
package faultinject

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"time"

	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
)

// In-band fault triggers. A marker must arrive within one stream (it may
// straddle Feed chunk boundaries; the wrapper keeps a rolling tail) and
// fires before the chunk reaches the wrapped backend.
var (
	// TriggerPanic makes Feed panic.
	TriggerPanic = []byte("\xf7!panic!\xf7")
	// TriggerError makes Feed fail with ErrInjected.
	TriggerError = []byte("\xf7!error!\xf7")
	// TriggerSlow makes Feed sleep for Config.Latency first.
	TriggerSlow = []byte("\xf7!slow!\xf7")
)

// maxTriggerLen bounds the rolling tail kept for straddled markers.
const maxTriggerLen = 9

// ErrInjected is the error injected into Backend.Feed.
var ErrInjected = errors.New("faultinject: injected backend error")

// ErrSinkInjected is the default transient error injected into
// Sink.Deliver.
var ErrSinkInjected = errors.New("faultinject: injected sink failure")

// Config tunes backend fault injection. The zero value injects nothing.
type Config struct {
	// Seed derives each wrapped backend's private RNG (backends also mix
	// in a creation sequence number, so shards fault independently yet
	// reproducibly).
	Seed int64
	// ErrorRate is the probability per Feed of failing with ErrInjected.
	ErrorRate float64
	// PanicRate is the probability per Feed of panicking.
	PanicRate float64
	// SlowRate is the probability per Feed of sleeping Latency first.
	SlowRate float64
	// Latency is the injected sleep (0 = 100µs).
	Latency time.Duration
	// Triggers additionally honors the in-band markers.
	Triggers bool
}

func (c Config) latency() time.Duration {
	if c.Latency <= 0 {
		return 100 * time.Microsecond
	}
	return c.Latency
}

// Factory wraps inner so every backend it creates injects faults per cfg.
func Factory(inner runtime.Factory, cfg Config) runtime.Factory {
	var mu sync.Mutex
	var seq int64
	return func() (runtime.Backend, error) {
		b, err := inner()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		seq++
		n := seq
		mu.Unlock()
		return &backend{
			inner: b,
			cfg:   cfg,
			rng:   rand.New(rand.NewSource(cfg.Seed ^ n*0x1e3779b97f4a7c15)),
		}, nil
	}
}

// backend injects faults ahead of the wrapped backend's Feed.
type backend struct {
	inner runtime.Backend
	cfg   Config
	rng   *rand.Rand
	tail  []byte // last bytes of the previous chunk, for straddled markers
}

// Unwrap exposes the wrapped backend (for audits through the wrapper).
func (b *backend) Unwrap() runtime.Backend { return b.inner }

func (b *backend) Reset() {
	b.tail = b.tail[:0]
	b.inner.Reset()
}

func (b *backend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	if b.cfg.Triggers {
		if err := b.checkTriggers(p); err != nil {
			return out, err
		}
	}
	if b.roll(b.cfg.PanicRate) {
		panic("faultinject: injected backend panic")
	}
	if b.roll(b.cfg.ErrorRate) {
		return out, ErrInjected
	}
	if b.roll(b.cfg.SlowRate) {
		time.Sleep(b.cfg.latency())
	}
	return b.inner.Feed(p, out)
}

// checkTriggers scans the chunk — prefixed with the tail of the previous
// one, so markers split across Feed boundaries still fire — and applies
// the first marker found.
func (b *backend) checkTriggers(p []byte) error {
	joined := p
	if len(b.tail) > 0 {
		joined = append(append(make([]byte, 0, len(b.tail)+len(p)), b.tail...), p...)
	}
	keep := len(joined)
	if keep > maxTriggerLen-1 {
		keep = maxTriggerLen - 1
	}
	b.tail = append(b.tail[:0], joined[len(joined)-keep:]...)
	switch {
	case bytes.Contains(joined, TriggerPanic):
		panic("faultinject: triggered backend panic")
	case bytes.Contains(joined, TriggerError):
		return ErrInjected
	case bytes.Contains(joined, TriggerSlow):
		time.Sleep(b.cfg.latency())
	}
	return nil
}

func (b *backend) roll(p float64) bool {
	return p > 0 && b.rng.Float64() < p
}

func (b *backend) Close(out []stream.Match) ([]stream.Match, error) { return b.inner.Close(out) }
func (b *backend) Counters() runtime.Counters                       { return b.inner.Counters() }

// SinkConfig tunes sink fault injection. Counting is by distinct batch: a
// Deliver of the same *Batch right after a failed one is the pipeline's
// retry, anything else is new traffic (batches are pooled, so after a
// successful Deliver the same address may carry the next batch). FailEvery
// and PanicEvery pick batches, and FailCount controls how many consecutive
// attempts on a picked batch fail before it goes through — transient
// failures the pipeline's retry policy should absorb.
type SinkConfig struct {
	// FailEvery fails every Nth distinct batch (0 = never).
	FailEvery int
	// FailCount is how many consecutive attempts fail for a picked
	// batch (0 = 2). Set it at or above the pipeline's SinkAttempts to
	// force dead-lettering.
	FailCount int
	// PanicEvery makes every Nth distinct batch's first attempt panic
	// instead of erroring (0 = never).
	PanicEvery int
	// Err is the injected error (nil = ErrSinkInjected).
	Err error
}

func (c SinkConfig) failCount() int {
	if c.FailCount <= 0 {
		return 2
	}
	return c.FailCount
}

func (c SinkConfig) err() error {
	if c.Err == nil {
		return ErrSinkInjected
	}
	return c.Err
}

// WrapSink wraps inner so Deliver injects transient failures per cfg.
// Deliver is, like any pipeline sink, driven from a single goroutine.
func WrapSink(inner runtime.Sink, cfg SinkConfig) runtime.Sink {
	return &sink{inner: inner, cfg: cfg}
}

type sink struct {
	inner     runtime.Sink
	cfg       SinkConfig
	last      *runtime.Batch
	seen      int
	failsLeft int
	panicNext bool
}

func (s *sink) Deliver(b *runtime.Batch) error {
	if b != s.last {
		s.last = b
		s.seen++
		if s.cfg.FailEvery > 0 && s.seen%s.cfg.FailEvery == 0 {
			s.failsLeft = s.cfg.failCount()
		}
		if s.cfg.PanicEvery > 0 && s.seen%s.cfg.PanicEvery == 0 {
			s.panicNext = true
		}
	}
	if s.panicNext {
		s.panicNext = false
		panic("faultinject: injected sink panic")
	}
	if s.failsLeft > 0 {
		s.failsLeft--
		return s.cfg.err()
	}
	err := s.inner.Deliver(b)
	if err == nil {
		s.last = nil // delivered: the pipeline may reuse the address
	}
	return err
}

func (s *sink) Close() error { return s.inner.Close() }
