package runtime

import (
	"errors"
	"testing"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
)

func testSpec(t *testing.T, opts core.Options) *core.Spec {
	t.Helper()
	spec, err := core.Compile(grammar.XMLRPC(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRegistryMaxStreamsQuota(t *testing.T) {
	spec := testSpec(t, core.Options{FreeRunningStart: true})
	p, err := NewPipeline(Config{
		Shards:  1,
		Factory: testFactory(t, spec, Limits{}),
		Quota:   Quota{MaxStreams: 2},
	}, newReloadSink())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Send("s1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("s2", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Existing streams keep flowing; a third stream is rejected.
	if err := p.Send("s1", []byte("y")); err != nil {
		t.Fatalf("existing stream rejected: %v", err)
	}
	if err := p.Send("s3", []byte("x")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Send: %v, want ErrQuotaExceeded", err)
	}
	if n := p.LiveStreams(); n != 2 {
		t.Fatalf("LiveStreams = %d, want 2", n)
	}
	// Ending a stream frees its slot once the EOS batch is delivered.
	if err := p.CloseStream("s1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := p.Send("s3", []byte("x")); err == nil {
			break
		} else if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after CloseStream")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegistryBytesPerSecQuota(t *testing.T) {
	spec := testSpec(t, core.Options{FreeRunningStart: true})
	p, err := NewPipeline(Config{
		Shards:  1,
		Factory: testFactory(t, spec, Limits{}),
		Quota:   Quota{BytesPerSec: 1024},
	}, newReloadSink())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The burst allows one second of rate up front; the next byte is shed.
	if err := p.Send("s", make([]byte, 1024)); err != nil {
		t.Fatalf("burst Send rejected: %v", err)
	}
	if err := p.Send("s", []byte("x")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-rate Send: %v, want ErrQuotaExceeded", err)
	}
	// Tokens refill with time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := p.Send("s", []byte("x")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("token bucket never refilled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitLiveStreams polls until the pipeline's quota slot count reaches want.
func waitLiveStreams(t *testing.T, p *Pipeline, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.LiveStreams() != want {
		if time.Now().After(deadline) {
			t.Fatalf("LiveStreams = %d, want %d", p.LiveStreams(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuotaSlotFreedWithoutDelivery pins the MaxStreams slot to the end of
// the stream, not to a successful Deliver: a final batch an open breaker
// sheds to DeadLetter, or one dropped after a permanent sink failure,
// still frees it.
func TestQuotaSlotFreedWithoutDelivery(t *testing.T) {
	spec := testSpec(t, core.Options{FreeRunningStart: true})
	t.Run("breaker-shed", func(t *testing.T) {
		p, err := NewPipeline(Config{
			Shards:           1,
			Factory:          testFactory(t, spec, Limits{}),
			Quota:            Quota{MaxStreams: 1},
			BreakerThreshold: 1,
			SinkAttempts:     1,
			DeadLetter:       func(*Batch, error) {},
		}, SinkFunc(func(*Batch) error { return errors.New("sink down") }))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.Send("s1", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := p.CloseStream("s1"); err != nil {
			t.Fatal(err)
		}
		waitLiveStreams(t, p, 0)
		if err := p.Send("s2", []byte("x")); err != nil {
			t.Fatalf("Send on a freed slot = %v, want nil", err)
		}
		if err := p.CloseStream("s2"); err != nil {
			t.Fatal(err)
		}
		waitLiveStreams(t, p, 0)
		if f := p.m.Faults(); f.BreakerSheds == 0 {
			t.Fatalf("no final batch was shed by the breaker: %+v", f)
		}
	})
	t.Run("permanent-failure", func(t *testing.T) {
		p, err := NewPipeline(Config{
			Shards:  1,
			Factory: testFactory(t, spec, Limits{}),
			Quota:   Quota{MaxStreams: 1},
		}, SinkFunc(func(*Batch) error { return PermanentError(errors.New("sink gone")) }))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Send("s1", []byte("x")); err != nil {
			t.Fatal(err)
		}
		// Close flushes s1's final batch onto the failed sink, which drops
		// it; the slot frees all the same.
		if err := p.Close(); err == nil {
			t.Fatal("Close after a permanent sink failure = nil")
		}
		if n := p.LiveStreams(); n != 0 {
			t.Fatalf("LiveStreams after Close = %d, want 0", n)
		}
	})
}
