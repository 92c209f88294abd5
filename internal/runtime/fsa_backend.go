package runtime

import "cfgtag/internal/stream"

// fsaBackend adapts one runner of a table to the Backend contract. The
// runner appends into the caller's buffer and counts its own rare events,
// so minting one allocates no closure.
type fsaBackend struct {
	run     *stream.Runner
	lim     Limits
	bytes   int64
	matches int64
}

func (b *fsaBackend) Reset() {
	b.run.Reset()
	b.bytes = 0
	b.matches = 0
}

func (b *fsaBackend) Feed(p []byte, out []stream.Match) ([]stream.Match, error) {
	before := len(out)
	out, err := b.run.Write(p, out)
	confirmed := len(out) - before
	b.matches += int64(confirmed)
	if err == nil {
		b.bytes += int64(len(p))
		err = b.lim.checkPending(confirmed)
	}
	return out, err
}

func (b *fsaBackend) Close(out []stream.Match) ([]stream.Match, error) {
	before := len(out)
	out = b.run.Close(out)
	b.matches += int64(len(out) - before)
	return out, nil
}

// Counters reports the stream's totals; the cache totals span the
// backend's lifetime, not the last Reset.
func (b *fsaBackend) Counters() Counters {
	c := Counters{Bytes: b.bytes, Matches: b.matches, Recoveries: b.run.Errors, Collisions: b.run.Collisions}
	c.CacheHits, c.CacheMisses, c.CacheResets = b.run.CacheStats()
	return c
}

// Table returns the table the backend runs, for its size report and the
// conformance harness's bound audit.
func (b *fsaBackend) Table() *stream.Table { return b.run.Table() }
