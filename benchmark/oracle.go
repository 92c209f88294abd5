package main

import (
	"fmt"
	"hash/maphash"

	"cfgtag"
)

// hashSeed is per process: oracle and run hashes are only ever compared
// inside one process.
var hashSeed = maphash.MakeSeed()

// buildOracle tags every variant once with the stream (bit-parallel NFA)
// backend fed in one piece, renders the response the server must produce
// and keeps its hash. Every stream starts at offset 0, so one oracle per
// variant covers every stream that replays it, whatever the chunking.
func buildOracle(eng *cfgtag.Engine, vs []*variant) error {
	b, err := eng.NewBackend(cfgtag.StreamBackend)
	if err != nil {
		return err
	}
	for _, v := range vs {
		b.Reset()
		if err := b.Feed(v.data); err != nil {
			return fmt.Errorf("oracle feed: %w", err)
		}
		if err := b.Close(); err != nil {
			return fmt.Errorf("oracle close: %w", err)
		}
		v.setOracle(b.Matches())
		v.setRef()
	}
	return nil
}

func (v *variant) setOracle(ms []cfgtag.Match) {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	buf := make([]byte, 0, 64<<10)
	v.sumEnd = 0
	for _, m := range ms {
		buf = appendTagLine(buf, m)
		if len(buf) > 60<<10 {
			h.Write(buf)
			buf = buf[:0]
		}
		v.sumEnd += m.End
	}
	h.Write(appendEndLine(buf, len(ms)))
	v.hash = h.Sum64()
	v.tags = len(ms)

	// A match is confirmed by the byte after its lexeme (one-byte
	// lookahead for longest match), so chunk i confirms the tags whose End
	// lies before its last byte; a tag ending on the last byte belongs to
	// the next chunk (or to CLOSE).
	v.ack = make([]int64, len(v.ends))
	j := 0
	for i, end := range v.ends {
		v.ack[i] = -1
		for j < len(ms) && ms[j].End <= int64(end)-2 {
			v.ack[i] = ms[j].End
			j++
		}
	}
}
