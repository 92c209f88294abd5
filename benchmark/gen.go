package main

import (
	"bytes"
	"math/rand"
	"strconv"
)

// The benchmark's own XML-RPC generator, in the paper's figure-14 dialect
// (value is a pure nonterminal: no <value> wrappers; tags are separated by
// single spaces). It deliberately does not use internal/xmlrpc, so the
// workload bytes cannot drift when the repository's generator changes.

const (
	minMsg = 60
	maxMsg = 600

	denseStream  = 256 << 10 // bytes per dense_mux stream
	sparseStream = 4 << 20   // bytes per sparse_mux stream
	pacedStream  = 128 << 10 // bytes per paced_mux stream
	sparseGap    = 64 << 10  // space run between sparse messages
	denseChunk   = 4 << 10   // DATA payload on dense_mux
	sparseChunk  = 1 << 10   // DATA payload on sparse_mux
	pacedChunk   = 2 << 10   // target DATA payload on paced_mux (message aligned)
	bulkVariants = 8         // corpus variants per seed, so streams differ
	churnPool    = 512       // distinct one-message streams on churn_mux
)

var services = []string{"deposit", "withdraw", "acctinfo", "buy", "sell", "price"}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

type msgGen struct{ rng *rand.Rand }

// variantRNG derives an independent generator for one corpus variant.
func variantRNG(seed int64, variant int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(variant)*7919 + 1))
}

// message appends one methodCall of minMsg..maxMsg bytes to dst.
func (g *msgGen) message(dst []byte) []byte {
	for {
		start := len(dst)
		dst = append(dst, "<methodCall> <methodName>"...)
		dst = append(dst, services[g.rng.Intn(len(services))]...)
		dst = append(dst, "</methodName> <params> "...)
		for n := g.rng.Intn(5); n > 0; n-- {
			dst = append(dst, "<param> "...)
			dst = g.value(dst, 2)
			dst = append(dst, " </param> "...)
		}
		dst = append(dst, "</params> </methodCall>"...)
		if n := len(dst) - start; n >= minMsg && n <= maxMsg {
			return dst
		}
		dst = dst[:start]
	}
}

func (g *msgGen) value(dst []byte, depth int) []byte {
	kinds := 6
	if depth > 0 {
		kinds = 8
	}
	switch g.rng.Intn(kinds) {
	case 0:
		dst = append(dst, "<i4>"...)
		dst = g.integer(dst)
		dst = append(dst, "</i4>"...)
	case 1:
		dst = append(dst, "<int>"...)
		dst = g.integer(dst)
		dst = append(dst, "</int>"...)
	case 2:
		dst = append(dst, "<string>"...)
		dst = g.chars(dst, alnum, 1+g.rng.Intn(10))
		dst = append(dst, "</string>"...)
	case 3:
		dst = append(dst, "<dateTime.iso8601>"...)
		dst = g.digits(dst, 1990+g.rng.Intn(30), 4)
		dst = g.digits(dst, 1+g.rng.Intn(12), 2)
		dst = g.digits(dst, 1+g.rng.Intn(28), 2)
		dst = append(dst, 'T')
		dst = g.digits(dst, g.rng.Intn(24), 2)
		dst = append(dst, ':')
		dst = g.digits(dst, g.rng.Intn(60), 2)
		dst = append(dst, ':')
		dst = g.digits(dst, g.rng.Intn(60), 2)
		dst = append(dst, "</dateTime.iso8601>"...)
	case 4:
		dst = append(dst, "<double>"...)
		dst = g.sign(dst)
		dst = strconv.AppendInt(dst, int64(g.rng.Intn(1000)), 10)
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, int64(g.rng.Intn(1000)), 10)
		dst = append(dst, "</double>"...)
	case 5:
		dst = append(dst, "<base64>"...)
		dst = g.chars(dst, alnum+"+/", 4*(1+g.rng.Intn(4))-2)
		dst = append(dst, "==</base64>"...)
	case 6:
		dst = append(dst, "<struct> "...)
		for n := 1 + g.rng.Intn(2); n > 0; n-- {
			dst = append(dst, "<member> <name>"...)
			dst = g.chars(dst, alnum, 1+g.rng.Intn(10))
			dst = append(dst, "</name> "...)
			dst = g.value(dst, depth-1)
			dst = append(dst, " </member> "...)
		}
		dst = append(dst, "</struct>"...)
	case 7:
		dst = append(dst, "<array> <data> "...)
		for n := g.rng.Intn(3); n > 0; n-- {
			dst = g.value(dst, depth-1)
			dst = append(dst, ' ')
		}
		dst = append(dst, "</data> </array>"...)
	}
	return dst
}

func (g *msgGen) sign(dst []byte) []byte {
	switch g.rng.Intn(3) {
	case 0:
		return append(dst, '-')
	case 1:
		return append(dst, '+')
	}
	return dst
}

func (g *msgGen) integer(dst []byte) []byte {
	return strconv.AppendInt(g.sign(dst), int64(g.rng.Intn(1_000_000)), 10)
}

func (g *msgGen) digits(dst []byte, v, width int) []byte {
	s := strconv.Itoa(v)
	for i := len(s); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

func (g *msgGen) chars(dst []byte, set string, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, set[g.rng.Intn(len(set))])
	}
	return dst
}

// variant is one stream body plus its chunk plan. The oracle fields are
// filled by buildOracle.
type variant struct {
	data []byte
	ends []int // chunk i is data[ends[i-1]:ends[i]]

	// ack[i] is the End offset of the last oracle tag the tagger can
	// confirm while it processes chunk i, or -1 when chunk i confirms no
	// tag: the response line a timed chunk waits for.
	ack    []int64
	tags   int
	sumEnd int64  // checksum for the in-process layers (no rendering there)
	hash   uint64 // hash of the rendered CFGTAG/1 response, key prefix stripped

	// The reference server "tags" every '<': refTags is how many it must
	// report for this body, refAck[i] the offset of the last one in chunk i
	// (-1 for none).
	refTags int
	refAck  []int64
}

func (v *variant) setRef() {
	v.refTags = bytes.Count(v.data, []byte{'<'})
	v.refAck = make([]int64, len(v.ends))
	start := 0
	for i, end := range v.ends {
		v.refAck[i] = -1
		if j := bytes.LastIndexByte(v.data[start:end], '<'); j >= 0 {
			v.refAck[i] = int64(start + j)
		}
		start = end
	}
}

func (v *variant) chunk(i int) []byte {
	start := 0
	if i > 0 {
		start = v.ends[i-1]
	}
	return v.data[start:v.ends[i]]
}

// fixedChunks cuts data every size bytes, so chunks straddle tokens.
func fixedChunks(n, size int) []int {
	var ends []int
	for off := size; off < n; off += size {
		ends = append(ends, off)
	}
	return append(ends, n)
}

// denseCorpus is newline-separated messages padded with spaces to exactly
// size bytes (equal stream sizes keep streams/s proportional to bytes/s).
func denseCorpus(rng *rand.Rand, size int) (data []byte, msgEnds []int) {
	g := msgGen{rng}
	data = make([]byte, 0, size)
	for {
		mark := len(data)
		data = g.message(data)
		data = append(data, '\n')
		if len(data) > size {
			data = data[:mark]
			break
		}
		msgEnds = append(msgEnds, len(data))
	}
	data = padTo(data, size)
	msgEnds[len(msgEnds)-1] = len(data)
	return data, msgEnds
}

// sparseCorpus is the same messages separated by sparseGap-byte space
// runs: ~99.5 % filler the engine's skip-ahead crosses without stepping.
func sparseCorpus(rng *rand.Rand, size int) []byte {
	g := msgGen{rng}
	data := make([]byte, 0, size)
	for {
		mark := len(data)
		data = g.message(data)
		if len(data)+sparseGap > size {
			data = data[:mark]
			break
		}
		for i := 0; i < sparseGap-1; i++ {
			data = append(data, ' ')
		}
		data = append(data, '\n')
	}
	return padTo(data, size)
}

// padTo extends data (which ends in a newline) with spaces and a final
// newline to exactly size bytes.
func padTo(data []byte, size int) []byte {
	if len(data) == size {
		return data
	}
	for len(data) < size-1 {
		data = append(data, ' ')
	}
	return append(data, '\n')
}

// messageChunks groups whole messages into chunks of about target bytes.
func messageChunks(msgEnds []int, target int) []int {
	var ends []int
	start := 0
	for i, e := range msgEnds {
		if e-start >= target-maxMsg/2 || i == len(msgEnds)-1 {
			ends = append(ends, e)
			start = e
		}
	}
	return ends
}

// genVariants builds the stream bodies of one workload from the seed.
func genVariants(workload string, seed int64) []*variant {
	var vs []*variant
	switch workload {
	case "dense_mux":
		for i := 0; i < bulkVariants; i++ {
			data, _ := denseCorpus(variantRNG(seed, i), denseStream)
			vs = append(vs, &variant{data: data, ends: fixedChunks(len(data), denseChunk)})
		}
	case "sparse_mux":
		for i := 0; i < bulkVariants; i++ {
			data := sparseCorpus(variantRNG(seed, i), sparseStream)
			vs = append(vs, &variant{data: data, ends: fixedChunks(len(data), sparseChunk)})
		}
	case "paced_mux":
		for i := 0; i < bulkVariants; i++ {
			data, msgEnds := denseCorpus(variantRNG(seed, i), pacedStream)
			vs = append(vs, &variant{data: data, ends: messageChunks(msgEnds, pacedChunk)})
		}
	case "churn_mux":
		g := msgGen{variantRNG(seed, 0)}
		for i := 0; i < churnPool; i++ {
			data := append(g.message(nil), '\n')
			vs = append(vs, &variant{data: data, ends: []int{len(data)}})
		}
	}
	return vs
}
