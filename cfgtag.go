// Package cfgtag is the public API of the CFG-based token tagger — a
// reproduction of "Context-Free-Grammar based Token Tagger in
// Reconfigurable Devices" (Cho, Moscola, Lockwood; ICDE 2006).
//
// An Engine is compiled from a Lex/Yacc-style grammar (see the grammar
// file format in the README). It exposes the paper's full pipeline:
//
//   - Tagger: the streaming token tagger — the generated hardware's exact
//     semantics, determinized into one table the engine fills on demand
//     and shares with every Tagger and CheckedTagger; any number of
//     Taggers run concurrently over it,
//   - Synthesize: technology mapping + timing model for the two FPGA
//     devices of table 1,
//   - VHDL: the structural VHDL the paper's generator emits,
//   - Backend: one stream through the served table or one of the
//     references it is measured against — the NFA, the cycle-accurate
//     netlist simulation, the LL(1) predictive-parser baseline ("true
//     parser") and the Earley oracle — behind one contract,
//   - Pipeline and Platform: the served table at scale.
//
// The quickstart example:
//
//	engine, _ := cfgtag.Compile("demo", cfgtag.IfThenElseSource)
//	tg := engine.NewTagger()
//	tg.OnMatch = func(m cfgtag.Match) { fmt.Println(m.Term, m.Context, m.End) }
//	tg.Write([]byte("if true then go else stop"))
//	tg.Close()
package cfgtag

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"cfgtag/internal/core"
	"cfgtag/internal/fpga"
	"cfgtag/internal/grammar"
	"cfgtag/internal/hwgen"
	"cfgtag/internal/oracle"
	"cfgtag/internal/runtime"
	"cfgtag/internal/stream"
	"cfgtag/internal/validate"
	"cfgtag/internal/vhdl"
)

// Built-in grammar sources from the paper.
const (
	// BalancedParensSource is the figure 1 grammar.
	BalancedParensSource = grammar.BalancedParensSrc
	// IfThenElseSource is the figure 9 grammar.
	IfThenElseSource = grammar.IfThenElseSrc
	// XMLRPCSource is the figure 14 grammar (XML-RPC).
	XMLRPCSource = grammar.XMLRPCSrc
	// XMLRPCFullSource is the real-wire-format XML-RPC grammar (with the
	// <value> wrapper tags figure 14 omits).
	XMLRPCFullSource = grammar.XMLRPCFullSrc
	// EnglishSource is the section 5.1 natural-language fragment
	// (examples/natlang).
	EnglishSource = grammar.EnglishSrc
)

// Option tunes compilation; the defaults select the paper's design.
type Option func(*core.Options)

// FreeRunningStart keeps the start tokenizers always enabled so sentences
// are found anywhere in the stream (section 3.3's unanchored mode). Use it
// for long-lived streams carrying many messages.
func FreeRunningStart() Option { return func(o *core.Options) { o.FreeRunningStart = true } }

// WithoutContextDuplication builds one tokenizer per terminal instead of
// one per grammar occurrence (ablation).
func WithoutContextDuplication() Option {
	return func(o *core.Options) { o.NoContextDuplication = true }
}

// WithoutLongestMatch drops the figure 7 lookahead (ablation).
func WithoutLongestMatch() Option { return func(o *core.Options) { o.NoLongestMatch = true } }

// AllEnabled discards the syntactic wiring, leaving a naive parallel
// pattern matcher (ablation).
func AllEnabled() Option { return func(o *core.Options) { o.AllEnabled = true } }

// IndexBits fixes the encoder output width.
func IndexBits(n int) Option { return func(o *core.Options) { o.IndexBits = n } }

// RecoverRestart enables the section 5.2 error recovery in its restart
// flavor: when the engine goes dead on non-conforming input, the start
// tokenizers re-arm so the next sentence is tagged. Tagger.Errors counts
// the recovery events.
func RecoverRestart() Option { return func(o *core.Options) { o.Recovery = core.RecoveryRestart } }

// RecoverResync enables the stronger section 5.2 recovery: every tokenizer
// re-arms at the error, resuming mid-structure right after the damage (at
// the cost of some noisy tags while context re-locks).
func RecoverResync() Option { return func(o *core.Options) { o.Recovery = core.RecoveryResync } }

// Engine is a compiled tagging engine for one grammar.
type Engine struct {
	spec *core.Spec
	// tags is the tag table: one Match template per Spec.Instances entry
	// with everything but End filled in at compile time. It is the
	// software form of the paper's index encoder — a detection's meaning
	// is looked up, never formatted.
	tags []Match
	// text is the tag table in wire form, for TagBatch.AppendText.
	text tagText

	// tableOnce builds table, the lazily filled transition table every
	// in-process tagger of the engine runs, on first use: engines that only
	// feed pipelines or platforms never pay for it.
	tableOnce sync.Once
	table     *stream.Table
}

// shared returns the engine's table, building it on first use.
func (e *Engine) shared() *stream.Table {
	e.tableOnce.Do(func() { e.table = stream.NewTable(e.spec, stream.TableConfig{}) })
	return e.table
}

// Compile parses the grammar source and compiles the engine.
func Compile(name, grammarSrc string, opts ...Option) (*Engine, error) {
	g, err := grammar.Parse(name, grammarSrc)
	if err != nil {
		return nil, err
	}
	return CompileGrammar(g, opts...)
}

// CompileGrammar compiles a pre-parsed grammar.
func CompileGrammar(g *grammar.Grammar, opts ...Option) (*Engine, error) {
	var copts core.Options
	for _, o := range opts {
		o(&copts)
	}
	spec, err := core.Compile(g, copts)
	if err != nil {
		return nil, err
	}
	tags := make([]Match, len(spec.Instances))
	text := tagText{tails: make([]string, len(spec.Instances))}
	for i, in := range spec.Instances {
		tags[i] = Match{
			Term:        in.Term,
			Context:     in.Context(spec.Grammar),
			Index:       in.Index,
			SentenceEnd: in.CanEnd,
			InstanceID:  in.ID,
		}
		text.tails[i] = string(appendTail(nil, &tags[i]))
		text.max = max(text.max, len(text.tails[i]))
	}
	return &Engine{spec: spec, tags: tags, text: text}, nil
}

// tagText is the tag table in wire form: per instance, everything of its
// TAG line after the end offset, and the longest such tail.
type tagText struct {
	tails []string
	max   int
}

// appendTail renders the part of m's TAG line that does not depend on
// where the token ended: " <index> <term> <context>\n".
func appendTail(dst []byte, m *Match) []byte {
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(m.Index), 10)
	dst = append(dst, ' ')
	dst = append(dst, m.Term...)
	dst = append(dst, ' ')
	dst = append(dst, m.Context...)
	return append(dst, '\n')
}

// Spec exposes the compiled specification for advanced integration
// (instance wiring, encoder indices).
func (e *Engine) Spec() *core.Spec { return e.spec }

// Match is one token detection.
type Match struct {
	// Term is the terminal name.
	Term string
	// Context is the grammatical context, e.g. "methodName[1]" — the
	// paper's semantic tag.
	Context string
	// Index is the token index the hardware encoder would emit.
	Index int
	// End is the offset of the lexeme's last byte.
	End int64
	// SentenceEnd reports that a complete sentence of the grammar may end
	// at this token (the back-end's message-boundary signal).
	SentenceEnd bool
	// InstanceID identifies the tokenizer instance (Spec().Instances).
	InstanceID int
}

// Tagger streams bytes and emits matches. Not safe for concurrent use;
// any number of Taggers of one engine run concurrently over its shared
// table.
type Tagger struct {
	engine *Engine
	run    *stream.Runner
	// ms is the buffer the runner appends each call's detections to.
	ms []stream.Match
	// OnMatch receives detections in input order, each call's before it
	// returns.
	OnMatch func(Match)
}

// NewTagger creates a streaming tagger over the engine's shared table.
func (e *Engine) NewTagger() *Tagger {
	return &Tagger{engine: e, run: e.shared().NewRunner()}
}

// match is the whole per-detection cost of the facade: copy the
// instance's tag-table row and set End.
func (e *Engine) match(m stream.Match) Match {
	t := e.tags[m.InstanceID]
	t.End = m.End
	return t
}

// matches converts ms into dst's backing array, allocating only when it
// is missing or too small. Each row is copied from the tag table straight
// into dst and its End set there: going through match would patch End in
// a stack copy with an 8-byte store that the wider loads copying the row
// on cannot forward from.
func (e *Engine) matches(dst []Match, ms []stream.Match) []Match {
	if dst == nil || cap(dst) < len(ms) {
		dst = make([]Match, len(ms))
	}
	dst = dst[:len(ms)]
	for i, m := range ms {
		dst[i] = e.tags[m.InstanceID]
		dst[i].End = m.End
	}
	return dst
}

// Errors returns the number of section 5.2 recovery events so far (always
// zero unless a Recover option was used at compile time).
func (t *Tagger) Errors() int64 { return t.run.Errors }

// Write feeds stream bytes (io.Writer-compatible).
func (t *Tagger) Write(p []byte) (int, error) {
	ms, err := t.run.Write(p, t.ms[:0])
	if err != nil {
		return 0, err
	}
	t.deliver(ms)
	return len(p), nil
}

// Close flushes the final byte's pending detection.
func (t *Tagger) Close() error {
	t.deliver(t.run.Close(t.ms[:0]))
	return nil
}

// deliver hands ms to OnMatch and keeps its backing array for the next call.
func (t *Tagger) deliver(ms []stream.Match) {
	t.ms = ms
	if t.OnMatch == nil {
		return
	}
	for _, m := range ms {
		t.OnMatch(t.engine.match(m))
	}
}

// Reset rewinds to stream start for reuse.
func (t *Tagger) Reset() { t.run.Reset() }

// Tag runs a whole buffer and returns all matches (Reset + Close implied).
func (t *Tagger) Tag(data []byte) []Match {
	return t.engine.matches(nil, t.run.Tag(data))
}

// Report is a synthesis result (a table 1 row).
type Report = fpga.Report

// Devices of table 1.
var (
	Virtex4LX200 = fpga.Virtex4LX200
	VirtexE2000  = fpga.VirtexE2000
)

// Synthesize generates the hardware netlist, maps it to 4-input LUTs on
// the device and models its clock rate — one row of table 1.
func (e *Engine) Synthesize(dev fpga.Device) (Report, error) {
	d, err := hwgen.Generate(e.spec, hwgen.Options{})
	if err != nil {
		return Report{}, err
	}
	return fpga.Synthesize(d.Netlist, dev, e.spec.PatternBytes())
}

// VHDL emits the generated design as structural VHDL.
func (e *Engine) VHDL(entity string) (string, error) {
	d, err := hwgen.Generate(e.spec, hwgen.Options{})
	if err != nil {
		return "", err
	}
	return vhdl.Emit(d.Netlist, vhdl.Options{Entity: entity, Comment: e.spec.Grammar.Name})
}

// SelfTest cross-checks both generated hardware datapaths against the
// software engine on randomly generated conforming sentences; it returns
// the number of sentences verified.
func (e *Engine) SelfTest(seed int64, sentences int) (int, error) {
	return hwgen.SelfTest(e.spec, seed, sentences)
}

// CheckedTagger is a tagger coupled with the section 5.2 stack extension:
// a bounded LL(1) stack machine audits the tag stream, restoring exact
// grammar recognition on top of the stack-less engine (nesting violations
// the parallel hardware cannot see surface on OnViolation).
type CheckedTagger struct {
	tagger    *Tagger
	validator *validate.Validator
	// OnMatch receives every detection, as with Tagger.
	OnMatch func(Match)
	// OnViolation receives each recursion/nesting violation: the offset of
	// the offending token's last byte (-1 at end of input), its terminal
	// name ("" at end of input) and the cause.
	OnViolation func(end int64, term string, err error)
}

// NewCheckedTagger builds the stack-extended pipeline. maxStackDepth
// bounds the modeled hardware stack (0 = 4096); the grammar must be LL(1).
func (e *Engine) NewCheckedTagger(maxStackDepth int) (*CheckedTagger, error) {
	val, err := validate.New(e.spec, maxStackDepth)
	if err != nil {
		return nil, err
	}
	ct := &CheckedTagger{tagger: e.NewTagger(), validator: val}
	ct.tagger.OnMatch = ct.consume
	val.OnViolation = func(v *validate.Violation) {
		if ct.OnViolation != nil {
			end := v.End
			if v.Term == "" {
				end = -1
			}
			ct.OnViolation(end, v.Term, v.Err)
		}
	}
	return ct, nil
}

// consume audits one detection, then hands it to OnMatch.
func (c *CheckedTagger) consume(m Match) {
	c.validator.Consume(stream.Match{InstanceID: m.InstanceID, End: m.End})
	if c.OnMatch != nil {
		c.OnMatch(m)
	}
}

// Write feeds stream bytes.
func (c *CheckedTagger) Write(p []byte) (int, error) { return c.tagger.Write(p) }

// Close flushes the tagger and runs the end-of-input check; an unfinished
// sentence is returned (and reported) as a violation.
func (c *CheckedTagger) Close() error {
	c.tagger.Close()
	return c.validator.Close()
}

// Reset rewinds both the tagger and the stack machine.
func (c *CheckedTagger) Reset() {
	c.tagger.Reset()
	c.validator.Reset()
}

// Violations counts the nesting violations seen since Reset.
func (c *CheckedTagger) Violations() int64 { return c.validator.Violations() }

// Errors returns the tagger's section 5.2 recovery-event count (nonzero
// only when the engine was compiled with a Recover option); bytes the
// tagger could not place in any context never reach the validator, so a
// full well-formedness verdict is Violations() == 0 && Errors() == 0 &&
// Close() == nil.
func (c *CheckedTagger) Errors() int64 { return c.tagger.Errors() }

// StackDepth reports the stack high-water mark — the capacity a hardware
// stack would have needed for this stream.
func (c *CheckedTagger) StackDepth() int { return c.validator.StackDepth() }

// BackendKind selects one of the engine's execution paths when they are
// driven through the uniform Backend interface. Pipelines and platform
// tenants serve one: the paper's stack-less tagger as a table filled on
// demand, selected by the zero value, DFABackend or AOTBackend. The other
// four are references the served table is measured against, available
// single-stream through NewBackend.
type BackendKind string

const (
	// DFABackend runs the bit-parallel engine determinized into one table
	// of (active, pending) states and byte-class-indexed cells, filled on
	// demand, RE2-style: a cell is computed once, the first time traffic
	// crosses it, and every stream of the pipeline or tenant shares it.
	// Detections are identical to StreamBackend. The table is bounded and
	// starts a new epoch on overflow, so memory never grows with input.
	// It is the served kind, and the zero BackendKind selects it.
	DFABackend BackendKind = "dfa"
	// AOTBackend is another name for the same served table, kept because
	// configurations write it. It once meant a table filled to closure at
	// build time; closing first bought only a few percent in steady state
	// and put the closure's cost into every start-up and reload, so it
	// fills on demand too.
	AOTBackend BackendKind = "aot"
	// StreamBackend is the bit-parallel NFA the table is filled from — the
	// software stand-in for the 1-byte-per-cycle hardware and the serial
	// reference the table is checked against, several times slower.
	StreamBackend BackendKind = oracle.Stream
	// GatesBackend is the cycle-accurate simulation of the generated
	// netlist — the hardware reference, byte-per-cycle slow.
	GatesBackend BackendKind = oracle.Gates
	// ParserBackend is the LL(1) predictive-parser baseline. It buffers
	// the stream and parses at Close: one stream must be one sentence, the
	// grammar must be LL(1), and matches appear only after a successful
	// Close.
	ParserBackend BackendKind = oracle.Parser
	// EarleyBackend is the exact-language oracle: a Leo-optimized Earley
	// recognizer handling every grammar class — left and right recursion,
	// ambiguity, ambiguous lexicons — where the FSA paths accept a
	// superset and the LL(1) parser refuses most grammars outright. Like
	// ParserBackend it buffers the stream and recognizes at Close (one
	// stream = one sentence); on ambiguous input its matches are the union
	// over all derivations. It is the reference the precision rail
	// (scripts/precision.sh) measures the hardware paths against.
	EarleyBackend BackendKind = oracle.Earley
)

// served reports whether k spells the served table.
func (k BackendKind) served() bool { return k == "" || k == DFABackend || k == AOTBackend }

// checkServed is where the root decides what pipelines and tenants serve:
// nil for a spelling of the table, a ConfigError naming field for a
// reference or unknown kind.
func checkServed(k BackendKind, field string) error {
	if k.served() {
		return nil
	}
	reason := "unknown backend kind"
	switch k {
	case StreamBackend, GatesBackend, ParserBackend, EarleyBackend:
		reason = "reference backend, not served: " +
			"run it single-stream (Engine.NewBackend, cfgtagger -backend without -shards) or use the default table (dfa or aot)"
	}
	return &ConfigError{Field: field, Value: string(k), Reason: reason}
}

// BackendCounters reports what a Backend has processed: bytes fed, matches
// confirmed, section 5.2 recovery events, encoder index collisions and —
// on the served table — hits, misses and resets.
type BackendCounters = runtime.Counters

// Backend drives any of the execution paths through one streaming
// contract: Feed bytes, drain Matches, Close to flush the final byte (and,
// for the parser and earley paths, to obtain the verdict). Not safe for
// concurrent use.
type Backend struct {
	engine *Engine
	inner  runtime.Backend
	kind   BackendKind
	// pending is the buffer the inner backend appends to: the detections
	// confirmed since the last Matches call.
	pending []stream.Match
	// drained is the buffer Matches converts into and returns.
	drained []Match
}

// NewBackend instantiates one execution path behind the uniform contract:
// a spelling of the served table gets a runner of a table of its own, and
// every other kind is built by the references. GatesBackend generates the
// netlist, ParserBackend builds the LL(1) table and EarleyBackend compiles
// the recognizer, so those can fail; the served table and StreamBackend
// cannot.
func (e *Engine) NewBackend(kind BackendKind) (*Backend, error) {
	var f runtime.Factory
	var err error
	if kind.served() {
		f, _, err = runtime.NewFactory(e.spec, runtime.Limits{})
	} else {
		f, err = oracle.NewFactory(e.spec, string(kind))
	}
	if err != nil {
		return nil, err
	}
	b, err := f()
	if err != nil {
		return nil, err
	}
	return &Backend{engine: e, inner: b, kind: kind}, nil
}

// Kind returns which execution path this backend runs.
func (b *Backend) Kind() BackendKind { return b.kind }

// Reset rewinds to stream start for reuse.
func (b *Backend) Reset() {
	b.inner.Reset()
	b.pending = b.pending[:0]
}

// Feed streams bytes into the backend.
func (b *Backend) Feed(p []byte) (err error) {
	b.pending, err = b.inner.Feed(p, b.pending)
	return err
}

// Close flushes the stream's end. The parser backend parses here and
// returns the reject as the error.
func (b *Backend) Close() (err error) {
	b.pending, err = b.inner.Close(b.pending)
	return err
}

// Matches drains the detections confirmed since the previous call. The
// result lives in a buffer the Backend owns: it is valid until the next
// Matches or Reset — copy the elements (append(dst, ms...)) to keep them.
func (b *Backend) Matches() []Match {
	ms := b.pending
	b.pending = b.pending[:0]
	if len(ms) == 0 {
		return nil
	}
	b.drained = b.engine.matches(b.drained, ms)
	return b.drained
}

// Counters reports the backend's lifetime totals.
func (b *Backend) Counters() BackendCounters { return b.inner.Counters() }

// CompileStats is a table's size report: state count, byte-equivalence
// classes, table bytes and, for a table closed ahead of time, the closure
// duration.
type CompileStats = stream.CompileStats

// CompileStats reports the served table's current size — it grows as
// traffic fills it, and Duration stays zero because nothing is closed
// ahead of time; zero for the reference paths, which have no table.
func (b *Backend) CompileStats() CompileStats {
	if tb, ok := b.inner.(interface{ Table() *stream.Table }); ok {
		return tb.Table().CompileStats()
	}
	return CompileStats{}
}

// TagBatch is one unit of pipeline output: a chunk of one stream plus the
// matches confirmed over it. The batch handed to a deliver callback is
// pooled, Data and Tags included — all of it is only valid during the
// callback; copy what you keep. (Batches handed to DeadLetter are not
// pooled and may be kept.)
type TagBatch struct {
	// Stream is the key the bytes were Sent under.
	Stream string
	// Shard is the pipeline shard that processed this stream.
	Shard int
	// Data is the chunk of stream bytes this batch covers. It aliases a
	// pooled arena that is recycled when deliver returns.
	Data []byte
	// Tags holds the matches confirmed while processing Data. Like Data,
	// its backing array is reused for a later batch as soon as deliver
	// returns: copy the elements (append(dst, b.Tags...)), never keep the
	// slice.
	Tags []Match
	// EOS marks the stream's final batch.
	EOS bool
	// Evicted marks a final batch forced by the MaxStreams idle-LRU
	// eviction rather than by CloseStream (EOS is set too).
	Evicted bool
	// Err carries the fault that ended and quarantined the stream (test
	// with errors.Is against ErrBackendPanic, ErrResourceExhausted,
	// ErrBackendStalled); nil on a clean end.
	Err error
	// Version identifies the backend factory version that tagged this
	// batch: 1 at construction, incremented by each zero-downtime reload
	// (see Platform.Reload). Streams never change version mid-life.
	Version int
	// More is an output hint for callbacks that buffer what they write:
	// when set, the sink worker calling deliver already holds another batch
	// and will deliver it right after this one, so a flush can wait for it.
	// A batch with More unset ends the worker's run (its queue was empty)
	// and is the cue to flush; every run ends with one, including the last
	// batch before Close returns. Callbacks that write through can ignore
	// it, and the zero value means "flush".
	More bool

	// ms and engine are set on the batches a versionSink hands to deliver:
	// the engine's matches Tags was converted from (the runtime's pooled
	// buffer) and the engine of the grammar version that tagged them.
	// AppendText renders from them when engine is set.
	ms     []stream.Match
	engine *Engine
}

// Engine returns the engine that tagged the batch: that of the grammar
// version its stream bound when it started, so after a Platform.Reload
// the batches of streams opened before it keep reporting the old engine.
// It is set on the batches handed to a deliver callback and nil on
// DeadLetter and hand-built batches.
func (b *TagBatch) Engine() *Engine { return b.engine }

// AppendText renders the batch as newline-delimited events:
//
//	TAG <end> <index> <term> <context>\n     one line per match
//	END <total-tags>\n                       clean end of stream
//	ERR <message>\n                          faulted or evicted end
//
// Every line starts with prefix, and *total is the stream's running tag
// count: AppendText adds the batch's tags to it and writes it on the END
// line. A batch handed to a deliver callback renders the engine's matches
// from the grammar version's pre-rendered line tails — an edit to its
// Tags does not reach the text — and, like the rest of the batch, only
// during the callback. Any other batch renders from Tags.
func (b *TagBatch) AppendText(dst []byte, prefix string, total *int) []byte {
	if b.engine != nil {
		// Reserve the whole batch once, so the per-tag appends below
		// never grow dst: per line the prefix, "TAG ", at most 20 digits
		// and the longest tail.
		text := &b.engine.text
		dst = slices.Grow(dst, len(b.ms)*(len(prefix)+24+text.max))
		tails := text.tails
		// The head dst[h0:h1] is the last line's prefix, "TAG " and
		// the digits of hi = End / 10000, the part of a line that
		// changes once every 10 000 bytes of a stream: it is rendered
		// when hi changes and copied otherwise, and the low four
		// digits come from digitPairs.
		h0, h1, hi := 0, 0, int64(-1)
		for _, m := range b.ms {
			if m.End < 10000 {
				dst = appendTagStart(dst, prefix, m.End)
			} else {
				if q := m.End / 10000; q != hi {
					h0 = len(dst)
					dst = appendTagStart(dst, prefix, q)
					h1, hi = len(dst), q
				} else {
					dst = append(dst, dst[h0:h1]...)
				}
				lo := m.End % 10000
				p, q := 2*(lo/100), 2*(lo%100)
				dst = append(dst, digitPairs[p], digitPairs[p+1], digitPairs[q], digitPairs[q+1])
			}
			dst = append(dst, tails[m.InstanceID]...)
		}
		*total += len(b.ms)
	} else {
		// Per line the prefix, "TAG ", two numbers of at most 20 digits,
		// three separators and the newline, plus the names.
		need := len(b.Tags) * (len(prefix) + 4 + 20 + 1 + 20 + 1 + 1 + 1)
		for i := range b.Tags {
			need += len(b.Tags[i].Term) + len(b.Tags[i].Context)
		}
		dst = slices.Grow(dst, need)
		for i := range b.Tags {
			m := &b.Tags[i]
			dst = appendTagStart(dst, prefix, m.End)
			dst = appendTail(dst, m)
		}
		*total += len(b.Tags)
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
		dst = strconv.AppendInt(dst, int64(*total), 10)
	}
	return append(dst, '\n')
}

// appendTagStart renders the start of a TAG line: prefix, "TAG " and n.
func appendTagStart(dst []byte, prefix string, n int64) []byte {
	dst = append(dst, prefix...)
	dst = append(dst, "TAG "...)
	return strconv.AppendInt(dst, n, 10)
}

// digitPairs is the two-digit decimal form of 0–99, back to back.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

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

// batchHeader copies everything of b but its tags.
func batchHeader(b *runtime.Batch) TagBatch {
	return TagBatch{Stream: b.Key, Shard: b.Shard, Data: b.Data, EOS: b.EOS, Evicted: b.Evicted, Err: b.Err, Version: b.Version, More: b.More}
}

// toTagBatch converts b into a freshly allocated batch the receiver may
// keep — the DeadLetter path. It holds no reference to b's pooled match
// buffer, so it renders from Tags.
func (e *Engine) toTagBatch(b *runtime.Batch) *TagBatch {
	tb := batchHeader(b)
	if len(b.Tags) > 0 {
		tb.Tags = e.matches(nil, b.Tags)
	}
	return &tb
}

// maxPooledTags bounds how large a Tags backing array the pool keeps: one
// huge batch must not pin its array for good.
const maxPooledTags = 8192

// pooledBatch is the TagBatch a versionSink hands to deliver, plus the
// Tags backing array it reuses from batch to batch. The array is held
// here and not only in batch.Tags so that a callback overwriting its
// batch cannot reach into the pool.
type pooledBatch struct {
	batch TagBatch
	tags  []Match
}

var batchPool = sync.Pool{New: func() any { return new(pooledBatch) }}

// getBatch converts b into a pooled batch; versionSink.Deliver hands
// &pb.batch to deliver and calls putBatch when deliver has returned.
func (e *Engine) getBatch(b *runtime.Batch) *pooledBatch {
	pb := batchPool.Get().(*pooledBatch)
	pb.batch = batchHeader(b)
	if len(b.Tags) > 0 {
		pb.tags = e.matches(pb.tags, b.Tags)
		pb.batch.Tags = pb.tags
	}
	pb.batch.ms = b.Tags
	pb.batch.engine = e
	return pb
}

// putBatch releases pb, dropping its references to the runtime's match
// buffer and the engine with the rest of the batch.
func putBatch(pb *pooledBatch) {
	pb.batch = TagBatch{}
	if cap(pb.tags) > maxPooledTags {
		pb.tags = nil
	}
	batchPool.Put(pb)
}

// versionSink is one factory version's sink: it decodes the version's
// batches with the engine of the grammar that tagged them, and its Close,
// called when the version retires, discharges the version's table from the
// memory gauge.
type versionSink struct {
	engine  *Engine
	release func()
	deliver func(*TagBatch) error
}

func (s *versionSink) Deliver(b *runtime.Batch) error {
	pb := s.engine.getBatch(b)
	err := s.deliver(&pb.batch)
	putBatch(pb)
	return err
}

func (s *versionSink) Close() error {
	s.release()
	return nil
}

// newVersion mints one factory version of e: the served table's factory,
// bounded by lim and wrapped by wrap when it is set, and the sink that
// delivers its batches to deliver.
func (e *Engine) newVersion(lim StreamLimits, wrap func(runtime.Factory) runtime.Factory, deliver func(*TagBatch) error) (runtime.Factory, *versionSink, error) {
	f, release, err := runtime.NewFactory(e.spec, lim)
	if err != nil {
		return nil, nil, err
	}
	if wrap != nil {
		f = wrap(f)
	}
	return f, &versionSink{engine: e, release: release, deliver: deliver}, nil
}

// startPipeline is how every served pipeline starts — Engine.NewPipeline
// and each platform tenant: it mints version 1 of e bounded by lim,
// wrapped by wrap when set, and starts the pipeline cfg describes on it,
// with the factory's gauge (lim.Mem) as the pipeline's, so one gauge
// counts the table and the queued chunks alike.
func (e *Engine) startPipeline(cfg runtime.Config, lim StreamLimits, wrap func(runtime.Factory) runtime.Factory, deliver func(*TagBatch) error) (*runtime.Pipeline, error) {
	f, sink, err := e.newVersion(lim, wrap, deliver)
	if err != nil {
		return nil, err
	}
	cfg.Factory, cfg.Mem = f, lim.Mem
	p, err := runtime.NewPipeline(cfg, sink)
	if err != nil {
		sink.Close()
		return nil, err
	}
	return p, nil
}

// Metrics is a pipeline's counter set: bytes, matches, recoveries,
// collisions, table cache stats, the queue-depth high-water mark and, via
// Faults, the fault and overload counters. The pipeline adds to it where
// each event happens; its readers are safe for concurrent use. The zero
// value is ready.
type Metrics = runtime.MetricCounters

// PipelineConfig tunes a sharded pipeline.
type PipelineConfig struct {
	// Backend names the execution path each shard runs: "", "dfa" and "aot"
	// all select the served table; a reference kind is rejected.
	Backend BackendKind
	// Shards is the number of tagging shards (0 = GOMAXPROCS). Streams
	// have shard affinity: one stream is always tagged by the same shard.
	Shards int
	// Queue is each shard's input queue depth in batches (0 = 64).
	Queue int
	// Metrics, when set, is the counter set the pipeline writes, so the
	// caller can read it while the pipeline runs and after Close.
	Metrics *Metrics
	// MaxStreams caps the live streams per shard (0 = unlimited). At the
	// cap, the least-recently-fed stream is flushed and delivered as a
	// final batch with Evicted set.
	MaxStreams int
	// Quarantine is how long a stream key is rejected after its backend
	// faults (0 = 30s default; negative disables quarantine).
	Quarantine time.Duration
	// SinkAttempts is how many times a failing deliver callback is tried
	// per batch, first attempt included (0 = 3).
	SinkAttempts int
	// SinkBackoff is the base retry delay, doubled per retry with jitter
	// and capped (0 = 1ms).
	SinkBackoff time.Duration
	// DeadLetter, when set, receives batches whose deliver attempts were
	// exhausted; the pipeline then carries on. When nil, an exhausted
	// batch fails the pipeline permanently instead.
	DeadLetter func(*TagBatch, error)
	// BatchBytes is the per-shard coalescing threshold: chunks for a
	// shard are batched into one pooled dispatch message until this many
	// bytes are pending or the shard goes idle (0 = 64 KiB default;
	// negative disables coalescing and dispatches every Send
	// immediately).
	BatchBytes int
	// SinkWorkers is the number of delivery workers (0 or 1 = a single
	// worker, the classic serialized sink). With more than one, batches
	// for the same stream still arrive in order on one worker, but
	// deliver must be safe for concurrent use across streams.
	SinkWorkers int
	// SendTimeout switches Send from backpressure to load shedding: 0
	// blocks on a full shard queue (the default), a negative value sheds
	// immediately, and a positive value waits at most that long before
	// shedding. A shed Send fails with ErrOverloaded, accepts none of the
	// chunk's bytes, and leaves the stream otherwise intact.
	SendTimeout time.Duration
	// FeedDeadline arms the backend watchdog: a Feed or Close call
	// exceeding it marks the stream's backend stalled, ends the stream
	// with an error wrapping ErrBackendStalled and quarantines its key
	// (0 = watchdog disabled).
	FeedDeadline time.Duration
	// BreakerThreshold arms the sink circuit breaker: after this many
	// consecutive retry-exhausted deliveries a sink worker opens and sheds
	// batches straight to DeadLetter (wrapping ErrBreakerOpen) until a
	// cooldown probe succeeds (0 = breaker disabled; requires DeadLetter).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before probing the
	// sink again (0 = 1s).
	BreakerCooldown time.Duration
	// Limits bounds each stream's backend resources (matches per chunk) and
	// optionally carries the memory gauge aggregate budgets read; the zero
	// value is unlimited.
	Limits StreamLimits
}

// StreamLimits bounds one stream's backend resource consumption; see
// runtime.Limits for field semantics. A tripped bound ends only the
// offending stream, with a TagBatch.Err wrapping ErrResourceExhausted.
type StreamLimits = runtime.Limits

// MemGauge aggregates the pipeline's estimated live bytes — queued chunk
// arenas and tag buffers, the transition table — for memory budgeting.
type MemGauge = runtime.MemGauge

// ErrPipelineClosed is returned by Pipeline.Send, Pipeline.CloseStream and
// a second Pipeline.Close once the pipeline has been closed (test with
// errors.Is). A Send racing Close either enqueues fully — its batch is
// delivered before Close returns — or fails with this error; chunks are
// never partially accepted.
var ErrPipelineClosed = runtime.ErrClosed

// ErrStreamQuarantined is returned (wrapped, test with errors.Is) by Send
// and CloseStream for a key whose backend recently faulted and is still
// inside its quarantine window.
var ErrStreamQuarantined = runtime.ErrQuarantined

// ErrBackendPanic is the sentinel wrapped into a TagBatch.Err when the
// stream's backend panicked; the pipeline recovers the panic, ends the
// stream and quarantines its key.
var ErrBackendPanic = runtime.ErrBackendPanic

// ErrOverloaded is returned (wrapped, test with errors.Is) by Send in shed
// mode (PipelineConfig.SendTimeout != 0) when the stream's shard queue is
// at its high watermark: the chunk was rejected whole, the stream remains
// healthy, and the caller should back off and retry.
var ErrOverloaded = runtime.ErrOverloaded

// ErrResourceExhausted is the sentinel wrapped into a TagBatch.Err (and
// Send errors under a tenant memory budget) when a per-stream resource
// bound tripped (StreamLimits.MaxPendingMatches). The stream is ended and
// quarantined; other streams are unaffected.
var ErrResourceExhausted = runtime.ErrResourceExhausted

// ErrBackendStalled is the sentinel wrapped into a TagBatch.Err when a
// backend call outran PipelineConfig.FeedDeadline (the watchdog verdict).
var ErrBackendStalled = runtime.ErrBackendStalled

// ErrBreakerOpen is the sentinel wrapped into the DeadLetter error for
// batches shed by an open sink circuit breaker.
var ErrBreakerOpen = runtime.ErrBreakerOpen

// PermanentDeliverError marks an error returned by the deliver callback as
// permanent: the pipeline skips retries and dead-lettering and fails fast,
// surfacing the error from Err, Send and Close.
func PermanentDeliverError(err error) error { return runtime.PermanentError(err) }

// FaultStats aggregates the pipeline's fault-tolerance counters; read it
// from Metrics.Faults().
type FaultStats = runtime.FaultStats

// Pipeline fans a keyed stream population out over tagging shards: Send
// dispatches chunks by stream key, each shard runs one Backend per live
// stream, and completed tag batches are delivered — in per-stream order,
// serialized on a single goroutine — to the deliver callback. Send and
// CloseStream are safe for concurrent use.
type Pipeline struct {
	inner *runtime.Pipeline
}

// NewPipeline starts a sharded pipeline delivering tag batches to deliver,
// which must not retain b, b.Data or b.Tags past the call (the batch is
// pooled, see TagBatch). The pipeline owns its goroutines until Close.
// Only the served table runs here: a StreamBackend, GatesBackend,
// ParserBackend or EarleyBackend config is rejected with an error wrapping
// ErrInvalidConfig.
func (e *Engine) NewPipeline(cfg PipelineConfig, deliver func(*TagBatch) error) (*Pipeline, error) {
	if err := checkServed(cfg.Backend, "PipelineConfig.Backend"); err != nil {
		return nil, err
	}
	rcfg := runtime.Config{
		Shards:           cfg.Shards,
		Queue:            cfg.Queue,
		MaxStreams:       cfg.MaxStreams,
		Quarantine:       cfg.Quarantine,
		SinkAttempts:     cfg.SinkAttempts,
		SinkBackoff:      cfg.SinkBackoff,
		BatchBytes:       cfg.BatchBytes,
		SinkWorkers:      cfg.SinkWorkers,
		SendTimeout:      cfg.SendTimeout,
		FeedDeadline:     cfg.FeedDeadline,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Metrics:          cfg.Metrics,
	}
	if cfg.DeadLetter != nil {
		dl := cfg.DeadLetter
		rcfg.DeadLetter = func(b *runtime.Batch, err error) { dl(e.toTagBatch(b), err) }
	}
	p, err := e.startPipeline(rcfg, cfg.Limits, nil, deliver)
	if err != nil {
		return nil, err
	}
	return &Pipeline{inner: p}, nil
}

// Send routes one chunk of the keyed stream to its shard. It blocks when
// the shard's queue is full (backpressure) and fails with
// ErrPipelineClosed after Close.
func (p *Pipeline) Send(stream string, data []byte) error { return p.inner.Send(stream, data) }

// CloseStream ends one stream: its backend is flushed and its final batch
// is delivered with EOS set.
func (p *Pipeline) CloseStream(stream string) error { return p.inner.CloseStream(stream) }

// Close flushes every open stream, stops the shards, discharges the
// table from Limits.Mem, and returns the first deliver error.
func (p *Pipeline) Close() error { return p.inner.Close() }

// Err reports the pipeline's permanent delivery failure, if any: non-nil
// once the deliver callback returned a PermanentDeliverError or exhausted
// its attempts with no DeadLetter configured. Send and Close return the
// same error from then on.
func (p *Pipeline) Err() error { return p.inner.Err() }

// Lexeme recovers the matched text of m from the input it was tagged in.
// The hardware reports only where a token ends; the lexeme is the longest
// suffix of input[:End+1] matching the token's pattern (exact for every
// deterministic token, and for the built-in grammars).
func (e *Engine) Lexeme(input []byte, m Match) string {
	in := e.spec.Instances[m.InstanceID]
	end := int(m.End) + 1
	if end > len(input) {
		return ""
	}
	n := in.Program.LongestSuffix(input[:end])
	if n <= 0 {
		return ""
	}
	return string(input[end-n : end])
}

// Lint reports non-fatal design smells in the compiled grammar (delimiter
// overlaps, encoder conflict sets, barely-constraining wiring).
func (e *Engine) Lint() []string { return e.spec.Lint() }

// FollowTable renders the per-terminal Follow sets (figure 10).
func (e *Engine) FollowTable() string { return e.spec.Sets.TerminalFollowTable() }

// Wiring renders the tokenizer instances and their Follow wiring
// (figure 11 in text form).
func (e *Engine) Wiring() string { return e.spec.DumpWiring() }
