package router

import (
	"fmt"
	"testing"

	"cfgtag/internal/core"
	"cfgtag/internal/grammar"
	"cfgtag/internal/runtime"
	"cfgtag/internal/xmlrpc"
)

// streamFactory builds the stream-engine backend factory of spec.
func streamFactory(t *testing.T, spec *core.Spec) runtime.Factory {
	t.Helper()
	f, _, err := runtime.NewFactory(spec, runtime.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// deliverTo feeds a pipeline's batches, all tagged with spec, to sink.
func deliverTo(sink *Sink, spec *core.Spec) runtime.SinkFunc {
	return func(b *runtime.Batch) error { return sink.Deliver(b.Key, spec, b.Data, b.Tags, b.EOS) }
}

// sinkPipeline wires a Sink behind a sharded pipeline over the same spec.
func sinkPipeline(t *testing.T, shards int) (*runtime.Pipeline, *Sink) {
	t.Helper()
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(spec, "methodName", FigureTwelve(), 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runtime.NewPipeline(runtime.Config{Shards: shards, Factory: streamFactory(t, spec)}, deliverTo(sink, spec))
	if err != nil {
		t.Fatal(err)
	}
	return p, sink
}

func TestSinkRoutesInterleavedStreams(t *testing.T) {
	p, sink := sinkPipeline(t, 4)
	type routedFrom struct {
		stream  string
		service string
		port    int
	}
	var got []routedFrom
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		got = append(got, routedFrom{stream, service, port})
	}

	// Three connections, each carrying its own message sequence, fed in
	// interleaved chunks so messages straddle batch boundaries.
	const conns = 3
	texts := make([][]byte, conns)
	wantSvc := make([][]string, conns)
	for i := range texts {
		gen := xmlrpc.NewGenerator(int64(100+i), xmlrpc.Options{})
		corpus, services := gen.Corpus(5)
		texts[i] = []byte(corpus)
		wantSvc[i] = services
	}
	for off := 0; ; off++ {
		sent := false
		for i, text := range texts {
			lo, hi := off*13, (off+1)*13
			if lo >= len(text) {
				continue
			}
			if hi > len(text) {
				hi = len(text)
			}
			if err := p.Send(fmt.Sprintf("conn-%d", i), text[lo:hi]); err != nil {
				t.Fatal(err)
			}
			sent = true
		}
		if !sent {
			break
		}
	}
	for i := range texts {
		p.CloseStream(fmt.Sprintf("conn-%d", i))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Per-stream order must match that stream's generated sequence.
	perStream := make(map[string][]routedFrom)
	for _, r := range got {
		perStream[r.stream] = append(perStream[r.stream], r)
	}
	for i := range texts {
		key := fmt.Sprintf("conn-%d", i)
		rs := perStream[key]
		if len(rs) != len(wantSvc[i]) {
			t.Fatalf("%s: routed %d messages, want %d", key, len(rs), len(wantSvc[i]))
		}
		for j, want := range wantSvc[i] {
			if rs[j].service != want {
				t.Errorf("%s message %d: service %q, want %q", key, j, rs[j].service, want)
			}
			if rs[j].port != xmlrpc.ServiceDestination(want) {
				t.Errorf("%s message %d: port %d, want %d", key, j, rs[j].port, xmlrpc.ServiceDestination(want))
			}
		}
	}
	st := sink.Stats()
	if want := conns * 5; st.Messages != want {
		t.Errorf("stats.Messages = %d, want %d", st.Messages, want)
	}
	if st.Unknown != 0 || st.Incomplete != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSinkCountsIncompleteStreams(t *testing.T) {
	p, sink := sinkPipeline(t, 2)
	p.Send("cut", []byte("<methodCall> <methodName>buy</methodName>"))
	p.CloseStream("cut")
	if err := p.Close(); err != nil {
		t.Fatalf("truncated stream failed the pipeline: %v", err)
	}
	st := sink.Stats()
	if st.Incomplete != 1 {
		t.Errorf("stats.Incomplete = %d, want 1", st.Incomplete)
	}
	if st.Messages != 0 {
		t.Errorf("stats.Messages = %d, want 0", st.Messages)
	}
}

func TestSinkValidationDivertsPerStream(t *testing.T) {
	spec, err := core.Compile(grammar.XMLRPC(), core.Options{FreeRunningStart: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(spec, "methodName", FigureTwelve(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.EnableValidation(0, 66); err != nil {
		t.Fatal(err)
	}
	ports := make(map[string]int)
	sink.OnRoute = func(stream string, port int, service string, message []byte) {
		ports[stream] = port
	}
	p, err := runtime.NewPipeline(runtime.Config{Shards: 2, Factory: streamFactory(t, spec)}, deliverTo(sink, spec))
	if err != nil {
		t.Fatal(err)
	}
	good := "<methodCall> <methodName>buy</methodName> <params> </params> </methodCall>\n"
	// Inner struct closed, outer left open: the stack-less tagger accepts
	// it, the stack extension catches it (the recursion-collapse hole).
	bad := "<methodCall> <methodName>sell</methodName> <params> <param> " +
		"<struct> <member> <name>a</name> " +
		"<struct> <member> <name>b</name> <i4>1</i4> </member> </struct> " +
		"</param> </params> </methodCall>\n"
	p.Send("ok", []byte(good))
	p.Send("evil", []byte(bad))
	p.CloseStream("ok")
	p.CloseStream("evil")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if ports["ok"] != xmlrpc.ServiceDestination("buy") {
		t.Errorf("valid stream routed to %d", ports["ok"])
	}
	if ports["evil"] != 66 {
		t.Errorf("mis-nested stream routed to %d, want invalid port 66", ports["evil"])
	}
	if st := sink.Stats(); st.Invalid != 1 {
		t.Errorf("stats.Invalid = %d, want 1", st.Invalid)
	}
}
