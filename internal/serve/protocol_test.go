package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestParseHandshake(t *testing.T) {
	cases := []struct {
		in      string
		want    Handshake
		wantErr error
	}{
		{"CFGTAG/1 STREAM alpha key-1\n", Handshake{Tenant: "alpha", Key: "key-1"}, nil},
		{"CFGTAG/1 MUX alpha\n", Handshake{Tenant: "alpha", Mux: true}, nil},
		{"CFGTAG/1 MUX alpha extra\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM alpha\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/2 STREAM alpha key\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM  key\n", Handshake{}, ErrBadName},
		{"CFGTAG/1 STREAM al pha key\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM alpha " + strings.Repeat("k", MaxNameLen+1) + "\n", Handshake{}, ErrBadName},
		{"\n", Handshake{}, ErrBadHandshake},
		{"CFGTAG/1 STREAM alpha k\x00ey\n", Handshake{}, ErrBadName},
		{strings.Repeat("x", MaxLineLen+10), Handshake{}, ErrLineTooLong},
		{"CFGTAG/1 STREAM alpha key", Handshake{}, io.ErrUnexpectedEOF},
		{"", Handshake{}, io.EOF},
	}
	for _, c := range cases {
		hs, err := NewFrameReader(strings.NewReader(c.in)).ReadHandshake()
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Errorf("ReadHandshake(%q) err = %v, want %v", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil || hs != c.want {
			t.Errorf("ReadHandshake(%q) = %+v, %v; want %+v", c.in, hs, err, c.want)
		}
	}
}

func TestParseFrames(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, Frame{Op: FrameOpen, Key: "s1"})
	buf = AppendFrame(buf, Frame{Op: FrameData, Key: "s1", Payload: []byte("hello\nworld")})
	buf = AppendFrame(buf, Frame{Op: FrameData, Key: "s1", Payload: nil})
	buf = AppendFrame(buf, Frame{Op: FrameClose, Key: "s1"})
	fr := NewFrameReader(bytes.NewReader(buf))
	f, err := fr.ReadFrame()
	if err != nil || f.Op != FrameOpen || f.Key != "s1" {
		t.Fatalf("frame 1: %+v, %v", f, err)
	}
	f, err = fr.ReadFrame()
	if err != nil || f.Op != FrameData || string(f.Payload) != "hello\nworld" {
		t.Fatalf("frame 2: %+v, %v", f, err)
	}
	f, err = fr.ReadFrame()
	if err != nil || f.Op != FrameData || len(f.Payload) != 0 {
		t.Fatalf("frame 3: %+v, %v", f, err)
	}
	f, err = fr.ReadFrame()
	if err != nil || f.Op != FrameClose || f.Key != "s1" {
		t.Fatalf("frame 4: %+v, %v", f, err)
	}
	if _, err = fr.ReadFrame(); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

func TestParseFrameErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantErr error
	}{
		{"NOPE s1\n", ErrBadFrame},
		{"OPEN\n", ErrBadFrame},
		{"OPEN a b\n", ErrBadFrame},
		{"DATA s1\n", ErrBadFrame},
		{"DATA s1 -1\n", ErrBadFrame},
		{"DATA s1 007\n", ErrBadFrame},
		{"DATA s1 999999999\n", ErrBadFrame},
		{"DATA s1 1048577\n", ErrPayloadTooLarge},
		{"DATA s1 5\nab", io.ErrUnexpectedEOF},
		{"DATA s1 2\nabX", ErrBadFrame}, // desynced length: no terminator
		{"CLOSE " + strings.Repeat("k", MaxNameLen+1) + "\n", ErrBadName},
		{"OPEN \x01\n", ErrBadName},
	}
	for _, c := range cases {
		_, err := NewFrameReader(strings.NewReader(c.in)).ReadFrame()
		if !errors.Is(err, c.wantErr) {
			t.Errorf("ReadFrame(%q) err = %v, want %v", c.in, err, c.wantErr)
		}
	}
}

// TestFrameRoundTrip: whatever AppendFrame writes, ReadFrame returns.
func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: FrameOpen, Key: "k"},
		{Op: FrameData, Key: "k", Payload: bytes.Repeat([]byte{0xf7}, 1000)},
		{Op: FrameData, Key: strings.Repeat("K", MaxNameLen), Payload: []byte("x")},
		{Op: FrameClose, Key: "k"},
	}
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, want := range frames {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.Key != want.Key || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestReadFramePayloadSizes reads DATA frames on both sides of the reader's
// buffer edge — a payload that fits with its terminator is returned in
// place, a larger one is copied — through readers that return one byte,
// half of what is asked, or everything. Every size gives the frame that
// was written, whether the key is open or not; a wrong terminator is
// ErrBadFrame, and a truncated payload or missing terminator is
// io.ErrUnexpectedEOF.
func TestReadFramePayloadSizes(t *testing.T) {
	size := NewFrameReader(nil).r.Size()
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"whole", func(r io.Reader) io.Reader { return r }},
	}
	const key = "s1"
	for _, n := range []int{0, 1, size - 2, size - 1, size, size + 1, 64 << 10, MaxFramePayload} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + i>>8) // newlines included
		}
		want := []Frame{
			{Op: FrameOpen, Key: key},
			{Op: FrameData, Key: key, Payload: payload},
			{Op: FrameData, Key: key, Payload: []byte("z")},
			{Op: FrameClose, Key: key},
		}
		var wire []byte
		for _, f := range want {
			wire = AppendFrame(wire, f)
		}
		data := AppendFrame(nil, want[1])
		head := len(data) - n - 1 // the header line's length
		bad := append(data[:len(data)-1:len(data)-1], 'X')
		for _, rd := range readers {
			t.Run(fmt.Sprintf("%d/%s", n, rd.name), func(t *testing.T) {
				ss := &session{key: key, prefix: key + " "}
				for _, open := range []map[string]*session{nil, {key: ss}} {
					fr := NewFrameReader(rd.wrap(bytes.NewReader(wire)))
					for i, w := range want {
						f, got, _, err := fr.readFrame(open)
						if err != nil {
							t.Fatalf("open=%v frame %d: %v", open != nil, i, err)
						}
						if f.Op != w.Op || f.Key != w.Key || !bytes.Equal(f.Payload, w.Payload) {
							t.Fatalf("open=%v frame %d: got op %d key %q %d B, want op %d key %q %d B",
								open != nil, i, f.Op, f.Key, len(f.Payload), w.Op, w.Key, len(w.Payload))
						}
						if (got != nil) != (open != nil) || got != nil && got != ss {
							t.Fatalf("open=%v frame %d: session %p, want %p", open != nil, i, got, ss)
						}
					}
					if _, _, _, err := fr.readFrame(open); err != io.EOF {
						t.Fatalf("open=%v trailing read: %v, want io.EOF", open != nil, err)
					}
				}
				cases := []struct {
					name string
					in   []byte
					err  error
				}{
					{"wrong terminator", bad, ErrBadFrame},
					{"no terminator", data[:len(data)-1], io.ErrUnexpectedEOF},
					{"inside payload", data[:head+n/2], io.ErrUnexpectedEOF},
				}
				for _, c := range cases {
					_, err := NewFrameReader(rd.wrap(bytes.NewReader(c.in))).ReadFrame()
					if !errors.Is(err, c.err) {
						t.Errorf("%s: err = %v, want %v", c.name, err, c.err)
					}
				}
			})
		}
	}
}
