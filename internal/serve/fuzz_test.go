package serve

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzServeFrame throws arbitrary bytes at the connection-facing parser
// (handshake line followed by a frame stream) and checks the invariants
// that keep a hostile client from hurting the server: every error is
// either io.EOF, io.ErrUnexpectedEOF or a typed ErrProtocol; payloads
// never exceed MaxFramePayload; keys and tenants returned to the caller
// are always valid names; and the parser terminates.
func FuzzServeFrame(f *testing.F) {
	// Well-formed exchanges.
	f.Add([]byte("CFGTAG/1 STREAM alpha key-1\nif true then go else stop"))
	f.Add([]byte("CFGTAG/1 MUX alpha\nOPEN s1\nDATA s1 5\nhello\nCLOSE s1\n"))
	f.Add([]byte("CFGTAG/1 MUX t\nOPEN a\nOPEN b\nDATA a 0\n\nCLOSE b\nCLOSE a\n"))
	// A payload past the reader's 32 KiB buffer takes the copy path, the
	// small one behind it the in-place path.
	big := AppendHandshake(nil, Handshake{Tenant: "t", Mux: true})
	big = AppendFrame(big, Frame{Op: FrameData, Key: "a", Payload: bytes.Repeat([]byte("x\n"), 20<<10)})
	f.Add(AppendFrame(big, Frame{Op: FrameData, Key: "a", Payload: []byte("y")}))
	// Truncations at every interesting boundary.
	f.Add([]byte("CFGTAG/1"))
	f.Add([]byte("CFGTAG/1 MUX alpha\nDATA s1 10\nhel"))
	f.Add([]byte("CFGTAG/1 MUX alpha\nOPEN s1\nDATA s1 5\n"))
	// Oversized declarations and lines.
	f.Add([]byte("CFGTAG/1 MUX a\nDATA s1 1048577\n"))
	f.Add([]byte("CFGTAG/1 MUX a\nDATA s1 99999999\n"))
	f.Add([]byte("CFGTAG/1 STREAM " + strings.Repeat("t", 300) + " k\n"))
	f.Add(bytes.Repeat([]byte("x"), MaxLineLen+64))
	// Binary garbage and malformed headers.
	f.Add([]byte("\x00\x01\x02\x03\xff\xfe\n"))
	f.Add([]byte("CFGTAG/1 MUX a\nDATA s1 007\n1234567"))
	f.Add([]byte("CFGTAG/1 MUX a\nDATA s1 -3\n"))
	f.Add([]byte("CFGTAG/1 MUX a\nDATA s1 3\nabcX"))
	f.Add([]byte("CFGTAG/9 STREAM a b\n"))
	f.Add([]byte("CFGTAG/1 MUX \x7f\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		hs, err := fr.ReadHandshake()
		if err != nil {
			checkParseErr(t, err)
			return
		}
		if !validName([]byte(hs.Tenant)) {
			t.Fatalf("handshake accepted invalid tenant %q", hs.Tenant)
		}
		if !hs.Mux && !validName([]byte(hs.Key)) {
			t.Fatalf("handshake accepted invalid key %q", hs.Key)
		}
		if !hs.Mux {
			return // rest of the connection is opaque stream payload
		}
		for i := 0; ; i++ {
			fr2, err := fr.ReadFrame()
			if err != nil {
				checkParseErr(t, err)
				return
			}
			if !validName([]byte(fr2.Key)) {
				t.Fatalf("frame %d accepted invalid key %q", i, fr2.Key)
			}
			if len(fr2.Payload) > MaxFramePayload {
				t.Fatalf("frame %d payload %d exceeds cap", i, len(fr2.Payload))
			}
			if fr2.Op != FrameOpen && fr2.Op != FrameData && fr2.Op != FrameClose {
				t.Fatalf("frame %d has unknown op %d", i, fr2.Op)
			}
		}
	})
}

// checkParseErr asserts a parser error is one of the declared kinds.
func checkParseErr(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrProtocol) {
		return
	}
	t.Fatalf("parser returned undeclared error %v", err)
}
