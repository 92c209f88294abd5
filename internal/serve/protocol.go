// Package serve is the network-facing service layer: pluggable stream
// inputs (TCP, HTTP) feeding a Core — normally a cfgtag.Platform —
// through the multi-tenant Send/CloseStream contract, per-stream tag
// outputs written back to clients, a text /metrics + /healthz endpoint,
// and a graceful drain state machine for SIGTERM-style shutdown.
//
// The TCP wire protocol (one line-oriented handshake, then either a raw
// stream or key-multiplexed frames) is deliberately small enough to
// parse with a hardened reader; FrameReader is the fuzz surface.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Wire-protocol limits. Every limit is enforced by the parser before any
// allocation proportional to attacker-controlled sizes.
const (
	// MaxLineLen caps a handshake or frame-header line, newline included.
	MaxLineLen = 4096
	// MaxNameLen caps a tenant name or stream key on the wire.
	MaxNameLen = 256
	// MaxFramePayload caps one DATA frame's payload.
	MaxFramePayload = 1 << 20
)

// handshakeMagic starts every protocol-mode connection.
const handshakeMagic = "CFGTAG/1"

// Typed parse errors; all wire rejections wrap ErrProtocol.
var (
	// ErrProtocol is the sentinel wrapped by every handshake/frame
	// rejection. Test with errors.Is.
	ErrProtocol = errors.New("serve: protocol error")
	// ErrBadHandshake rejects a malformed handshake line.
	ErrBadHandshake = fmt.Errorf("%w: bad handshake", ErrProtocol)
	// ErrBadFrame rejects a malformed frame header.
	ErrBadFrame = fmt.Errorf("%w: bad frame", ErrProtocol)
	// ErrLineTooLong rejects a header line beyond MaxLineLen.
	ErrLineTooLong = fmt.Errorf("%w: line too long", ErrProtocol)
	// ErrBadName rejects a tenant or key that is empty, over MaxNameLen,
	// or contains bytes outside printable non-space ASCII.
	ErrBadName = fmt.Errorf("%w: bad name", ErrProtocol)
	// ErrPayloadTooLarge rejects a DATA length beyond MaxFramePayload.
	ErrPayloadTooLarge = fmt.Errorf("%w: payload too large", ErrProtocol)
)

// Handshake is the parsed first line of a protocol-mode connection:
//
//	CFGTAG/1 STREAM <tenant> <key>\n   the rest of the conn is one stream
//	CFGTAG/1 MUX <tenant>\n            OPEN/DATA/CLOSE frames follow
type Handshake struct {
	Tenant string
	Key    string // stream mode only
	Mux    bool
}

// FrameOp is a mux-mode frame verb.
type FrameOp byte

const (
	// FrameOpen opens a keyed stream on the connection.
	FrameOpen FrameOp = iota
	// FrameData carries payload bytes for an open stream.
	FrameData
	// FrameClose ends a keyed stream.
	FrameClose
)

// Frame is one parsed mux-mode frame:
//
//	OPEN <key>\n
//	DATA <key> <n>\n<n payload bytes>\n
//	CLOSE <key>\n
//
// Payload aliases the reader's internal buffer and is only valid until
// the next ReadFrame call.
type Frame struct {
	Op      FrameOp
	Key     string
	Payload []byte
}

// validName reports whether b is a legal tenant name or stream key:
// 1..MaxNameLen bytes of printable ASCII with no spaces.
func validName(b []byte) bool {
	if len(b) == 0 || len(b) > MaxNameLen {
		return false
	}
	for _, c := range b {
		if c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

// FrameReader parses the TCP wire protocol from r with hard limits on
// every field. It is not safe for concurrent use.
type FrameReader struct {
	r       *bufio.Reader
	payload []byte
}

// NewFrameReader wraps r for handshake and frame parsing.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 32<<10)}
}

// readLine reads one \n-terminated line of at most MaxLineLen bytes and
// returns it without the newline. A line at the limit with no newline is
// ErrLineTooLong; EOF mid-line is io.ErrUnexpectedEOF; immediate EOF is
// io.EOF. The line aliases the reader's buffer (32 KiB, so a line within
// the limit always fits) and is only valid until the next read.
func (fr *FrameReader) readLine() ([]byte, error) {
	line, err := fr.r.ReadSlice('\n')
	if err == nil {
		line = line[:len(line)-1]
	}
	if len(line) >= MaxLineLen || err == bufio.ErrBufferFull {
		return nil, ErrLineTooLong
	}
	if err == io.EOF && len(line) > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}

// fields splits line on single spaces into at most max+1 parts; the
// protocol forbids empty fields, so doubled spaces fail validName later.
func fields(line []byte, dst [][]byte) [][]byte {
	start := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return dst
}

// ReadHandshake parses the connection's first line.
func (fr *FrameReader) ReadHandshake() (Handshake, error) {
	line, err := fr.readLine()
	if err != nil {
		if errors.Is(err, ErrProtocol) {
			return Handshake{}, fmt.Errorf("%w: %w", ErrBadHandshake, err)
		}
		return Handshake{}, err
	}
	var parts [][]byte
	parts = fields(line, parts)
	if len(parts) < 3 || string(parts[0]) != handshakeMagic {
		return Handshake{}, ErrBadHandshake
	}
	switch string(parts[1]) {
	case "STREAM":
		if len(parts) != 4 || !validName(parts[2]) || !validName(parts[3]) {
			return Handshake{}, fmt.Errorf("%w: %w", ErrBadHandshake, ErrBadName)
		}
		return Handshake{Tenant: string(parts[2]), Key: string(parts[3])}, nil
	case "MUX":
		if len(parts) != 3 || !validName(parts[2]) {
			return Handshake{}, fmt.Errorf("%w: %w", ErrBadHandshake, ErrBadName)
		}
		return Handshake{Tenant: string(parts[2]), Mux: true}, nil
	}
	return Handshake{}, ErrBadHandshake
}

// ReadFrame parses the next mux-mode frame. io.EOF marks a clean end of
// the connection between frames.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	f, _, _, err := fr.readFrame(nil)
	return f, err
}

// readFrame is ReadFrame with the connection's open sessions: it returns
// the session open holds for the frame's key (nil if none) and the key's
// line prefix, the key and one space. The frame's Key and the prefix are
// then the strings that session holds, so a frame of an open stream costs
// one lookup and no allocation; any other key costs one, whose bytes the
// Key and the prefix share.
func (fr *FrameReader) readFrame(open map[string]*session) (Frame, *session, string, error) {
	line, err := fr.readLine()
	if err != nil {
		if errors.Is(err, ErrProtocol) {
			return Frame{}, nil, "", fmt.Errorf("%w: %w", ErrBadFrame, err)
		}
		return Frame{}, nil, "", err
	}
	var arr [4][]byte // a frame header has at most three fields
	parts := fields(line, arr[:0])
	switch string(parts[0]) {
	case "OPEN", "CLOSE":
		if len(parts) != 2 || !validName(parts[1]) {
			return Frame{}, nil, "", fmt.Errorf("%w: %w", ErrBadFrame, ErrBadName)
		}
		op := FrameOpen
		if parts[0][0] == 'C' {
			op = FrameClose
		}
		ss, key, prefix := lookup(open, parts[1])
		return Frame{Op: op, Key: key}, ss, prefix, nil
	case "DATA":
		if len(parts) != 3 || !validName(parts[1]) {
			return Frame{}, nil, "", fmt.Errorf("%w: %w", ErrBadFrame, ErrBadName)
		}
		n, err := parseLen(parts[2])
		if err != nil {
			return Frame{}, nil, "", err
		}
		// The header line dies with the next read: resolve the key now.
		ss, key, prefix := lookup(open, parts[1])
		buf, err := fr.readPayload(n)
		if err != nil {
			return Frame{}, nil, "", err
		}
		return Frame{Op: FrameData, Key: key, Payload: buf}, ss, prefix, nil
	}
	return Frame{}, nil, "", ErrBadFrame
}

// lookup returns the session open holds for key, and the key and prefix
// strings to use: the session's own when it has one, else one copy of the
// bytes and a space, of which the key is the head.
func lookup(open map[string]*session, key []byte) (*session, string, string) {
	if ss := open[string(key)]; ss != nil {
		return ss, ss.key, ss.prefix
	}
	prefix := string(key) + " "
	return nil, prefix[:len(key)], prefix
}

// readPayload reads a DATA frame's n payload bytes and its terminating
// newline, which keeps the stream resynchronizable and catches a desynced
// length at once. A payload that fits the reader's buffer with its
// terminator is returned in place, aliasing the buffer; a larger one is
// copied into fr.payload.
func (fr *FrameReader) readPayload(n int) (buf []byte, err error) {
	var c byte
	if n < fr.r.Size() {
		if buf, err = fr.r.Peek(n + 1); err == nil {
			buf, c = buf[:n], buf[n]
			fr.r.Discard(n + 1)
		}
	} else {
		if cap(fr.payload) < n {
			fr.payload = make([]byte, n)
		}
		buf = fr.payload[:n]
		if _, err = io.ReadFull(fr.r, buf); err == nil {
			c, err = fr.r.ReadByte()
		}
	}
	switch {
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	case c != '\n':
		return nil, fmt.Errorf("%w: missing payload terminator", ErrBadFrame)
	}
	return buf, nil
}

// parseLen parses a strict non-negative decimal ≤ MaxFramePayload: no
// signs, no leading zeros (except "0" itself), digits only.
func parseLen(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 8 {
		return 0, fmt.Errorf("%w: bad length", ErrBadFrame)
	}
	if len(b) > 1 && b[0] == '0' {
		return 0, fmt.Errorf("%w: bad length", ErrBadFrame)
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("%w: bad length", ErrBadFrame)
		}
		n = n*10 + int(c-'0')
	}
	if n > MaxFramePayload {
		return 0, ErrPayloadTooLarge
	}
	return n, nil
}

// AppendHandshake renders a handshake line into dst (client-side helper,
// also used by the soak harness).
func AppendHandshake(dst []byte, h Handshake) []byte {
	dst = append(dst, handshakeMagic...)
	if h.Mux {
		dst = append(dst, " MUX "...)
		dst = append(dst, h.Tenant...)
	} else {
		dst = append(dst, " STREAM "...)
		dst = append(dst, h.Tenant...)
		dst = append(dst, ' ')
		dst = append(dst, h.Key...)
	}
	return append(dst, '\n')
}

// AppendFrame renders a frame into dst (client-side helper).
func AppendFrame(dst []byte, f Frame) []byte {
	switch f.Op {
	case FrameOpen:
		dst = append(dst, "OPEN "...)
		dst = append(dst, f.Key...)
	case FrameClose:
		dst = append(dst, "CLOSE "...)
		dst = append(dst, f.Key...)
	case FrameData:
		dst = append(dst, "DATA "...)
		dst = append(dst, f.Key...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(len(f.Payload)), 10)
		dst = append(dst, '\n')
		dst = append(dst, f.Payload...)
	}
	return append(dst, '\n')
}
