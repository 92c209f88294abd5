package main

import (
	"bytes"
	"strconv"

	"cfgtag"
)

// CFGTAG/1, written by hand from the format documented in README.md
// ("Serving over the network") so that the benchmark depends on the wire
// contract and not on internal/serve:
//
//	CFGTAG/1 MUX <tenant>\n                      handshake
//	OPEN <key>\n                                 frames, client → server
//	DATA <key> <n>\n<n payload bytes>\n
//	CLOSE <key>\n
//	<key> TAG <end> <index> <term> <context>\n   lines, server → client
//	<key> END <total-tags>\n
//	<key> ERR <message>\n
//	ERR! <message>\n                             connection-level refusal

func appendHandshake(dst []byte, tenant string) []byte {
	return append(append(append(dst, "CFGTAG/1 MUX "...), tenant...), '\n')
}

func appendOpen(dst []byte, key string) []byte {
	return append(append(append(dst, "OPEN "...), key...), '\n')
}

func appendClose(dst []byte, key string) []byte {
	return append(append(append(dst, "CLOSE "...), key...), '\n')
}

// appendDataHeader renders the DATA line; the caller follows it with the
// payload and a newline.
func appendDataHeader(dst []byte, key string, n int) []byte {
	dst = append(append(append(dst, "DATA "...), key...), ' ')
	return append(strconv.AppendInt(dst, int64(n), 10), '\n')
}

// appendTagLine renders one match as the server does, without key prefix.
func appendTagLine(dst []byte, m cfgtag.Match) []byte {
	dst = append(dst, "TAG "...)
	dst = strconv.AppendInt(dst, m.End, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(m.Index), 10)
	dst = append(dst, ' ')
	dst = append(dst, m.Term...)
	dst = append(dst, ' ')
	dst = append(dst, m.Context...)
	return append(dst, '\n')
}

func appendEndLine(dst []byte, total int) []byte {
	return append(strconv.AppendInt(append(dst, "END "...), int64(total), 10), '\n')
}

type lineKind int

const (
	lineBad lineKind = iota
	lineTag
	lineEnd
	lineErr
)

// parseLine splits one response line (newline already removed) into its
// key, the rest after the key's space, the kind, and the first number (a
// TAG's end offset or an END's total).
func parseLine(line []byte) (key, rest []byte, kind lineKind, num int64) {
	sp := bytes.IndexByte(line, ' ')
	if sp <= 0 {
		return nil, nil, lineBad, 0
	}
	key, rest = line[:sp], line[sp+1:]
	kind, num = parseRest(rest)
	return key, rest, kind, num
}

func parseRest(rest []byte) (lineKind, int64) {
	if len(rest) < 5 || rest[3] != ' ' {
		return lineBad, 0
	}
	var kind lineKind
	switch string(rest[:3]) {
	case "TAG":
		kind = lineTag
	case "END":
		kind = lineEnd
	case "ERR":
		return lineErr, 0
	default:
		return lineBad, 0
	}
	var n int64
	i := 4
	for ; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		n = n*10 + int64(rest[i]-'0')
	}
	if i == 4 {
		return lineBad, 0
	}
	return kind, n
}
