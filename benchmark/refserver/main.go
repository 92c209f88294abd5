// Command refserver is the benchmark's reference server: a fixed,
// repository-independent stand-in for cfgtagger that speaks the same
// CFGTAG/1 MUX framing and does a similar kind of work per byte — read a
// frame, copy the payload, hand it to one of two workers that scan it,
// convert every hit to a freshly formatted string on one sink goroutine
// and write a line per hit back — but knows no grammar: a "tag" is a '<'
// byte. The benchmark drives it with the same load, in the same run, as
// the real server, so that the host's speed at that moment can be
// divided out of the real server's numbers. It must never import
// anything from this module.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

type job struct {
	key  string
	data []byte // nil on CLOSE
	off  int64  // stream offset of data[0]
}

type batch struct {
	key  string
	ends []int64
	eos  bool
}

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "refserver:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "refserver: listening (tcp)", ln.Addr())
	fmt.Fprintln(os.Stderr, "refserver: listening (http) none")
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, syscall.SIGINT)
	<-term
	ln.Close()
	fmt.Fprintln(os.Stderr, "refserver: drained clean")
}

func serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 32<<10)
	if _, err := r.ReadString('\n'); err != nil { // handshake
		return
	}
	const shards, queue = 2, 256
	sink := make(chan batch, queue)
	var work [shards]chan job
	workersDone := make(chan struct{})
	for i := range work {
		work[i] = make(chan job, queue)
		go func(in <-chan job) {
			for j := range in {
				b := batch{key: j.key, eos: j.data == nil}
				for p := j.data; ; {
					i := bytes.IndexByte(p, '<')
					if i < 0 {
						break
					}
					b.ends = append(b.ends, j.off+int64(len(j.data)-len(p)+i))
					p = p[i+1:]
				}
				sink <- b
			}
			workersDone <- struct{}{}
		}(work[i])
	}
	sinkDone := make(chan struct{})
	go func() {
		defer close(sinkDone)
		totals := map[string]int{}
		var out []byte
		for b := range sink {
			out = out[:0]
			for _, e := range b.ends {
				ctx := fmt.Sprintf("ref[%d]", e&7) // one allocation per hit, like a tag's context
				out = append(out, b.key...)
				out = append(out, " TAG "...)
				out = strconv.AppendInt(out, e, 10)
				out = append(out, " 0 LT "...)
				out = append(out, ctx...)
				out = append(out, '\n')
			}
			totals[b.key] += len(b.ends)
			if b.eos {
				out = append(out, b.key...)
				out = append(out, " END "...)
				out = strconv.AppendInt(out, int64(totals[b.key]), 10)
				out = append(out, '\n')
				delete(totals, b.key)
			}
			if len(out) > 0 {
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}
	}()

	offs := map[string]int64{}
	shardOf := func(key string) chan job {
		h := 0
		for i := 0; i < len(key); i++ {
			h += int(key[i])
		}
		return work[h%shards]
	}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 2 && f[0] == "OPEN":
			offs[f[1]] = 0
		case len(f) == 2 && f[0] == "CLOSE":
			shardOf(f[1]) <- job{key: f[1]}
			delete(offs, f[1])
		case len(f) == 3 && f[0] == "DATA":
			n, err := strconv.Atoi(f[2])
			if err != nil || n < 0 || n > 1<<20 {
				return
			}
			data := make([]byte, n+1)
			if _, err := io.ReadFull(r, data); err != nil {
				return
			}
			shardOf(f[1]) <- job{key: f[1], data: data[:n], off: offs[f[1]]}
			offs[f[1]] += int64(n)
		default:
			return
		}
	}
	for i := range work {
		close(work[i])
	}
	for range work {
		<-workersDone
	}
	close(sink)
	<-sinkDone
}
