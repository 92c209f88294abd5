package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes besides bench_out/: the
// cfgtagger binary and the per-run tenant config. It is inside the
// checkout and named in .gitignore.
const buildDir = ".bench_build"

// buildBinary compiles one main package of the checkout (the real
// cmd/cfgtagger, the reference server) outside any timed region.
func buildBinary(pkg string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", filepath.Base(pkg)))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, nil
}

// child is one running cfgtagger serve process.
type child struct {
	cmd   *exec.Cmd
	start time.Time
	tcp   string
	http  string

	mu      sync.Mutex
	log     []string // stderr lines
	ready   chan struct{}
	logDone chan struct{}
}

// startChild launches cfgtagger on loopback ports the kernel picks and
// waits until it reports both listeners. Pdeathsig makes the kernel kill
// the child if the benchmark dies first, so no orphan keeps a port.
func startChild(bin string, args ...string) (*child, error) {
	c := &child{ready: make(chan struct{}), logDone: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go c.readLog(stderr)
	select {
	case <-c.ready:
		return c, nil
	case <-c.logDone:
		c.cmd.Wait()
		return nil, fmt.Errorf("cfgtagger exited before listening:\n%s", c.logTail())
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("cfgtagger not listening after 60s:\n%s", c.logTail())
	}
}

func (c *child) readLog(r io.Reader) {
	defer close(c.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.log = append(c.log, line)
		if _, addr, ok := strings.Cut(line, ": listening (tcp) "); ok {
			c.tcp = addr
		}
		if _, addr, ok := strings.Cut(line, ": listening (http) "); ok {
			c.http = addr
			close(c.ready) // the http listener is announced last
		}
		c.mu.Unlock()
	}
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	tail := c.log
	if len(tail) > 20 {
		tail = tail[len(tail)-20:]
	}
	return strings.Join(tail, "\n")
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained clean" line. It returns the child's peak RSS in KiB, read from
// VmHWM just before the signal. (ru_maxrss from wait4 is no use: at exec
// the kernel folds the forking parent's own high-water mark into it, so it
// reports the benchmark's size whenever that is the larger.)
func (c *child) stop() (peakRSSKiB int64, err error) {
	status, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	if peakRSSKiB, err = parseVmHWM(status); err != nil {
		return 0, err
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	timer := time.AfterFunc(20*time.Second, func() { c.cmd.Process.Kill() })
	<-c.logDone // Wait closes the pipe; read it out first
	werr := c.cmd.Wait()
	timer.Stop()
	if werr != nil {
		return peakRSSKiB, fmt.Errorf("cfgtagger after SIGTERM: %w\n%s", werr, c.logTail())
	}
	if !strings.Contains(c.logTail(), "drained clean") {
		return peakRSSKiB, fmt.Errorf("cfgtagger exited without draining clean:\n%s", c.logTail())
	}
	return peakRSSKiB, nil
}

// parseVmHWM extracts the peak resident set size, in KiB, from the text
// of /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpu reads the child's user+system CPU time from /proc/<pid>/stat.
func (c *child) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat,
// fixed at 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func parseProcStatCPU(stat []byte) (time.Duration, error) {
	// The command name (field 2) may hold spaces; fields are counted
	// from the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := bytes.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	st, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// scrape fetches /metrics and returns every "name{labels} value" line
// keyed by the bare name.
func (c *child) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + c.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(text string) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = f
		}
	}
	return m
}
