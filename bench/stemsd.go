// stemsd.go owns the system under test as a child process: build the real
// cmd/stemsd binary, boot it on a free loopback port, and read the numbers
// it already exposes — /metrics counters, the pprof memstats footer, and the
// kernel's accounting for its pid. Nothing here reaches into the server's
// packages.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the module root (the directory holding go.mod) from the
// working directory: `go run ./bench` starts there, `go test` in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildStemsd compiles cmd/stemsd into dir and returns the binary's path.
func buildStemsd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "stemsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stemsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/stemsd: %v\n%s", err, out)
	}
	return bin, nil
}

const requestTimeout = 100 * time.Second

// maxConns is nproc on the reference box: the load generator never holds
// more connections to stemsd than that, scrapes included.
const maxConns = 2

// child is one running stemsd.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string // data dir: CSVs, stderr log, spill dir
	client *http.Client
	exited chan error
}

// startStemsd boots bin with the workload's flags over the CSVs in dir and
// waits for /readyz. The child inherits the environment unchanged.
func startStemsd(bin, dir string, flags []string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(dir, "stemsd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-data-dir", dir, "-spill-dir", filepath.Join(dir, "spill"), "-pprof"}, flags...)
	c := &child{
		cmd:  exec.Command(bin, args...),
		base: "http://" + addr,
		dir:  dir,
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
			// Longer than any window (a subscription's stream lives as long
			// as its run), short enough that a wedged stemsd fails the run
			// inside the driver's per-run limit.
			Timeout: requestTimeout,
		},
		exited: make(chan error, 1),
	}
	c.cmd.Stderr = logf
	// A harness that is killed must not leave its stemsd behind.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { c.exited <- c.cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case werr := <-c.exited:
			return nil, fmt.Errorf("bench: stemsd exited during start-up: %v\n%s", werr, c.logTail())
		default:
		}
		if time.Now().After(deadline) {
			c.cmd.Process.Kill()
			<-c.exited
			return nil, fmt.Errorf("bench: stemsd not ready after 10s\n%s", c.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(filepath.Join(c.dir, "stemsd.log"))
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// stop drains the child with SIGTERM and reports anything a clean run must
// not leave behind: a non-zero exit, a process that had to be killed, or
// spill files.
func (c *child) stop() error {
	c.client.CloseIdleConnections()
	select {
	case err := <-c.exited:
		return fmt.Errorf("bench: stemsd exited before shutdown: %v\n%s", err, c.logTail())
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.exited:
		if err != nil {
			return fmt.Errorf("bench: stemsd exited abnormally: %v\n%s", err, c.logTail())
		}
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return errors.New("bench: stemsd survived SIGTERM for 20s and was killed")
	}
	if ents, err := os.ReadDir(filepath.Join(c.dir, "spill")); err == nil && len(ents) > 0 {
		return fmt.Errorf("bench: %d spill entries survived the run", len(ents))
	}
	return nil
}

// get fetches one of the child's text endpoints.
func (c *child) get(path string) ([]byte, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// post sends one set-up statement and fails on anything but a 200 without an
// in-band error.
func (c *child) post(path, body string) ([]byte, error) {
	resp, err := c.client.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || bytes.Contains(b, []byte(`{"error"`)) {
		return nil, fmt.Errorf("bench: POST %s %s: %s: %s", path, body, resp.Status, b)
	}
	return b, nil
}

// counters is one scrape of /metrics: sample name (with labels) → value.
type counters map[string]float64

func (c *child) scrapeMetrics() (counters, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bench: /metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// memstats is the runtime.MemStats footer of a pprof debug=1 page.
type memstats struct{ mallocs, totalAlloc, heapAlloc float64 }

func parseMemstats(page []byte) (memstats, error) {
	var m memstats
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " = ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "# Mallocs":
			dst = &m.mallocs
		case "# TotalAlloc":
			dst = &m.totalAlloc
		case "# HeapAlloc":
			dst = &m.heapAlloc
		default:
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return m, err
		}
		*dst = v
		found++
	}
	if found != 3 {
		return m, fmt.Errorf("bench: pprof page carries %d of 3 memstats fields", found)
	}
	return m, nil
}

// scrapeAllocs reads cumulative Mallocs/TotalAlloc without forcing a GC.
func (c *child) scrapeAllocs() (memstats, error) {
	b, err := c.get("/debug/pprof/allocs?debug=1")
	if err != nil {
		return memstats{}, err
	}
	return parseMemstats(b)
}

// scrapeLiveHeap forces two collections (the second sweeps what the first
// one's finalizers and pools released) and reads what stayed resident.
func (c *child) scrapeLiveHeap() (float64, error) {
	var m memstats
	for i := 0; i < 2; i++ {
		b, err := c.get("/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		if m, err = parseMemstats(b); err != nil {
			return 0, err
		}
	}
	return m.heapAlloc, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc.
const clockTick = 100

// cpuSeconds is utime+stime of the child from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("bench: short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bench: unparsable /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// rssPeakMB is VmHWM from /proc/<pid>/status.
func (c *child) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}
