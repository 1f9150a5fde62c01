package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Bounds on the daemon's lifecycle: a bccd that does not bind, does not turn
// healthy, or does not exit on SIGTERM within these fails the run instead of
// hanging it.
const (
	startTimeout = 15 * time.Second
	stopTimeout  = 5 * time.Second
)

// daemon is one bccd process started by this benchmark. Every exit path of
// the benchmark calls stop, which returns only once the process is reaped.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan struct{}

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

// startDaemon execs bccd diskless on a kernel-chosen loopback port with the
// frozen planner, waits until it is healthy, and checks that the server
// answering is this process: a fresh bccd has served nothing.
func startDaemon(ctx context.Context, bin string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-plan", "frozen")
	// A benchmark killed outright must not leave bccd behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		_ = cmd.Wait() // the exit status is reported through done and the log tail
		close(d.done)
	}()

	deadline := time.NewTimer(startTimeout)
	defer deadline.Stop()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("bccd exited before listening: %s", d.logTail())
	case <-deadline.C:
		d.stop()
		return nil, fmt.Errorf("bccd did not listen within %v: %s", startTimeout, d.logTail())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	if err := d.awaitHealthy(ctx, client, deadline.C); err != nil {
		d.stop()
		return nil, err
	}
	st, _, err := d.statsz(ctx, client)
	if err == nil && (st.Requests != 0 || st.GraphUploads != 0 || st.Graphs != 0) {
		err = fmt.Errorf("server at %s has already served %d queries and %d uploads: not the bccd just started",
			d.base, st.Requests, st.GraphUploads)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitHealthy(ctx context.Context, client *http.Client, deadline <-chan time.Time) error {
	for {
		var h struct {
			Status string `json:"status"`
		}
		code, err := getJSON(ctx, client, d.base+"/healthz", &h)
		if err == nil && code == http.StatusOK && h.Status == "ok" {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("bccd exited before turning healthy: %s", d.logTail())
		case <-deadline:
			return fmt.Errorf("bccd not healthy within %v (last: %d %v)", startTimeout, code, err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, escalates to SIGKILL after stopTimeout, and returns
// once the process has been reaped. Safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return
	case <-time.After(stopTimeout):
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// peakRSSMiB reads the daemon's VmHWM (peak resident set) from procfs.
func (d *daemon) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is the CPU time all of the daemon's threads have used so far,
// user plus system. Time the hypervisor stole is not charged to it.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is the first,
	// utime the 12th and stime the 13th.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat CPU time %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// statsz is the part of bccd's /statsz the self-checks read.
type statsz struct {
	Requests     int64   `json:"requests"`
	CacheHits    int64   `json:"cache_hits"`
	Computations int64   `json:"computations"`
	GraphUploads int64   `json:"graph_uploads"`
	Graphs       int     `json:"graphs"`
	Rejected     int64   `json:"rejected"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	EnginePanics int64   `json:"engine_panics"`
	Fallbacks    int64   `json:"fallbacks"`
	Plan         *struct {
		Mode         string           `json:"mode"`
		MaxProcs     int              `json:"max_procs"`
		ByEngine     map[string]int64 `json:"by_engine"`
		Explorations int64            `json:"explorations"`
	} `json:"plan"`
	Incr *struct {
		Batches  int64 `json:"batches"`
		Absorbs  int64 `json:"absorbs"`
		Rebuilds int64 `json:"rebuilds"`
		Fulls    int64 `json:"fulls"`
	} `json:"incr"`
}

func (d *daemon) statsz(ctx context.Context, client *http.Client) (*statsz, json.RawMessage, error) {
	var raw json.RawMessage
	code, err := getJSON(ctx, client, d.base+"/statsz", &raw)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /statsz: status %d", code)
	}
	if err != nil {
		return nil, nil, err
	}
	var st statsz
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &st, raw, nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, into any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s: %w", url, err)
	}
	return resp.StatusCode, nil
}

// call sends one request and reads the whole response into buf. The latency
// it returns runs from just before the request is written to the last
// response byte read; decoding and checking happen after the clock stops.
func call(ctx context.Context, client *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, lat, fmt.Errorf("reading %s %s: %w", method, url, err)
	}
	return resp.StatusCode, lat, nil
}
