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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running opmapd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// readyTimeout bounds one boot (exec to /readyz 200).
const readyTimeout = 150 * time.Second

// startDaemon execs opmapd with args, appending its stderr to logPath,
// and returns once /readyz answers 200, with the time that took. The
// child is killed if the benchmark dies first.
func startDaemon(bin string, args []string, dir, logPath string, client *http.Client) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // absent on a first boot; a stale one would point at a dead port
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-ready-file", addrFile)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting opmapd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := start.Add(readyTimeout)
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("opmapd exited before ready (%v); see %s", d.err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("opmapd not ready after %v; see %s", readyTimeout, logPath)
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" && d.ready(client) {
			return d, time.Since(start), nil
		}
		// Poll at about 1% of the time waited so far: fine enough to time
		// a 0.3 s boot, sparse enough that polling does not compete with
		// a multi-second replay for the CPU.
		time.Sleep(min(max(time.Since(start)/100, time.Millisecond), 20*time.Millisecond))
	}
}

func (d *daemon) ready(client *http.Client) bool {
	resp, err := client.Get(d.base + "/readyz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited, which the wait below covers
	<-d.exited
}

// peakRSSMiB reads the process's resident-set high-water mark.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// scrape is one /metrics?format=json snapshot's counters and gauges.
type scrape struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

func (d *daemon) scrape(client *http.Client) (scrape, error) {
	var s scrape
	resp, err := client.Get(d.base + "/metrics?format=json")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// counter sums every series of a counter family (all label sets).
func (s scrape) counter(name string) int64 {
	var n int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}

// response is the outcome of one HTTP request.
type response struct {
	status int
	body   []byte
	err    error
}

// ok reports a 2xx answer that is not labelled partial.
func (r response) ok() bool {
	return r.err == nil && r.status/100 == 2 && !bytes.Contains(r.body, []byte(`"partial": true`))
}

func (r response) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	if r.status/100 != 2 {
		return fmt.Sprintf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return "partial result"
}

// do sends one request to base and reads the whole answer.
func do(ctx context.Context, client *http.Client, base string, r request) response {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method(), base+r.path, body)
	if err != nil {
		return response{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, body: b, err: err}
}

// newClient returns the benchmark's HTTP client: at most two loopback
// connections, which every request of a run shares.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// watchSteal samples the machine's CPU tick counters from /proc/stat
// every 100ms until the returned stop function is called; stop waits
// for the sampler and returns the log.
func watchSteal() (stop func() stealLog) {
	var l stealLog
	done := make(chan struct{})
	exited := make(chan struct{})
	sample := func() {
		if steal, total, ok := cpuTicks(); ok {
			l.add(time.Now(), steal, total)
		}
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		sample()
		for {
			select {
			case <-done:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return func() stealLog {
		close(done)
		<-exited
		return l
	}
}

// cpuTicks reads the machine's aggregate CPU tick counters: the ticks a
// virtual CPU waited for its host (steal) and all ticks.
func cpuTicks() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}
