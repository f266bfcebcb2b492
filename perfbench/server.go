package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// server is one rwdserve child process. It runs with its default flags
// apart from the listen address and the store directory, which the
// corpus endpoints need.
type server struct {
	cmd      *exec.Cmd
	base     string
	storeDir string
	flags    []string
	exited   chan struct{}
}

// startServer launches the binary on a free loopback port with a fresh
// store directory and returns once the process has started (not once
// it answers; see waitHealthy).
func startServer(bin, storeDir string) (*server, error) {
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	flags := []string{"-addr", addr, "-store-dir", storeDir}
	cmd := exec.Command(bin, flags...)
	// The access log (one line per request) goes to /dev/null: the
	// server still pays for writing it, the benchmark does not read it.
	cmd.Stdout, cmd.Stderr = nil, nil
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, storeDir: storeDir, flags: flags, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func (s *server) waitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return errors.New("rwdserve exited during start-up")
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("rwdserve did not answer /healthz within %v", timeout)
}

// stop sends SIGTERM (rwdserve drains and exits 0), escalates to SIGKILL
// after a grace period, and waits until the process is gone.
func (s *server) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// procCPU returns the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) procCPU() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing parenthesis are space-separated. utime and stime are
	// fields 14 and 15, in clock ticks (USER_HZ = 100 on Linux).
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat line")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// hostCPU returns the host's steal and total CPU ticks from /proc/stat,
// so a run can report how much of its window the hypervisor took away.
func hostCPU() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// scrape reads /metrics into series → value.
func (s *server) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// healthz reads the JSON body of /healthz (Go version, revision).
func (s *server) healthz(client *http.Client) map[string]any {
	out := map[string]any{}
	resp, err := client.Get(s.base + "/healthz")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out
}

// delta is after[name] - before[name].
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// familyDelta sums the deltas of every series of a family whose labels
// satisfy keep (nil keeps all).
func familyDelta(before, after map[string]float64, family string, keep func(series string) bool) float64 {
	var total float64
	for series, v := range after {
		if series != family && !strings.HasPrefix(series, family+"{") {
			continue
		}
		if keep == nil || keep(series) {
			total += v - before[series]
		}
	}
	return total
}

// spanCost is the rwd_span_cost_total delta of one counter summed over
// the named spans (all spans when none are named).
func spanCost(before, after map[string]float64, counter string, spans ...string) float64 {
	return familyDelta(before, after, "rwd_span_cost_total", func(series string) bool {
		if c, _ := metrics.SeriesLabel(series, "counter"); c != counter {
			return false
		}
		if len(spans) == 0 {
			return true
		}
		sp, _ := metrics.SeriesLabel(series, "span")
		for _, want := range spans {
			if sp == want {
				return true
			}
		}
		return false
	})
}

// flushQuantile estimates a quantile (ms) of the store.flush durations
// observed between two scrapes, from rwd_store_flush_seconds.
func flushQuantile(before, after map[string]float64, q float64) float64 {
	le := map[float64]float64{}
	for series := range after {
		if !strings.HasPrefix(series, "rwd_store_flush_seconds_bucket{") {
			continue
		}
		v, _ := metrics.SeriesLabel(series, "le")
		b, err := strconv.ParseFloat(v, 64)
		if err != nil || b > 1e300 {
			continue // +Inf
		}
		le[b] = delta(before, after, series)
	}
	return 1000 * histQuantile(le, delta(before, after, "rwd_store_flush_seconds_count"), q)
}
