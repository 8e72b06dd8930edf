package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is a running server to drive: tcqd as a child process in a real
// run, an in-process server.Server in the package's own tests.
type target struct {
	front, wrapper string
	metrics        string // host:port of /statz, "" when not served
	pid            int    // 0 when in-process: no /proc figures
	stop           func()
}

// moduleRoot finds the directory holding the repo's go.mod, walking up
// from the working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module telegraphcq\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the telegraphcq module (no go.mod found)")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/tcqd into dir and returns the binary's path.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "tcqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tcqd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tcqd: %v\n%s", err, out)
	}
	return bin, nil
}

// launchDaemon starts tcqd with default flags on free loopback ports and
// waits until it has announced them. procs > 0 pins the child's
// GOMAXPROCS; withMetrics adds the telemetry HTTP endpoint.
func launchDaemon(bin string, procs int, withMetrics bool) (*target, error) {
	args := []string{"-front", "127.0.0.1:0", "-wrapper", "127.0.0.1:0"}
	if withMetrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = os.Environ()
	if procs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(procs))
	}
	// The child must not outlive the harness, however the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tcqd: %w", err)
	}
	t := &target{pid: cmd.Process.Pid}
	t.stop = func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	announced := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, err := fmt.Sscanf(line, "telegraphcq: frontend on %s wrapper on %s", &t.front, &t.wrapper); err == nil {
				t.front = strings.TrimSuffix(t.front, ",")
				if !withMetrics {
					break
				}
			}
			if rest, ok := strings.CutPrefix(line, "telegraphcq: metrics on http://"); ok {
				t.metrics = strings.TrimSuffix(rest, "/metrics")
				break
			}
		}
		if t.front == "" || (withMetrics && t.metrics == "") {
			announced <- fmt.Errorf("tcqd exited before announcing its ports: %s", stderr.String())
			return
		}
		announced <- nil
		for sc.Scan() { // keep the pipe drained
		}
	}()
	select {
	case err := <-announced:
		if err != nil {
			t.stop()
			return nil, err
		}
	case <-time.After(10 * time.Second):
		t.stop()
		return nil, fmt.Errorf("tcqd did not announce its ports within 10s")
	}
	return t, nil
}

// ---------------------------------------------------------------- /proc

// procSample is one reading of the child's /proc entries.
type procSample struct {
	utime, stime int64 // clock ticks
	volCtx       int64
	threads      int64
	hwmKB        int64
}

// ticksPerSec is USER_HZ, which Linux fixes at 100 on every architecture
// Go supports.
const ticksPerSec = 100

func (p procSample) cpuNs() int64 { return (p.utime + p.stime) * (1e9 / ticksPerSec) }

func readProc(pid int) (procSample, error) {
	var p procSample
	if pid == 0 {
		return p, nil
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%d/stat", pid)
	}
	p.utime, _ = strconv.ParseInt(f[11], 10, 64) // field 14
	p.stime, _ = strconv.ParseInt(f[12], 10, 64) // field 15
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return p, err
	}
	p.hwmKB = statusField(status, "VmHWM")
	p.threads = statusField(status, "Threads")
	// Context switches are counted per thread; the process total is the sum.
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil { // a thread may exit between the glob and the read
			p.volCtx += statusField(b, "voluntary_ctxt_switches")
		}
	}
	return p, nil
}

// statusField reads one "Key:   123 [kB]" line of a /proc status file.
func statusField(status []byte, key string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			n, _ := strconv.ParseInt(strings.Fields(v + " 0")[0], 10, 64)
			return n
		}
	}
	return 0
}

// --------------------------------------------------------------- /statz

// statz is one scrape of the daemon's telemetry, folded by metric name:
// counters summed over their label sets, gauges reduced to their largest
// series.
type statz struct {
	sum map[string]float64
	max map[string]float64
}

func newStatz() *statz { return &statz{sum: map[string]float64{}, max: map[string]float64{}} }

func (z *statz) add(name string, v float64) {
	z.sum[name] += v
	if v > z.max[name] {
		z.max[name] = v
	}
}

func scrapeStatz(addr string) (*statz, error) {
	resp, err := http.Get("http://" + addr + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var samples []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&samples); err != nil {
		return nil, fmt.Errorf("decode /statz: %w", err)
	}
	z := newStatz()
	for _, sm := range samples {
		z.add(sm.Name, sm.Value)
	}
	return z, nil
}

// parseStats folds SHOW STATS rows ("name{labels} value") the same way.
func parseStats(rows []string) *statz {
	z := newStatz()
	for _, row := range rows {
		name, _, _ := strings.Cut(row, " ")
		name, _, _ = strings.Cut(name, "{")
		v, _ := strconv.ParseFloat(row[strings.LastIndexByte(row, ' ')+1:], 64)
		z.add(name, v)
	}
	return z
}
