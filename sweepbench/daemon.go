package main

import (
	"context"
	"encoding/json"
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
	"sync"
	"syscall"
	"time"
)

// proc is one started process, reaped by a goroutine so stop never
// leaves a zombie.
type proc struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{}
}

func startProc(name string, logFile io.Writer, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Kill the child if this process dies without running its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries no information
		close(p.exited)
	}()
	return p, nil
}

// kill sends SIGKILL and waits until the process is reaped.
func (p *proc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Kill() // fails only if the process already exited
	<-p.exited
}

// vmHWMKB reads the process's peak resident set size from /proc.
func (p *proc) vmHWMKB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// deployment is one standalone ntvsimd. base is its public API URL; p
// is nil until the process starts.
type deployment struct {
	base string
	p    *proc
	log  *os.File
}

// registry tracks every live deployment so the exit path can stop them
// all.
type registry struct {
	mu   sync.Mutex
	deps []*deployment
}

func (r *registry) add(d *deployment) {
	r.mu.Lock()
	r.deps = append(r.deps, d)
	r.mu.Unlock()
}

// stopAll kills and reaps every deployment ever started.
func (r *registry) stopAll() {
	r.mu.Lock()
	ds := r.deps
	r.deps = nil
	r.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func (d *deployment) stop() {
	if d.p != nil {
		d.p.kill()
	}
	if d.log != nil {
		_ = d.log.Close() // a log file only written by the daemon
	}
}

// peakRSSMB is the daemon's VmHWM in MB.
func (d *deployment) peakRSSMB() (float64, error) {
	kb, err := d.p.vmHWMKB()
	return kb / 1024, err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts a fresh standalone daemon with its own data directory
// under dir and returns once it serves /healthz ok. It returns the
// set-up time from the process launch.
func launch(ctx context.Context, reg *registry, bin, dir string) (*deployment, float64, error) {
	dataDir, err := os.MkdirTemp(dir, "data-")
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		_ = logf.Close()
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &deployment{base: "http://" + addr, log: logf}
	reg.add(d)
	start := time.Now()
	if d.p, err = startProc("ntvsimd", logf, filepath.Join(bin, "ntvsimd"),
		"-addr", addr, "-data-dir", dataDir, "-log-level", "warn"); err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, d, addr); err != nil {
		return nil, 0, err
	}
	return d, time.Since(start).Seconds(), nil
}

const readyTimeout = 30 * time.Second

// readyPoll is the pause between readiness attempts: about a hundredth
// of the few milliseconds a daemon takes to come up, so the poll adds
// little to setup_s, yet long enough to leave the CPU to the starting
// daemon.
const readyPoll = 50 * time.Microsecond

// waitReady dials addr until the daemon accepts connections, then polls
// /healthz until it reports ok, a process exits, or the timeout passes.
// A refused dial costs a few microseconds, far less than an HTTP
// request, so the wait ends close to the moment the daemon listens.
func waitReady(ctx context.Context, d *deployment, addr string) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(readyTimeout)
	listening := false
	for {
		if !listening {
			if conn, err := net.Dial("tcp", addr); err == nil {
				_ = conn.Close() // a probe connection that carried no request
				listening = true
			}
		}
		if listening && healthy(c, d.base) {
			return nil
		}
		select {
		case <-d.p.exited:
			return fmt.Errorf("%s exited during start-up (see %s)", d.p.name, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("daemon not ready within " + readyTimeout.String())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(readyPoll):
		}
	}
}

func healthy(c *http.Client, base string) bool {
	var h struct {
		OK bool `json:"ok"`
	}
	return getJSON(c, base+"/healthz", &h) == nil && h.OK
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cpuTimes reads the host's aggregate CPU jiffies from /proc/stat: total
// and steal (time the hypervisor ran someone else while this host
// wanted the CPU).
func cpuTimes() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user..steal; guest time is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal, nil
}
