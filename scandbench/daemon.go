package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	healthTimeout = 30 * time.Second
	startAttempts = 5
)

// daemon is one running scand process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	start  time.Time
	exited chan struct{} // closed once the process has been reaped
	stderr *lockedBuffer
}

// lockedBuffer collects the daemon's output for error messages.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.b.Len() < 64<<10 {
		l.b.Write(p)
	}
	return len(p), nil
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(l.b.String())
}

// freePort asks the kernel for an unused loopback port. Another process can
// take it before scand binds; startDaemon retries when that happens.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts scand with -executors set and every other flag at
// its default, and returns once /healthz answers. A daemon that exits
// before it is healthy (for instance because its port was taken) is
// retried on a new port.
func startDaemon(bin string, executors int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < startAttempts; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("finding a free port: %w", err)
		}
		d := &daemon{
			base:   fmt.Sprintf("http://127.0.0.1:%d", port),
			exited: make(chan struct{}),
			stderr: &lockedBuffer{},
		}
		d.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-executors", strconv.Itoa(executors))
		d.cmd.Stdout = d.stderr
		d.cmd.Stderr = d.stderr
		// The kernel kills the daemon if the benchmark dies first.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		d.start = time.Now()
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting scand: %w", err)
		}
		running.Store(d)
		go func() {
			_ = d.cmd.Wait() // the exit status is reported through d.exited
			close(d.exited)
		}()
		err = d.awaitHealthy(healthTimeout)
		if err == nil {
			return d, nil
		}
		d.stop()
		lastErr = err
		if !errors.Is(err, errExited) {
			break
		}
	}
	return nil, lastErr
}

var errExited = errors.New("scand exited")

// running is the daemon of the current epoch, for the signal handler.
var running atomic.Pointer[daemon]

// awaitHealthy polls /healthz until it answers 200, the daemon exits or
// the timeout passes.
func (d *daemon) awaitHealthy(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("%w before /healthz answered: %s", errExited, d.stderr.String())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("scand did not answer /healthz within %v", timeout)
}

// alive reports whether the daemon process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// context returns a context cancelled when the daemon exits, so requests
// to a dead daemon fail at once instead of hanging.
func (d *daemon) context() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		select {
		case <-d.exited:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// stop kills the daemon and waits until it has been reaped.
func (d *daemon) stop() {
	if d.alive() {
		_ = d.cmd.Process.Kill() // fails only if it already exited
	}
	<-d.exited
}

// cpuSeconds returns the process's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 1/100 s, the fixed USER_HZ).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return float64(ut+st) / 100, nil
}

// peakRSSMB returns the process's VmHWM from /proc/<pid>/status in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stealTicks returns the host's cumulative CPU steal time from /proc/stat.
func stealTicks() (uint64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("malformed /proc/stat")
	}
	return strconv.ParseUint(f[8], 10, 64)
}
