package main

// Process and host statistics read from outside the measured programs:
// /proc for CPU, peak RSS, steal ticks and TCP sockets, and the expvar
// endpoint the daemons already serve for their counters and memstats.

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
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after the last
	// ')' are space-separated, utime and stime being fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short record", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+system CPU time (microsecond
// resolution, all threads).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns pid's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// stealTicks returns the host's cumulative steal time from /proc/stat.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// tcpSocket is one row of /proc/net/tcp{,6}.
type tcpSocket struct {
	local, remote string // hex addr:port as the kernel prints them
	state         string
}

func tcpSockets() []tcpSocket {
	var out []tcpSocket
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Scan() // header
		for sc.Scan() {
			fs := strings.Fields(sc.Text())
			if len(fs) > 3 {
				out = append(out, tcpSocket{local: fs[1], remote: fs[2], state: fs[3]})
			}
		}
		f.Close()
	}
	return out
}

// timeWaitSockets counts sockets in TIME_WAIT (state 06).
func timeWaitSockets() int {
	n := 0
	for _, s := range tcpSockets() {
		if s.state == "06" {
			n++
		}
	}
	return n
}

// portHex is the kernel's hex rendering of a TCP port.
func portHex(addr string) string {
	_, p, _ := net.SplitHostPort(addr)
	n, _ := strconv.Atoi(p)
	return fmt.Sprintf("%04X", n)
}

// connsTo returns the set of local endpoints with a socket (any state,
// TIME_WAIT included) whose remote port is one of ports. Diffing two
// snapshots counts the connections opened in between: a closed one
// lingers in TIME_WAIT for 60 s, longer than any run.
func connsTo(ports map[string]bool) map[string]bool {
	set := make(map[string]bool)
	for _, s := range tcpSockets() {
		if i := strings.LastIndexByte(s.remote, ':'); i >= 0 && ports[s.remote[i+1:]] {
			set[s.local+"-"+s.remote] = true
		}
	}
	return set
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// tailBuffer keeps the last bytes a child writes to stderr, for error
// reports.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 4096 {
		t.b = append(t.b[:0], t.b[len(t.b)-4096:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// daemon is one mfserved or mfproxy process started from the binaries
// the wrapper script built, with every flag at its default except the
// listen and debug addresses.
type daemon struct {
	name      string
	addr      string
	debugAddr string
	cmd       *exec.Cmd
	stderr    tailBuffer
	http      *http.Client
	exited    chan struct{}
	exitErr   error
}

func startDaemon(binDir, name string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dbg, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		name: name, addr: addr, debugAddr: dbg,
		http:   &http.Client{Timeout: 10 * time.Second},
		exited: make(chan struct{}),
	}
	args := append([]string{"-addr", addr, "-debug-addr", dbg}, extra...)
	d.cmd = exec.Command(filepath.Join(binDir, name), args...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	// If the benchmark dies without stopping its daemons, the kernel
	// kills them.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.exitErr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls until both the service and the debug listener accept
// connections.
func (d *daemon) waitReady(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for _, a := range []string{d.addr, d.debugAddr} {
		for {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				c.Close()
				break
			}
			select {
			case <-d.exited:
				return fmt.Errorf("%s exited at start-up: %v\n%s", d.name, d.exitErr, d.stderr.String())
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready on %s: %v", d.name, a, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// daemonVars is a snapshot of a daemon's expvar counters and memstats.
type daemonVars struct {
	counters   map[string]int64
	totalAlloc uint64
	numGC      uint32
	cpu        time.Duration
}

func (d *daemon) vars() (daemonVars, error) {
	v := daemonVars{counters: make(map[string]int64)}
	resp, err := d.http.Get("http://" + d.debugAddr + "/debug/vars")
	if err != nil {
		return v, fmt.Errorf("%s vars: %w", d.name, err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return v, fmt.Errorf("%s vars: %w", d.name, err)
	}
	for k, m := range raw {
		switch {
		case k == "memstats":
			var ms struct {
				TotalAlloc uint64
				NumGC      uint32
			}
			if err := json.Unmarshal(m, &ms); err != nil {
				return v, fmt.Errorf("%s memstats: %w", d.name, err)
			}
			v.totalAlloc, v.numGC = ms.TotalAlloc, ms.NumGC
		case strings.HasPrefix(k, "mfserve.") || strings.HasPrefix(k, "mfproxy."):
			var n int64
			if json.Unmarshal(m, &n) == nil {
				v.counters[k] = n
			}
		}
	}
	v.cpu, err = procCPU(d.cmd.Process.Pid)
	return v, err
}

func (d *daemon) peakRSS() int64 {
	n, _ := peakRSS(d.cmd.Process.Pid)
	return n
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within the drain budget, and waits for it.
func (d *daemon) stop() {
	d.http.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// meter brackets a measured interval: CPU and heap allocation of this
// process and of every daemon, plus the host's steal ticks.
type meter struct {
	wall      time.Time
	selfCPU   time.Duration
	selfAlloc uint64
	steal     int64
	daemons   []daemonVars
}

func readMeter(ds []*daemon) (meter, error) {
	m := meter{steal: stealTicks()}
	for _, d := range ds {
		v, err := d.vars()
		if err != nil {
			return m, err
		}
		m.daemons = append(m.daemons, v)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.selfAlloc = ms.TotalAlloc
	m.selfCPU = selfCPU()
	m.wall = time.Now()
	return m, nil
}

// usage is the difference between two meters.
type usage struct {
	cpu, selfCPU     time.Duration
	alloc, selfAlloc uint64
	steal            int64
	daemons          []daemonDelta
}

type daemonDelta struct {
	cpu      time.Duration
	alloc    uint64
	gcs      int64
	counters map[string]int64
}

func diffMeter(a, b meter) usage {
	u := usage{
		selfCPU:   b.selfCPU - a.selfCPU,
		selfAlloc: b.selfAlloc - a.selfAlloc,
		steal:     b.steal - a.steal,
	}
	u.cpu, u.alloc = u.selfCPU, u.selfAlloc
	for i := range a.daemons {
		x, y := a.daemons[i], b.daemons[i]
		dd := daemonDelta{
			cpu:      y.cpu - x.cpu,
			alloc:    y.totalAlloc - x.totalAlloc,
			gcs:      int64(y.numGC) - int64(x.numGC),
			counters: make(map[string]int64),
		}
		for k, v := range y.counters {
			dd.counters[k] = v - x.counters[k]
		}
		u.cpu += dd.cpu
		u.alloc += dd.alloc
		u.daemons = append(u.daemons, dd)
	}
	return u
}
