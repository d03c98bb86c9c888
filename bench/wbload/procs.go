//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
	"unsafe"
)

// trainArgs is the benchmark bundle: the paper's serving scale (hidden 108,
// embedding 50) trained just long enough for the cascade to have real
// confidences. wbtrain is seeded and deterministic, so its sha256 repeats.
var trainArgs = []string{
	"-domains", "8", "-pages", "8", "-epochs", "4", "-hidden", "108", "-embdim", "50",
	"-seed", "1", "-format", "snapshot",
}

// Bundle dimensions fixed by trainArgs, for the kernel-shape metrics.
const (
	bundleHidden = 108
	bundleEmbDim = 50
)

// buildBinaries compiles the three commands under test from the checkout at
// root into dir. A no-op build costs about a second; the first build in a
// checkout compiles the standard library into GOCACHE.
func buildBinaries(root, dir string) error {
	cmd := exec.Command("go", "build", "-trimpath", "-o", dir+string(filepath.Separator),
		"./cmd/wbserve", "./cmd/wbgate", "./cmd/wbtrain")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %v\n%s", root, err, out)
	}
	return nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// trainBundle returns the benchmark bundle, training it with the wbtrain
// binary in dir unless that exact binary already trained one there: the
// bundle is a build product keyed by the trainer's hash, so a change to any
// training code retrains and a rerun of the same commit does not.
func trainBundle(dir string) (path, sum string, err error) {
	trainer := filepath.Join(dir, "wbtrain")
	key, err := fileSHA256(trainer)
	if err != nil {
		return "", "", err
	}
	path = filepath.Join(dir, "bundle-"+key[:16]+".snap")
	if _, statErr := os.Stat(path); statErr != nil {
		tmp := path + ".tmp"
		cmd := exec.Command(trainer, append(trainArgs, "-out", tmp)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", "", fmt.Errorf("wbtrain: %v\n%s", err, out)
		}
		if err := os.Rename(tmp, path); err != nil {
			return "", "", err
		}
	}
	sum, err = fileSHA256(path)
	return path, sum, err
}

// preflight fails with a clear message when a fixed port is taken, which
// in practice means an orphaned server of an earlier run.
func preflight(addrs ...string) error {
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			return fmt.Errorf("fixed port %s is not free (%v): stop whatever holds it, e.g. `pkill -f 'wbserve|wbgate'`", a, err)
		}
		ln.Close()
	}
	return nil
}

// proc is one server child process.
type proc struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed when Wait returns
	kill   sync.Once
}

// children tracks every live child so any exit path can kill them all.
var children struct {
	sync.Mutex
	live map[*proc]bool
}

// startProc launches bin in its own process group, so stop can signal the
// whole group, and with a parent-death signal, so even a SIGKILL of wbload
// leaves no orphan holding a port.
func startProc(name, addr, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, addr: addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*proc]bool{}
	}
	children.live[p] = true
	children.Unlock()
	//wbcheck:ignore goshutdown -- ends when the child exits, which stop (called on every exit path) forces; closing done is its completion signal
	go func() {
		p.cmd.Wait() // exit status is irrelevant: stop kills, and an early exit shows as unhealthy
		close(p.done)
	}()
	return p, nil
}

// stop kills the child's process group and waits until it has ended. The
// signal is sent once: after the child is reaped its pid may be reused.
func (p *proc) stop() {
	p.kill.Do(func() {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when it already exited
	})
	<-p.done
	children.Lock()
	delete(children.live, p)
	children.Unlock()
}

// stopAllChildren is the backstop of every exit path.
func stopAllChildren() {
	children.Lock()
	var ps []*proc
	for p := range children.live {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the deadline passes.
func (p *proc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := scrapeClient.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot:\n%s", p.name, p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy on %s after %v", p.name, p.addr, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times. It
// is 100 on every Linux configuration Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads utime+stime of the process from /proc/<pid>/stat.
func (p *proc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis: state is field 3, utime 14, stime 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS reads VmHWM, the process's resident-set high-water mark, in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) == 3 && f[2] == "kB" {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleet is the set of server processes of one workload.
type fleet struct {
	backends []*proc // wbserve processes, in backend-name order
	gateway  *proc   // nil on direct workloads
}

func (f *fleet) procs() []*proc {
	if f.gateway == nil {
		return f.backends
	}
	return append(append([]*proc(nil), f.backends...), f.gateway)
}

// bootFleet starts the workload's servers and returns once all are healthy.
func bootFleet(w workload, binDir, model string) (*fleet, error) {
	f := &fleet{}
	addrs := []string{backendAddrA}
	if w.fleet {
		addrs = append(addrs, backendAddrB)
	}
	for _, a := range addrs {
		p, err := startProc("wbserve "+a, a, filepath.Join(binDir, "wbserve"), w.serveArgs(model, a)...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, p)
	}
	if w.fleet {
		p, err := startProc("wbgate", gatewayAddr, filepath.Join(binDir, "wbgate"),
			"-backends", strings.Join(addrs, ","), "-addr", gatewayAddr)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.gateway = p
	}
	for _, p := range f.procs() {
		if err := p.waitHealthy(30 * time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
}

// cpuTime is the summed CPU time of all server processes.
func (f *fleet) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.procs() {
		d, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSS is the summed resident-set high-water mark of all server
// processes.
func (f *fleet) peakRSS() (int64, error) {
	var sum int64
	for _, p := range f.procs() {
		n, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

// cpuJiffies is the host-wide CPU accounting of /proc/stat's first line.
type cpuJiffies struct {
	steal, total int64
}

// hostSteal reads how much CPU time the hypervisor has given to others
// (steal) out of all the time the guest's cores have existed.
func hostSteal() (cpuJiffies, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuJiffies{}, errors.New("unparsable /proc/stat cpu line")
	}
	var j cpuJiffies
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuJiffies{}, errors.New("unparsable /proc/stat cpu line")
		}
		j.total += n
		if i == 7 {
			j.steal = n
		}
	}
	return j, nil
}

// sub is the share of the cores' time between two readings that was stolen.
func (j cpuJiffies) sub(before cpuJiffies) float64 {
	return ratio(float64(j.steal-before.steal), float64(j.total-before.total))
}

// cpuSet is a sched_setaffinity mask: room for 1024 CPUs, the kernel's
// default limit.
type cpuSet [16]uint64

func (s *cpuSet) affinityCall(trap uintptr, tid int) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU confines every thread of this process to the highest-numbered
// CPU it may run on (the lowest usually takes the interrupts), and with them
// every thread and child they start from now on: the servers, which then
// see a one-core machine. It returns the CPU.
//
// One closed-loop client keeps one request in flight, so only one of
// generator, gateway and backend has work at any instant and one core holds
// them all. Left to the scheduler they spread over the cores, which of them
// share a core is settled anew in every run, every hop of a request may be
// a wake-up of another core (an inter-processor interrupt, which a
// hypervisor has to relay), and the calibration unit (calib.go) may time a
// different core, with a different neighbour on the host, than the one the
// servers ran on. On one core nothing idles between a request and its
// response, no wake-up crosses cores, and the unit runs on the very core
// whose speed it is there to measure. Sized on eight interleaved pairs of
// runs on a quiet box: fleet-hit's wall-clock mean 0.33 ms unpinned, 0.21
// ms pinned, its spread 5.5 % and 4.4 %; direct-miss-cascade the same
// either way (16.4 and 15.5 ms, 8 %).
func pinToOneCPU() (int, error) {
	var allowed cpuSet
	if err := allowed.affinityCall(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		return 0, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, errors.New("sched_getaffinity returned an empty CPU set")
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	// A thread inherits its creator's mask, so a thread started by a not yet
	// pinned one while the directory was being read is caught by the second
	// pass; by then every possible creator is pinned.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := one.affinityCall(syscall.SYS_SCHED_SETAFFINITY, tid); err != nil && err != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	return cpu, nil
}
