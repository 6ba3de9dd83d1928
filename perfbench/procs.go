package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// proc is one running ctxsearch process.
type proc struct {
	name  string
	cmd   *exec.Cmd
	addr  chan string // receives the listen address once it is printed
	out   *listenWatcher
	url   string
	log   *os.File
	ended chan struct{}
	err   error // exit status, valid after ended is closed
}

// startProc launches bin with args, adding env to the environment it
// inherits. Standard error (one log line per request) goes to a file under
// logDir; standard output is scanned for the "listening on ADDR" line.
func startProc(bin, logDir, name string, args, env []string) (*proc, error) {
	lf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, addr: make(chan string, 1), log: lf, ended: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = lf
	if len(env) > 0 {
		p.cmd.Env = append(os.Environ(), env...)
	}
	p.out = &listenWatcher{addr: p.addr}
	p.cmd.Stdout = p.out
	if err := p.cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		lf.Close()
		close(p.ended)
	}()
	return p, nil
}

// waitListening waits for the process to print its listen address.
func (p *proc) waitListening(timeout time.Duration) error {
	select {
	case a := <-p.addr:
		p.url = "http://" + a
		return nil
	case <-p.ended:
		return fmt.Errorf("%s exited before listening: %v (see its log)", p.name, p.err)
	case <-time.After(timeout):
		return fmt.Errorf("%s did not print a listen address within %s", p.name, timeout)
	}
}

// stop sends SIGTERM, which ctxsearch answers with a graceful drain, and
// waits for the process to end; SIGKILL follows if it has not ended in time.
func (p *proc) stop() {
	select {
	case <-p.ended:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.ended:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.ended
	}
}

// listenWatcher is a process's standard output: it forwards the address of
// the "listening on ADDR" line, keeps the "debug listening on ADDR" one, and
// discards everything else.
type listenWatcher struct {
	mu    sync.Mutex
	buf   []byte
	addr  chan string
	debug string
}

func (lw *listenWatcher) Write(b []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf = append(lw.buf, b...)
	for {
		i := bytes.IndexByte(lw.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		line := string(lw.buf[:i])
		lw.buf = lw.buf[i+1:]
		if a, ok := strings.CutPrefix(line, "listening on "); ok {
			select {
			case lw.addr <- strings.TrimSpace(a):
			default: // only the first address matters
			}
		} else if a, ok := strings.CutPrefix(line, "debug listening on "); ok {
			lw.debug, _, _ = strings.Cut(a, " ")
		}
	}
}

func (lw *listenWatcher) debugAddr() string {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.debug
}

// topology is the set of processes one workload serves from.
type topology struct {
	procs []*proc
	front *proc // the process clients talk to
}

func (t *topology) stop() {
	var wg sync.WaitGroup
	for _, p := range t.procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// collectGarbage asks every process that serves -debug-addr to run a
// garbage collection (the heap profile's gc=1). Start-up and warm-up leave
// each server with a different amount of garbage; collecting it makes the
// next phase start from the same heap in every run, instead of a
// collection landing inside some runs' windows and not others'.
func (t *topology) collectGarbage() error {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	for _, p := range t.procs {
		a := p.out.debugAddr()
		if a == "" {
			continue
		}
		resp, err := client.Get("http://" + a + "/debug/pprof/heap?gc=1")
		if err != nil {
			return fmt.Errorf("%s: collecting garbage: %w", p.name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: collecting garbage: status %d", p.name, resp.StatusCode)
		}
	}
	return nil
}

func (t *topology) pids() []int {
	out := make([]int, len(t.procs))
	for i, p := range t.procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// waitReady polls /readyz on every process until each answers 200.
func waitReady(ctx context.Context, procs []*proc) error {
	client := &http.Client{Timeout: time.Second}
	for _, p := range procs {
		for {
			if ctx.Err() != nil {
				return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
			}
			select {
			case <-p.ended:
				return fmt.Errorf("%s exited before ready: %v (see its log)", p.name, p.err)
			default:
			}
			resp, err := client.Get(p.url + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	client.CloseIdleConnections()
	return nil
}

// procCPU returns a process's user+system CPU time from /proc/PID/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procsCPU sums procCPU over pids.
func procsCPU(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		d, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// procPeakRSS returns VmHWM, the process's peak resident set, in bytes.
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal int64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat")
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("bad /proc/stat: %w", err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

func stealRatio(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
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
