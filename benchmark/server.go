package main

import (
	"fmt"
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

// Everything the benchmark builds or writes stays under .bench_build in the
// checkout (or benchmark/out for reports): the serve binary, and one
// scratch directory per server for its data dir and log.
const buildDir = ".bench_build"

// findRoot walks up from the working directory to the checkout root: the
// directory that holds BENCHMARK.json next to the repo's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errB := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, errS := os.Stat(filepath.Join(dir, "cmd", "serve", "main.go"))
		if errB == nil && errS == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json beside cmd/serve) at or above the working directory")
		}
		dir = parent
	}
}

// buildServe compiles cmd/serve from the checkout's source.
func buildServe(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running server under test: a cmd/serve process (an
// in-process one in the harness's own tests).
type server struct {
	base    string // http://127.0.0.1:port
	dir     string // scratch directory: the data dir goes in it
	started time.Time
	// kill stops the server the hard way and returns once it has ended.
	// Nothing is flushed on the way down: what survives is what the WAL
	// had fsynced.
	kill func()
	// usage reads what the kernel has charged the server so far: user+sys
	// CPU, and the resident-set high-water mark in MB.
	usage func() (cpu time.Duration, hwmMB float64, err error)
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before serve binds it; nothing else on the box is racing for it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs serve with ISSUE 11's flags — every other flag at its
// default — over dir/data and waits until it answers /v1/stats. A dir that already holds a data directory is recovered from,
// which is how the durability check restarts. serve logs a line per request;
// its output is not kept: thousands of lines a second through a pipe or to a
// file would be load of the benchmark's own making.
func startServer(bin, dir string, universe int) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-universe", strconv.Itoa(universe),
		"-data-dir", filepath.Join(dir, "data"), "-fsync", "always")
	exited := make(chan struct{}) // closed once Wait has returned
	s := &server{base: "http://" + addr, dir: dir, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server says nothing
		close(exited)
	}()
	s.kill = func() {
		_ = cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
		<-exited
	}
	s.usage = func() (time.Duration, float64, error) { return procUsage(cmd.Process.Pid) }
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("serve exited during start-up; to see why, run %s", strings.Join(cmd.Args, " "))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("serve did not answer /v1/stats within 60s")
		}
	}
}

// procUsage reads user+sys CPU from /proc/<pid>/stat and the resident-set
// high-water mark (VmHWM) from /proc/<pid>/status.
func procUsage(process int) (cpu time.Duration, hwmMB float64, err error) {
	pid := strconv.Itoa(process)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks (USER_HZ, 100 on Linux).
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%s/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%s/stat: bad cpu fields", pid)
	}
	cpu = time.Duration(utime+stime) * (time.Second / 100)
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseFloat(strings.Fields(kb)[0], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("/proc/%s/status: %w", pid, err)
			}
			return cpu, n / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}
