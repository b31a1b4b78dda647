package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tools are the segdb and segdbd binaries under test.
type tools struct{ segdb, segdbd string }

// buildTools builds cmd/segdb and cmd/segdbd from tree into dir.
func buildTools(tree, dir string) (tools, error) {
	t := tools{filepath.Join(dir, "segdb"), filepath.Join(dir, "segdbd")}
	for _, p := range []struct{ out, pkg string }{{t.segdb, "./cmd/segdb"}, {t.segdbd, "./cmd/segdbd"}} {
		cmd := exec.Command("go", "build", "-o", p.out, p.pkg)
		cmd.Dir = tree
		if out, err := cmd.CombinedOutput(); err != nil {
			return t, fmt.Errorf("go build %s in %s: %v\n%s", p.pkg, tree, err, out)
		}
	}
	return t, nil
}

// run executes a command, failing with its output.
func run(name string, args ...string) error {
	out, err := exec.Command(name, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %v\n%s", filepath.Base(name), strings.Join(args, " "), err, out)
	}
	return nil
}

// copyTree copies a file or a directory of regular files.
func copyTree(src, dst string) error {
	fi, err := os.Stat(src)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return copyFile(src, dst)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyTree(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// treeBytes sums the sizes of the regular files under path.
func treeBytes(path string) (int64, error) {
	var n int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// daemon is one segdbd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	err  error
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs segdbd and returns once GET /healthz?deep=1 answers
// 200, with the time from exec to that answer: the set-up time.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{addr: addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append(args, "-addr", addr)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	limit := t0.Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("segdbd exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		if healthy(addr) {
			return d, time.Since(t0), nil
		}
		if time.Now().After(limit) {
			d.kill()
			return nil, 0, fmt.Errorf("segdbd not healthy after 60s; see %s", logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// healthy reports whether a deep health check at addr answers 200.
func healthy(addr string) bool {
	c := newConn(addr)
	defer c.close()
	code, _, err := c.do("GET", "/healthz?deep=1", nil, 0)
	return err == nil && code == 200
}

// kill stops the daemon with SIGKILL — the crash the durability check
// needs, and the fastest stop for throwaway copies — and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// vmHWM is the daemon's peak resident set in MiB.
func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	return statusKB(b, "VmHWM:") / 1024
}

// schedCPU is the CPU time every thread of a process has run so far, in
// seconds, from /proc/<pid>/task/*/schedstat (nanoseconds; time the
// hypervisor steals from the vCPU is not counted).
func schedCPU(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", pid, err)
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty", t)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// procCPU is a process's user+system CPU time in seconds, from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func procCPU(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, _ := bytes.Cut(b, []byte(") "))
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

func statusKB(status []byte, key string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == key {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb
		}
	}
	return 0
}

// statsz is the part of segdbd's /statsz document the benchmark reads.
type statsz struct {
	Segments  int `json:"segments"`
	Endpoints map[string]struct {
		PagesRead struct {
			Sum int64 `json:"sum"`
		} `json:"pages_read"`
	} `json:"endpoints"`
	Store struct {
		Total struct{ Reads, CacheHits int64 } `json:"total"`
	} `json:"store"`
}

func fetchStatsz(c *httpConn) (statsz, error) {
	var s statsz
	code, b, err := c.get("/statsz")
	if err != nil || code != 200 {
		return s, fmt.Errorf("GET /statsz: status %d: %v", code, err)
	}
	return s, json.Unmarshal(b, &s)
}

// cpuTimes reads the aggregate line of /proc/stat: total jiffies and
// the steal share of them.
func cpuTimes() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// provenance identifies what was measured and on what.
type provenance struct {
	Tree       string  `json:"tree"`
	Revision   string  `json:"revision"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	StealFrac  float64 `json:"steal_frac"` // /proc/stat steal share over the timed phase
}

func newProvenance(tree string) provenance {
	p := provenance{Tree: tree, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Revision: revision(tree)}
	if out, err := exec.Command("go", "version").Output(); err == nil {
		p.GoVersion = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// revision is the tree's git commit, or — in a checkout without git
// metadata — a SHA-256 over its Go sources and go.mod.
func revision(tree string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = tree
	if out, err := cmd.Output(); err == nil {
		return "git:" + strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != tree {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(tree, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sources-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
