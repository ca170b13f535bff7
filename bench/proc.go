package bench

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// RepoRoot walks up from dir to the directory holding the module's go.mod.
func RepoRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module xsp\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no xsp go.mod above the working directory")
		}
		dir = parent
	}
}

// BuildServer compiles ./cmd/xsp-server of the module at root into outDir
// and returns the binary's path and how long the build took.
func BuildServer(root, outDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(outDir, "xsp-server")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xsp-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("bench: go build ./cmd/xsp-server: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// Server is a running xsp-server child.
type Server struct {
	cmd     *exec.Cmd
	BaseURL string
	Setup   time.Duration // exec → first 200 from GET /api/tenants
	waited  chan struct{}
}

// serverProcs is the GOMAXPROCS the server child runs with: every core
// but the one the load generator keeps.
func serverProcs() int { return max(1, runtime.NumCPU()-1) }

// StartServer execs the binary and waits until it answers. The port comes
// from the "listening on" line the server prints to stderr, so there is no
// polling interval inside the measured set-up time.
func StartServer(bin string, args []string, client *http.Client, place placement) (*Server, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	// Should the benchmark die without reaching Kill, the child dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := place.startPinned(cmd.Start); err != nil {
		return nil, err
	}
	s := &Server{cmd: cmd, waited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.waited)
		sc := bufio.NewScanner(stderr)
		var tail []string
		listened := false
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok && !listened {
				listened = true
				addr <- strings.TrimSpace(a)
			}
			tail = append(tail, sc.Text())
		}
		_, _ = io.Copy(io.Discard, stderr) // a line too long for the scanner must not block the child
		_ = cmd.Wait()
		if !listened {
			fmt.Fprintf(os.Stderr, "xspbench: server exited before listening:\n%s\n", strings.Join(tail, "\n"))
			addr <- ""
		}
	}()
	select {
	case a := <-addr:
		if a == "" {
			return nil, fmt.Errorf("bench: xsp-server exited before listening")
		}
		s.BaseURL = "http://" + a
	case <-time.After(60 * time.Second):
		s.Kill()
		return nil, fmt.Errorf("bench: xsp-server never reported its listen address")
	}
	resp, err := client.Get(s.BaseURL + "/api/tenants")
	if err != nil {
		s.Kill()
		return nil, fmt.Errorf("bench: server not ready: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.Kill()
		return nil, fmt.Errorf("bench: GET /api/tenants: %s", resp.Status)
	}
	s.Setup = time.Since(start)
	return s, nil
}

// Kill sends SIGKILL and waits until the process has ended.
func (s *Server) Kill() {
	_ = s.cmd.Process.Kill()
	<-s.waited
}

// ProcSample is one reading of the child's /proc files.
type ProcSample struct {
	RSS        int64 // VmRSS, bytes
	HWM        int64 // VmHWM, bytes
	User, Sys  time.Duration
	WriteBytes int64 // /proc/<pid>/io write_bytes: what reached the block layer
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux configuration Go supports.
const clockTick = 10 * time.Millisecond

// Sample reads the child's memory, CPU and I/O counters.
func (s *Server) Sample() (ProcSample, error) {
	var p ProcSample
	dir := "/proc/" + strconv.Itoa(s.cmd.Process.Pid)
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		key, rest, _ := strings.Cut(line, ":")
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		kb, _ := strconv.ParseInt(f[0], 10, 64)
		switch key {
		case "VmRSS":
			p.RSS = kb << 10
		case "VmHWM":
			p.HWM = kb << 10
		}
	}
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	if i := strings.LastIndexByte(string(stat), ')'); i >= 0 {
		f := strings.Fields(string(stat)[i+1:])
		if len(f) > 12 {
			u, _ := strconv.ParseInt(f[11], 10, 64)
			k, _ := strconv.ParseInt(f[12], 10, 64)
			p.User, p.Sys = time.Duration(u)*clockTick, time.Duration(k)*clockTick
		}
	}
	if io, err := os.ReadFile(dir + "/io"); err == nil {
		for _, line := range strings.Split(string(io), "\n") {
			if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
				p.WriteBytes, _ = strconv.ParseInt(v, 10, 64)
			}
		}
	}
	return p, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
