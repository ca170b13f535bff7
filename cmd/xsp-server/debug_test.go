package main

import (
	"bufio"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDebugAddrServesProfiles holds -debug-addr to its contract: with the
// flag, net/http/pprof answers on its own listener and not on the main one,
// whose "listening on" line stays the first of its kind on stderr; without
// it, the process listens on one port.
func TestDebugAddrServesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	bin := buildServer(t, t.TempDir())

	t.Run("on", func(t *testing.T) {
		mainURL, debug, lines, listens := runDebugProbe(t, bin, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
		if debug == "" {
			t.Fatalf("no profiles line on stderr:\n%s", strings.Join(lines, "\n"))
		}
		if got := status(t, debug+"/debug/pprof/heap"); got != http.StatusOK {
			t.Fatalf("debug listener /debug/pprof/heap: %d, want 200", got)
		}
		if got := status(t, mainURL+"/debug/pprof/heap"); got != http.StatusNotFound {
			t.Fatalf("main listener /debug/pprof/heap: %d, want 404", got)
		}
		n := 0
		for _, l := range lines {
			if strings.Contains(l, "listening on ") {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%d stderr lines say \"listening on \", want the main one alone:\n%s", n, strings.Join(lines, "\n"))
		}
		if listens != nil && len(listens()) != 2 {
			t.Fatalf("listening sockets with -debug-addr: %d, want 2", len(listens()))
		}
	})

	t.Run("off", func(t *testing.T) {
		mainURL, debug, lines, listens := runDebugProbe(t, bin, "-addr", "127.0.0.1:0")
		if debug != "" {
			t.Fatalf("a profiles line without -debug-addr:\n%s", strings.Join(lines, "\n"))
		}
		if got := status(t, mainURL+"/debug/pprof/heap"); got != http.StatusNotFound {
			t.Fatalf("main listener /debug/pprof/heap: %d, want 404", got)
		}
		if listens != nil && len(listens()) != 1 {
			t.Fatalf("listening sockets without -debug-addr: %d, want 1", len(listens()))
		}
	})
}

// runDebugProbe starts the binary with args and returns the base URLs of its
// main and profiling listeners ("" when it reported none), the stderr lines
// it printed up to the main listener serving, and — where /proc shows them —
// a count of its listening TCP sockets, as a function to call while the
// process runs. The process is killed when the test ends.
func runDebugProbe(t *testing.T, bin string, args ...string) (mainURL, debug string, lines []string, listens func() []string) {
	t.Helper()
	proc, stderrLines := startWithStderr(t, bin, args...)
	deadline := time.After(10 * time.Second)
	for mainURL == "" {
		select {
		case l, ok := <-stderrLines:
			if !ok {
				t.Fatalf("server exited before it listened:\n%s", strings.Join(lines, "\n"))
			}
			lines = append(lines, l)
			if _, a, ok := strings.Cut(l, "listening on "); ok {
				mainURL = "http://" + strings.TrimSpace(a)
			}
		case <-deadline:
			t.Fatalf("server never reported its listen address")
		}
	}
	// A reply from the main listener means main has passed the point where it
	// prints the profiles line, if it prints one: it is in the pipe by now.
	status(t, mainURL+"/api/tenants")
	for drained := false; !drained; {
		select {
		case l := <-stderrLines:
			lines = append(lines, l)
		case <-time.After(200 * time.Millisecond):
			drained = true
		}
	}
	for _, l := range lines {
		if _, a, ok := strings.Cut(l, "profiles served at "); ok {
			debug = strings.TrimSuffix(strings.TrimSpace(a), "/debug/pprof/")
		}
	}
	if _, err := os.Stat("/proc/self/net/tcp"); err == nil {
		listens = func() []string { return listeningSockets(t, proc.Pid) }
	}
	return mainURL, debug, lines, listens
}

// startWithStderr launches the binary and delivers its stderr line by line.
func startWithStderr(t *testing.T, bin string, args ...string) (*os.Process, <-chan string) {
	t.Helper()
	cmd, out := exec.Command(bin, args...), make(chan string, 64)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	go func() {
		defer close(out)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			out <- sc.Text()
		}
	}()
	return cmd.Process, out
}

// listeningSockets lists the inodes of the TCP sockets pid holds in the
// LISTEN state, read from /proc.
func listeningSockets(t *testing.T, pid int) []string {
	t.Helper()
	fds, err := filepath.Glob(filepath.Join("/proc", strconv.Itoa(pid), "fd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	mine := map[string]bool{}
	for _, fd := range fds {
		if link, err := os.Readlink(fd); err == nil && strings.HasPrefix(link, "socket:[") {
			mine[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	var listening []string
	for _, table := range []string{"tcp", "tcp6"} {
		b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "net", table))
		if err != nil {
			continue
		}
		for _, row := range strings.Split(string(b), "\n")[1:] {
			f := strings.Fields(row)
			if len(f) > 9 && f[3] == "0A" && mine[f[9]] { // st 0A: LISTEN
				listening = append(listening, f[9])
			}
		}
	}
	return listening
}

func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
