package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux configuration the kernel exposes to user space.
const clockTicks = 100

// server is one running `anonymizer serve` process.
type server struct {
	cmd   *exec.Cmd
	addr  string // client listener, from the banner
	admin string // admin HTTP listener, from the banner
	done  chan error

	stopOnce sync.Once
	stopErr  error
}

// startServer launches `bin serve args...` and returns once the banner
// line naming the bound client address has been read from its stdout
// pipe: readiness is an event, not a poll. Lines before the banner are
// scanned for the admin address. The rest of the output is drained so the
// server never blocks on a full pipe.
func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"serve"}, args...)...)
	cmd.Stderr = os.Stderr
	// Take the server down with the driver if the driver is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewReader(out)
	var seen []string
	for s.addr == "" {
		line, err := lines.ReadString('\n')
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("serve exited before its banner (%v); output: %q", err, seen)
		}
		seen = append(seen, strings.TrimSpace(line))
		if rest, ok := strings.CutPrefix(line, "admin http on "); ok {
			s.admin, _, _ = strings.Cut(rest, " ")
		}
		if rest, ok := strings.CutPrefix(line, "anonymizer server on "); ok {
			s.addr, _, _ = strings.Cut(rest, " ")
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, lines)
		s.done <- cmd.Wait()
	}()
	return s, nil
}

// stop sends SIGTERM and waits for the process to exit, escalating to
// SIGKILL after a grace period. Later calls return the first result.
// serve installs its SIGTERM handler just after printing its banner, so a
// stop landing in between ends it by the signal's default action: that
// counts as a clean stop too.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case s.stopErr = <-s.done:
			var exit *exec.ExitError
			if errors.As(s.stopErr, &exit) {
				if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
					s.stopErr = nil
				}
			}
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
			s.stopErr = fmt.Errorf("serve did not exit on SIGTERM")
		}
	})
	return s.stopErr
}

// cpuSeconds returns the process's utime+stime in seconds.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces, so
// fields are counted from its closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed stat times in %q", stat)
	}
	return (utime + stime) / clockTicks, nil
}

// rssMiB returns the process's resident set size (VmRSS) in MiB.
func (s *server) rssMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS line")
}
