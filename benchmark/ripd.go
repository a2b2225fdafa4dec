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
	"path/filepath"
	"syscall"
	"time"
)

// buildRipd compiles ripd from the checkout at root into out. The
// build is not timed; an up-to-date binary is not rebuilt.
func buildRipd(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/ripd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building ripd: %v\n%s", err, msg)
	}
	return nil
}

// ripd is one running server process, started with default flags except
// its listen address.
type ripd struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	log  *os.File
}

// startRipd launches bin on a free loopback port, logging to logPath.
func startRipd(bin, logPath string) (*ripd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed before it can stop the server takes it along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ripd: %w", err)
	}
	r := &ripd{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped server carries nothing
		close(r.done)
	}()
	return r, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (r *ripd) pid() int { return r.cmd.Process.Pid }

// waitReady polls /readyz until it answers 200.
func (r *ripd) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-r.done:
			return fmt.Errorf("ripd exited before it was ready (see %s)", r.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("ripd not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop asks the server to drain and waits for it to exit, killing it
// if it has not within ten seconds.
func (r *ripd) stop() error {
	defer r.log.Close()
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-r.done:
		return nil
	case <-time.After(10 * time.Second):
	}
	if err := r.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	<-r.done
	return errors.New("ripd did not drain within 10s and was killed")
}

// scrapeMetrics reads and parses /metrics.
func scrapeMetrics(ctx context.Context, cl *client) (scrape, error) {
	status, body, err := cl.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseProm(bytes.NewReader(body))
}
