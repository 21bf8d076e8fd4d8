package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// harness owns everything a run leaves on disk: the built binaries and one
// scratch directory, both under benchmark/out so a run never writes outside
// its checkout.
type harness struct {
	outDir  string // <root>/benchmark/out
	scratch string // per-run directory under outDir, removed on close
	daemon  string // built autotuned binary
	evalBin string // built autotune-evaluator binary
}

// moduleRoot walks up from the working directory to the repo's go.mod, so
// the harness works both as `go run ./benchmark` (cwd = root) and under
// `go test` (cwd = the package directory).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// newHarness builds the programs under test from source and creates the
// run's scratch directory. Building happens here, before any timing.
func newHarness(ctx context.Context) (*harness, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{outDir: filepath.Join(root, "benchmark", "out")}
	bin := filepath.Join(h.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	h.daemon = filepath.Join(bin, "autotuned")
	h.evalBin = filepath.Join(bin, "autotune-evaluator")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/autotuned", "./cmd/autotune-evaluator")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("benchmark: building the daemon and evaluator: %w\n%s", err, out)
	}
	removeOrphans(h.outDir)
	if h.scratch, err = os.MkdirTemp(h.outDir, fmt.Sprintf("run-%d-", os.Getpid())); err != nil {
		return nil, err
	}
	return h, nil
}

// removeOrphans deletes the scratch directories of runs that were killed
// before they could clean up (a repository corpus is 170 MB): those named
// for a process that no longer exists.
func removeOrphans(outDir string) {
	dirs, _ := filepath.Glob(filepath.Join(outDir, "run-*")) // the pattern is well-formed
	for _, dir := range dirs {
		var pid int
		if _, err := fmt.Sscanf(filepath.Base(dir), "run-%d-", &pid); err != nil {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); os.IsNotExist(err) {
			os.RemoveAll(dir) // best effort: a leftover costs disk, nothing else
		}
	}
}

// close removes the run's scratch directory (repositories, child logs).
func (h *harness) close() error { return os.RemoveAll(h.scratch) }

// child is one process under test.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan error
}

// freeAddr asks the kernel for an unused loopback port. autotuned prints
// its -addr flag, not the bound port, so the harness has to choose the port
// itself; the listener is closed again and the small reuse race is covered
// by the caller retrying a child that fails to come up.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startChild execs bin on a free port with args appended and waits for its
// /healthz to answer 200. The child dies with the harness (Pdeathsig), so a
// killed benchmark leaves no daemon behind.
func (h *harness) startChild(ctx context.Context, bin string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		logf, err := os.OpenFile(filepath.Join(h.scratch, filepath.Base(bin)+".log"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("benchmark: starting %s: %w", bin, err)
		}
		c := &child{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
		go func() { c.done <- cmd.Wait() }()
		if lastErr = c.waitHealthy(ctx); lastErr == nil {
			return c, nil
		}
		c.stop()
	}
	return nil, fmt.Errorf("benchmark: %s did not come up: %w", bin, lastErr)
}

// waitHealthy polls /healthz every millisecond — tight, because the wait is
// part of setup_s and a coarse poll would quantize it.
func (c *child) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case err := <-c.done:
			c.done <- err
			return fmt.Errorf("exited before answering /healthz: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends the child and waits until it has: SIGTERM first (autotuned
// drains, which is instant with no live session), SIGKILL after 5 s.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// service is one set-up of the system under test: the daemon and, for the
// fleet workload, its evaluators.
type service struct {
	daemon     *child
	evaluators []*child
}

func (s *service) pids() []int {
	pids := []int{s.daemon.cmd.Process.Pid}
	for _, e := range s.evaluators {
		pids = append(pids, e.cmd.Process.Pid)
	}
	return pids
}

func (s *service) stop() {
	if s.daemon != nil {
		s.daemon.stop()
	}
	for _, e := range s.evaluators {
		e.stop()
	}
}

// startService execs the children a workload needs. Evaluators start first:
// a daemon registering with an evaluator that is not up yet would assume one
// slot and steer away from it.
func (h *harness) startService(ctx context.Context, w *workload, repoDir string) (*service, error) {
	s := &service{}
	var urls []string
	for i := 0; i < w.evaluators; i++ {
		e, err := h.startChild(ctx, h.evalBin, "-workers", "1")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.evaluators = append(s.evaluators, e)
		urls = append(urls, e.base)
	}
	var args []string
	if repoDir != "" {
		args = append(args, "-repo", repoDir)
	}
	if len(urls) > 0 {
		args = append(args, "-evaluators", strings.Join(urls, ","))
	}
	d, err := h.startChild(ctx, h.daemon, args...)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.daemon = d
	return s, nil
}
