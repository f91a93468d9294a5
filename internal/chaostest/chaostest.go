// Package chaostest is the shared harness of the multi-process chaos
// suites (internal/service's kill-restart soak, internal/federation's
// partition soak): the test binary re-executes itself as a daemon child,
// the parent waits until the child is ready, SIGKILLs or SIGTERMs it, and
// reads what it printed. FaultTransport, the seeded network-fault
// injector those children put under their HTTP clients, lives here too.
// Import it from _test.go files only.
package chaostest

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// Main is a chaos suite's TestMain: when roleEnv names one of roles this
// process is a re-exec'd child and runs that role (which never returns to
// the tests); otherwise it runs the tests.
func Main(m *testing.M, roleEnv string, roles map[string]func()) {
	if child, ok := roles[os.Getenv(roleEnv)]; ok {
		child()
		return
	}
	os.Exit(m.Run())
}

// Ready says how a parent learns that a spawned child is serving: Probe is
// polled every Every until it reports the child's address, for at most
// Within.
type Ready struct {
	Probe         func() (addr string, ok bool)
	Every, Within time.Duration
}

// AddrFile is readiness by address file: the child listens on an ephemeral
// port and publishes it by renaming a complete file into place at path.
// A stale file from the previous incarnation is removed first.
func AddrFile(path string) Ready {
	os.Remove(path)
	return Ready{Every: 2 * time.Millisecond, Within: 10 * time.Second,
		Probe: func() (string, bool) {
			b, err := os.ReadFile(path)
			return string(b), err == nil
		}}
}

// Healthz is readiness by probe: the child listens on the fixed addr and
// is ready once GET /healthz answers 200.
func Healthz(addr string) Ready {
	return Ready{Every: 10 * time.Millisecond, Within: 15 * time.Second,
		Probe: func() (string, bool) {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err != nil {
				return "", false
			}
			resp.Body.Close()
			return addr, resp.StatusCode == http.StatusOK
		}}
}

// Proc is one child incarnation managed by the parent.
type Proc struct {
	Addr string // where the child serves HTTP
	cmd  *exec.Cmd
	out  bytes.Buffer
}

// Spawn re-executes the test binary with roleEnv=role plus env, and
// returns once ready reports the child's address. A child that never
// becomes ready is killed and fails the test with its output.
func Spawn(t testing.TB, roleEnv, role string, env []string, ready Ready) *Proc {
	t.Helper()
	p := &Proc{}
	// -test.run=NONE: if the child dispatch in Main ever broke, the
	// re-exec'd binary must not recursively run the test suite.
	p.cmd = exec.Command(os.Args[0], "-test.run=NONE")
	p.cmd.Env = append(append(os.Environ(), roleEnv+"="+role), env...)
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("spawn %s: %v", role, err)
	}
	deadline := time.Now().Add(ready.Within)
	for time.Now().Before(deadline) {
		if addr, ok := ready.Probe(); ok {
			p.Addr = addr
			return p
		}
		time.Sleep(ready.Every)
	}
	p.Kill(t)
	t.Fatalf("child %s never became ready; output:\n%s", role, p.Output())
	return nil
}

// Kill SIGKILLs the child and reaps it.
func (p *Proc) Kill(t testing.TB) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	p.cmd.Wait()
}

// Terminate SIGTERMs the child and waits for it; the error is non-nil when
// the child's graceful shutdown exited non-zero.
func (p *Proc) Terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	return p.cmd.Wait()
}

// Output returns everything the child has written to stdout and stderr.
// Call it after Kill or Terminate, or accept a torn read for diagnostics.
func (p *Proc) Output() string { return p.out.String() }
