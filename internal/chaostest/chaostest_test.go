package chaostest

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

const (
	selfRoleEnv = "CHAOSTEST_SELF_CHILD"
	selfAddrEnv = "CHAOSTEST_SELF_ADDR_FILE"
)

func TestMain(m *testing.M) {
	Main(m, selfRoleEnv, map[string]func(){"daemon": selfDaemon})
}

// selfDaemon is the smallest child the harness can manage: it serves
// /healthz on an ephemeral port, publishes the address by rename, and exits
// 0 on SIGTERM.
func selfDaemon() {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon: listen:", err)
		os.Exit(1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	go http.Serve(l, mux)
	fmt.Println("daemon: serving")
	addrFile := os.Getenv(selfAddrEnv)
	if err := os.WriteFile(addrFile+".tmp", []byte(l.Addr().String()), 0o644); err == nil {
		err = os.Rename(addrFile+".tmp", addrFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon: addr file:", err)
		os.Exit(1)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	<-sigc
	os.Exit(0)
}

// TestSpawnReadyKillTerminate walks the harness through one child life of
// each kind: ready by address file then SIGTERM'd to a clean exit, and
// ready again (the stale address file must not count) then SIGKILLed.
func TestSpawnReadyKillTerminate(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	env := []string{selfAddrEnv + "=" + addrFile}

	first := Spawn(t, selfRoleEnv, "daemon", env, AddrFile(addrFile))
	if addr, ok := Healthz(first.Addr).Probe(); !ok || addr != first.Addr {
		t.Fatalf("child at %q is not healthy", first.Addr)
	}
	if err := first.Terminate(); err != nil {
		t.Fatalf("graceful exit: %v\noutput:\n%s", err, first.Output())
	}
	if !strings.Contains(first.Output(), "daemon: serving") {
		t.Fatalf("child output not captured: %q", first.Output())
	}

	second := Spawn(t, selfRoleEnv, "daemon", env, AddrFile(addrFile))
	if _, ok := Healthz(second.Addr).Probe(); !ok {
		t.Fatalf("second incarnation not healthy at %q (first, now dead, was at %q)", second.Addr, first.Addr)
	}
	second.Kill(t)
	if _, ok := Healthz(second.Addr).Probe(); ok {
		t.Fatal("child still healthy after SIGKILL")
	}
}
