package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordMatchesResultsFull runs `gridsim -exp all` with -jobs unset —
// every experiment at its paper scale — on two workers and compares the
// output with the committed results_full.txt byte for byte, naming the first
// line that differs. The file is the paper record EXPERIMENTS.md quotes, so
// a change that moves any number in it shows here; after an intended change,
// regenerate it with `go run ./cmd/gridsim -exp all > results_full.txt`. It
// takes several seconds, so it skips under -short and under the race
// detector; CI's coverage step runs it without either.
func TestRecordMatchesResultsFull(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the paper-scale record takes several seconds; CI's coverage step runs it without -short and -race")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out, diag bytes.Buffer
	if code := run([]string{"-exp", "all", "-workers", "2"}, &out, &diag); code != 0 {
		t.Fatalf("gridsim -exp all exited %d: %s", code, diag.String())
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(exp)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Fatalf("gridsim -exp all differs from results_full.txt at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// TestJobsFlag: a -jobs below 1 is refused with exit status 2; left unset,
// it is the paper's Fig. 3 corpus, which every other experiment caps.
func TestJobsFlag(t *testing.T) {
	for _, jobs := range []string{"0", "-3"} {
		var out, diag bytes.Buffer
		if code := run([]string{"-exp", "fig2", "-jobs", jobs}, &out, &diag); code != 2 || !strings.Contains(diag.String(), "want at least 1") {
			t.Errorf("-jobs %s: exit %d, stderr %q; want 2 and a message", jobs, code, diag.String())
		}
	}
	var out, diag bytes.Buffer
	if code := run([]string{"-exp", "fig2"}, &out, &diag); code != 0 || !strings.HasPrefix(out.String(), "== fig2:") {
		t.Errorf("-exp fig2: exit %d, stdout %q, stderr %q", code, out.String(), diag.String())
	}
}
