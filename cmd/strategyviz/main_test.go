package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestDefaultRunIsFig2: with no flags strategyviz charts the paper's Fig. 2
// job as gridsim's fig2 experiment plans it — family S2 at deadline 24 —
// so it must print the same levels with the same CFs and finishes as that
// experiment's report, a Gantt chart under each.
func TestDefaultRunIsFig2(t *testing.T) {
	var out, diag bytes.Buffer
	if code := run(nil, &out, &diag); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, diag.String())
	}
	if !strings.HasPrefix(out.String(), "job fig2: 6 tasks, 8 transfers, deadline 24, strategy S2\n") {
		t.Fatalf("unexpected header:\n%s", out.String())
	}
	var fig2 *experiments.Report
	for _, e := range experiments.Experiments {
		if e.ID == "fig2" {
			r, err := e.Run(experiments.DefaultConfig(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			fig2 = r
		}
	}
	if fig2 == nil {
		t.Fatal("gridsim's index has no fig2")
	}
	want := map[int]string{}
	for key, v := range fig2.Values {
		var level int
		if _, err := fmt.Sscanf(key, "cf-level%d", &level); err == nil {
			want[level] = fmt.Sprintf("CF=%d finish=%d", int64(v), int64(fig2.Values[fmt.Sprintf("finish-level%d", level)]))
		}
	}
	got := map[int]string{}
	charts := 0
	for _, line := range strings.Split(out.String(), "\n") {
		var level int
		var cf, finish int64
		if _, err := fmt.Sscanf(line, "Distribution (level %d): CF=%d finish=%d", &level, &cf, &finish); err == nil {
			got[level] = fmt.Sprintf("CF=%d finish=%d", cf, finish)
		}
		if strings.HasPrefix(line, "  time ") {
			charts++
		}
	}
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("levels printed %v, fig2 reports %v", got, want)
	}
	if charts != len(got) {
		t.Errorf("%d Gantt charts for %d distributions", charts, len(got))
	}
}

// TestUnknownTypeExitsTwo: -type takes the family names strategy.ParseType
// takes; anything else is a usage error.
func TestUnknownTypeExitsTwo(t *testing.T) {
	for _, typ := range []string{"bogus", "Ms1"} {
		var out, diag bytes.Buffer
		if code := run([]string{"-type", typ}, &out, &diag); code != 2 || !strings.Contains(diag.String(), "unknown family") || out.Len() != 0 {
			t.Errorf("-type %s: exit %d, stdout %q, stderr %q; want 2, nothing printed and a message", typ, code, out.String(), diag.String())
		}
	}
}
