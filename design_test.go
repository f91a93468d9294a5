package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/design.golden and METRICS.md's generated columns")

// flagDefiner matches the flag package functions and *flag.FlagSet methods
// that define one flag.
var flagDefiner = regexp.MustCompile(`^((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|BoolFunc|Func|TextVar|Var)$`)

// TestDesignLedger is the design ledger beside the performance one: it
// counts what the module is made of and compares the counts with
// testdata/design.golden, failing on any difference, so a change that grows
// or shrinks the design shows it in the golden's diff. -update regenerates
// the golden. The counts, one per line:
//
//   - lines: non-test code lines per package under internal/ and cmd/, a
//     line counting unless it is blank or starts with //;
//   - exported: exported identifiers per package under internal/ and cmd/,
//     the package-level ones and the methods of its types;
//   - options: the option fields TestReachability's second rule covers;
//   - allow: reachAllow's entries by kind;
//   - flags: the flags each cmd/ binary defines;
//   - series: the grid_* families each package under internal/ registers
//     (TestMetricsCatalogue's scan; METRICS.md catalogues them).
func TestDesignLedger(t *testing.T) {
	u := loadModule(t)
	var b strings.Builder
	b.WriteString("# Design ledger (TestDesignLedger); go test -run TestDesignLedger -update . regenerates it.\n")
	total := func(kind string, per map[string]int) {
		sum := 0
		names := make([]string, 0, len(per))
		for name, n := range per {
			names = append(names, name)
			sum += n
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s %d\n", kind, name, per[name])
		}
		fmt.Fprintf(&b, "%s total %d\n", kind, sum)
	}

	total("lines", codeLines(t))

	exported, flags := map[string]int{}, map[string]int{}
	for _, cp := range u.pkgs {
		pkg := strings.TrimPrefix(cp.path, modulePath+"/")
		if !strings.HasPrefix(pkg, "internal/") && !strings.HasPrefix(pkg, "cmd/") {
			continue
		}
		exported[pkg] = exportedIdents(cp.types)
		if strings.HasPrefix(pkg, "cmd/") {
			flags[pkg] = flagDefinitions(cp)
		}
	}
	total("exported", exported)

	_, options := u.unsetFields()
	fmt.Fprintf(&b, "options %d\n", len(options))
	kinds := map[string]int{}
	for _, k := range reachAllow {
		kinds[k.kind]++
	}
	total("allow", kinds)
	total("flags", flags)

	series := map[string]int{}
	for _, fam := range registeredFamilies(t, u) {
		for _, pkg := range fam.pkgs {
			series[pkg]++
		}
	}
	total("series", series)

	got := []byte(b.String())
	path := filepath.Join("testdata", "design.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (go test -run TestDesignLedger -update . creates it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := lineSet(got), lineSet(want)
	for line := range wantLines {
		if !gotLines[line] {
			t.Errorf("golden: %s", line)
		}
	}
	for line := range gotLines {
		if !wantLines[line] {
			t.Errorf("now:    %s", line)
		}
	}
	t.Errorf("%s differs from the module; -update regenerates it", path)
}

func lineSet(b []byte) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		out[line] = true
	}
	return out
}

// codeLines counts each package's non-test code lines under internal/ and
// cmd/.
func codeLines(t *testing.T) map[string]int {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Dir}} {{join .GoFiles \" \"}}",
		"./internal/...", "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	per := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg := strings.TrimPrefix(fields[0], modulePath+"/")
		per[pkg] = 0
		for _, name := range fields[2:] {
			src, err := os.ReadFile(filepath.Join(fields[1], name))
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range strings.Split(string(src), "\n") {
				if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "//") {
					per[pkg]++
				}
			}
		}
	}
	return per
}

// exportedIdents counts p's exported package-level identifiers and the
// exported methods of its named types.
func exportedIdents(p *types.Package) int {
	n := 0
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		if obj.Exported() {
			n++
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if named.Method(i).Exported() {
						n++
					}
				}
			}
		}
	}
	return n
}

// flagDefinitions counts the calls in cp that define a flag.
func flagDefinitions(cp *checkedPackage) int {
	n := 0
	for _, f := range cp.files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := cp.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "flag" && flagDefiner.MatchString(fn.Name()) {
				n++
			}
			return true
		})
	}
	return n
}
