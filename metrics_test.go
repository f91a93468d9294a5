package repro_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// catalogueHeader is the first line of METRICS.md's table; everything above
// it is prose that -update keeps as it is.
const catalogueHeader = "| family | kind | labels | package | question |"

// metricFamily is one grid_* family as its registration sites state it.
type metricFamily struct {
	kind   string
	labels []string // label keys, sorted
	pkgs   []string // registering packages, sorted
}

// TestMetricsCatalogue holds METRICS.md to the registry. It scans every
// call of (*telemetry.Registry).Counter, Gauge and Histogram under
// internal/ (the registry's own package aside) for the family name, which
// must be a constant, its kind and its telemetry.L label keys, and compares
// them with the catalogue's table. It fails on a family registered but not
// catalogued, one catalogued but not registered, a row whose generated
// columns are stale and a row with no question. -update rewrites the
// generated columns (family, kind, labels, package) from the scan and keeps
// each family's hand-written question and the prose above the table.
func TestMetricsCatalogue(t *testing.T) {
	fams := registeredFamilies(t, loadModule(t))
	if len(fams) == 0 {
		t.Fatal("found no registration under internal/")
	}
	const path = "METRICS.md"
	src, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatalf("missing catalogue (go test -run TestMetricsCatalogue -update . creates it): %v", err)
	}
	prose, questions := parseCatalogue(t, string(src))

	var b strings.Builder
	b.WriteString(prose)
	b.WriteString(catalogueHeader + "\n|---|---|---|---|---|\n")
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		labels := "—"
		if len(f.labels) > 0 {
			labels = "`" + strings.Join(f.labels, "`, `") + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", name, f.kind, labels, strings.Join(f.pkgs, ", "), questions[name])
	}
	got := []byte(b.String())

	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, name := range names {
			if _, ok := questions[name]; !ok {
				t.Errorf("%s: %s is registered (%s) but not catalogued", path, name, strings.Join(fams[name].pkgs, ", "))
			}
		}
		for name := range questions {
			if _, ok := fams[name]; !ok {
				t.Errorf("%s: %s is catalogued but no package registers it; delete its row", path, name)
			}
		}
		if !bytes.Equal(got, src) && !t.Failed() {
			t.Errorf("%s: a generated column is stale; -update rewrites it", path)
		}
	}
	for _, name := range names {
		if questions[name] == "" {
			t.Errorf("%s: %s has no question; write the one it answers, or delete the family", path, name)
		}
	}
	t.Logf("%d families catalogued", len(names))
}

// parseCatalogue splits METRICS.md into the prose above its table and the
// questions of the table's rows, by family name.
func parseCatalogue(t *testing.T, src string) (prose string, questions map[string]string) {
	t.Helper()
	questions = map[string]string{}
	before, table, found := strings.Cut(src, catalogueHeader+"\n")
	if !found {
		return "# Metrics\n\n", questions
	}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 5 {
			t.Fatalf("METRICS.md: want 5 cells, not %d, in %q", len(cells), line)
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if _, dup := questions[name]; dup {
			t.Errorf("METRICS.md: %s is catalogued twice", name)
		}
		questions[name] = strings.TrimSpace(cells[4])
	}
	return before, questions
}

// registeredFamilies returns every family registered under internal/, by
// name. A family name that is not a constant, a label that is not a
// telemetry.L call with a constant key, and a family registered with two
// kinds or two label sets fail the test.
func registeredFamilies(t *testing.T, u *universe) map[string]*metricFamily {
	t.Helper()
	const telemetryPath = modulePath + "/internal/telemetry"
	fams := map[string]*metricFamily{}
	for _, cp := range u.pkgs {
		pkg := strings.TrimPrefix(cp.path, modulePath+"/")
		if !strings.HasPrefix(pkg, "internal/") || cp.path == telemetryPath {
			continue
		}
		for _, f := range cp.files {
			defs := definitions(cp.info, f)
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, nfixed := registration(cp.info, call, telemetryPath)
				if kind == "" {
					return true
				}
				pos := u.fset.Position(call.Pos())
				name, ok := constString(cp.info, call.Args[0])
				if !ok {
					t.Errorf("%s: a family name must be a constant", pos)
					return true
				}
				if call.Ellipsis.IsValid() {
					t.Errorf("%s: %s's labels are spread from a slice; pass each telemetry.L", pos, name)
					return true
				}
				var labels []string
				for _, arg := range call.Args[nfixed:] {
					key, ok := labelKey(cp.info, defs, arg, telemetryPath)
					if !ok {
						t.Errorf("%s: a label of %s is not a telemetry.L call with a constant key", pos, name)
						return true
					}
					labels = append(labels, key)
				}
				sort.Strings(labels)
				fam := fams[name]
				if fam == nil {
					fam = &metricFamily{kind: kind, labels: labels}
					fams[name] = fam
				} else if fam.kind != kind || strings.Join(fam.labels, ",") != strings.Join(labels, ",") {
					t.Errorf("%s: %s registered as %s %v here and as %s %v elsewhere", pos, name, kind, labels, fam.kind, fam.labels)
				}
				if !slices.Contains(fam.pkgs, pkg) {
					fam.pkgs = append(fam.pkgs, pkg)
					sort.Strings(fam.pkgs)
				}
				return true
			})
		}
	}
	return fams
}

// registration reports the kind of family call registers and how many of
// its arguments precede the labels, or "" when call is not a
// (*telemetry.Registry).Counter, Gauge or Histogram call.
func registration(info *types.Info, call *ast.CallExpr, telemetryPath string) (kind string, nfixed int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPath {
		return "", 0
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", 0
	}
	if ptr, ok := recv.Type().(*types.Pointer); !ok || ptr.Elem().(*types.Named).Obj().Name() != "Registry" {
		return "", 0
	}
	switch fn.Name() {
	case "Counter":
		return "counter", 2
	case "Gauge":
		return "gauge", 2
	case "Histogram":
		return "histogram", 3
	}
	return "", 0
}

// labelKey reads the key of a label argument: a telemetry.L call, or a
// local variable assigned exactly once from one.
func labelKey(info *types.Info, defs map[types.Object][]ast.Expr, arg ast.Expr, telemetryPath string) (string, bool) {
	if id, ok := arg.(*ast.Ident); ok {
		rhs := defs[info.Uses[id]]
		if len(rhs) != 1 {
			return "", false
		}
		arg = rhs[0]
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPath || fn.Name() != "L" {
		return "", false
	}
	return constString(info, call.Args[0])
}

// definitions maps each variable f assigns or declares to the expressions
// assigned to it.
func definitions(info *types.Info, f *ast.File) map[types.Object][]ast.Expr {
	defs := map[types.Object][]ast.Expr{}
	obj := func(id *ast.Ident) types.Object {
		if o := info.Defs[id]; o != nil {
			return o
		}
		return info.Uses[id]
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						defs[obj(id)] = append(defs[obj(id)], n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, id := range n.Names {
					defs[obj(id)] = append(defs[obj(id)], n.Values[i])
				}
			}
		}
		return true
	})
	return defs
}

func constString(info *types.Info, e ast.Expr) (string, bool) {
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}
