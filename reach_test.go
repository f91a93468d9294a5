package repro_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// keptAPI is one identifier production does not reach that the repository
// keeps, and why: a "reference" is an implementation a test compares
// production against; a "seam" lets a test observe or drive other production
// behaviour; a "wire" struct type is a client-facing JSON view whose fields
// leave the process through an endpoint or file, which its why names first,
// and need not be read back by production. A test that only exercises the
// identifier itself is none of these.
type keptAPI struct {
	kind  string   // "reference", "seam" or "wire"
	tests []string // the Test and Fuzz functions that need it; for "wire", ones that decode it
	why   string
}

// reachAllow is the inventory of API that is unreached but kept, keyed the
// way TestReachability names an identifier. An entry naming a struct type
// covers its unread fields. An entry that production reaches again, or
// whose tests are gone, fails the gate.
var reachAllow = map[string]keptAPI{
	"internal/service.Record": {"wire", []string{"TestHTTPLifecycle", "TestJournalHoldsAcceptAndTerminalOnly", "TestHTTPFederationEndToEnd"},
		"GET /v1/jobs/{id} on gridd and gridfront: a job's record as clients poll it"},
	"internal/journal.Stats": {"wire", []string{"TestHTTPRetryAfterAndHealthz", "TestRouterProbesAnswerAsAShardDoes"},
		"GET /healthz on gridd and gridfront (its journal member): the journal's activity as an operator reads it"},
	"internal/jobio.Job": {"wire", []string{"TestJobsStreamRoundTrip", "FuzzReadJobs"},
		"jobgen's job stream and POST /v1/jobs bodies: the job file format, arrival times included"},
	"internal/jobio.Node": {"wire", []string{"TestEnvironmentRoundTrip"},
		"jobgen -env's environment file: the environment file format, groups and tiers included"},
	"internal/data.DatasetID": {"reference", []string{"TestBuildMatchesCloneReference", "TestDenseReplicasMatchCatalog"},
		"the map key of the string-keyed catalog the dense replica rows are compared with; its fields are compared as a key, never selected"},

	"internal/dag.Job.LongestChain": {"reference", []string{"TestBuildMatchesCloneReference", "FuzzRefusalMatchesLadder"},
		"refBuild (criticalworks/cow_test.go) finds each critical work with the allocating search; production runs LongestChainBuf"},
	"internal/data.Catalog.Replicas": {"reference", []string{"TestDenseReplicasMatchCatalog", "TestBuildMatchesCloneReference"},
		"sameReplicas compares a build's dense replica rows with the string-keyed catalog's replica sets"},
	"internal/data.Catalog.Commit": {"reference", []string{"TestBuildMatchesCloneReference", "TestDenseReplicasMatchCatalog"},
		"refBuild and the replica differential track replicas in the string-keyed catalog the build's dense rows are compared with"},
	"internal/federation.EncodeHandoff": {"seam", []string{"TestHandoffRoundTrip", "TestDecodeRejectsCorruption", "TestRouterRefusesAnOversizedSubmit"},
		"frames the handoffs the decoder, a local shard and the size limit are driven with; the router encodes in place"},
	"internal/telemetry.Tracer.SetClock": {"seam", []string{"TestSpanJSONLExactBytes"},
		"a fixed clock makes the span stream's bytes comparable"},
	"internal/breaker.Config.OpenMax": {"seam", []string{"TestChaosSoak", "TestMetricsFieldsAreTheirSeries", "TestRouterMetricsAreTheirSeries"},
		"holds a tripped breaker open for the length a scenario needs"},
	"internal/telemetry.Histogram.BucketCount": {"seam", []string{"TestHistogramBuckets"},
		"observes which bucket Observe filled"},
	"internal/batch.Gang.SlotCount": {"seam", []string{"TestGangPacksSameSlot"},
		"observes how the gang scheduler packed its slots"},
	"internal/sim.Engine.Pending": {"seam", []string{"TestReserveIsAllOrNothing", "TestRunUntil"},
		"observes the events a launch scheduled, or that a refused booking scheduled none"},
	"internal/experiments.Report.Value": {"seam", []string{"TestFig2ReproducesPaperStructure"},
		"reads one named cell of a report, failing on a typo"},
	"internal/experiments.Config.Trace": {"seam", []string{"TestParallelMatchesSequential", "TestTelemetryDoesNotPerturbResults"},
		"captures each cell's VO event stream to compare runs"},
	"internal/dag.Job.TaskByName": {"seam", []string{"TestSourcesSinks", "TestCoarsenMixed", "TestMinMinPicksShortTaskFirst"},
		"finds a task's ID by the name a test built it under"},
	"internal/dag.Job.TotalVolume": {"seam", []string{"TestBuilderBasics"},
		"observes the volumes the builder recorded"},
	"internal/resource.Calendar.Free": {"seam", []string{"TestQuickFirstFreeIsFreeAndEarliest", "TestCalendarPruneBefore", "TestCalendarIndexEquivalenceRandomOps"},
		"checks the windows FirstFree, PruneBefore and the index answer for"},
	"internal/faults.Config.RetryBackoff": {"seam", []string{"TestNodeOutageKillsRunningJobAndRetries", "TestChaosSoak"},
		"sets the retry ladder's base delay a scenario times its events by"},
	"internal/federation.MemberConfig.Client": {"seam", []string{"TestMemberRetryWaitsLeakNothingAndKeepWakeups", "TestFederationPartitionChaos"},
		"puts a fault-injecting or keep-alive-free transport under the member"},
	"internal/federation.MemberConfig.RetryBase": {"seam", []string{"TestMemberRetryWaitsLeakNothingAndKeepWakeups", "TestFederationPartitionChaos"},
		"shortens the member's retry waits to test time"},
	"internal/federation.MemberConfig.RetryCap": {"seam", []string{"TestMemberRetryWaitsLeakNothingAndKeepWakeups", "TestFederationPartitionChaos"},
		"shortens the member's retry waits to test time"},
}

// TestReachability is the gate on unreached production API. It type-checks
// every non-test package of the module and fails when
//
//   - an exported function, method or type declared under internal/ is
//     referenced by no non-test file beyond its own declaration, or
//   - an exported field of a *Config or *Options struct declared under
//     internal/ (or of strategy.Generator) is set by no non-test file outside
//     the declaring package's own defaulting: an assignment there, or a
//     compile-time constant in one of its literals, or
//   - an exported field of an exported struct type declared under internal/
//     is read by no non-test file, where a read is a field selector that is
//     not the target of =, op= or ++/-- (so a counter that is only
//     incremented is unread). ./benchmark and cmd/ are non-test files.
//
// A method that satisfies an interface is reached through it, and
// internal/chaostest is a test harness by design; both are exempt. Every
// other exception is a reachAllow entry; a field is also covered by one
// naming its type. The log line counts the option fields the gate covers
// and how many of them the allowlist keeps, and the unread fields it keeps.
func TestReachability(t *testing.T) {
	u := loadModule(t)
	flagged := map[string]bool{}
	for _, id := range u.unreferenced() {
		flagged[id] = true
		if _, ok := reachAllow[id]; !ok {
			t.Errorf("%s: referenced by no non-test file", id)
		}
	}
	unset, options := u.unsetFields()
	for _, id := range unset {
		flagged[id] = true
		if _, ok := reachAllow[id]; !ok {
			t.Errorf("%s: set by no non-test file outside its package's defaulting", id)
		}
	}
	allowedUnread := 0
	for _, id := range u.unreadFields() {
		owner := id[:strings.LastIndexByte(id, '.')]
		switch _, field := reachAllow[id]; {
		case field:
			flagged[id] = true
		case reachAllow[owner].kind != "":
			flagged[owner] = true
		default:
			t.Errorf("%s: read by no non-test file", id)
			continue
		}
		allowedUnread++
	}
	allowedOptions := 0
	for id, k := range reachAllow {
		if options[id] {
			allowedOptions++
		}
		if !flagged[id] {
			t.Errorf("reachAllow[%q]: production reaches it, or it is gone; drop the entry", id)
		}
		if k.kind != "reference" && k.kind != "seam" && k.kind != "wire" || k.why == "" || len(k.tests) == 0 {
			t.Errorf("reachAllow[%q]: want kind reference, seam or wire, a reason and the tests that need it", id)
		}
		for _, name := range k.tests {
			if !u.tests[name] {
				t.Errorf("reachAllow[%q]: no test function %s in the module", id, name)
			}
		}
	}
	t.Logf("%d exported option fields under the gate, %d of them allowlisted; %d unread fields allowlisted; %d allowlist entries in all",
		len(options), allowedOptions, allowedUnread, len(reachAllow))
}

const modulePath = "repro"

// listedPackage is the part of `go list -json` output the gate reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Error      *struct{ Err string }
}

// universe is every non-test package of the module, type-checked from
// source against the standard library's export data, with what the two
// rules need: every object a non-test file references, every field one sets,
// every interface in sight, and the names of the module's tests.
type universe struct {
	fset   *token.FileSet
	pkgs   []*checkedPackage
	used   map[types.Object]bool
	set    map[*types.Var]bool
	read   map[*types.Var]bool
	ifaces map[string][]*types.Interface // by method name
	tests  map[string]bool
}

type checkedPackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

func loadModule(t *testing.T) *universe {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}

	u := &universe{
		used:   map[types.Object]bool{},
		set:    map[*types.Var]bool{},
		read:   map[*types.Var]bool{},
		ifaces: map[string][]*types.Interface{},
		tests:  map[string]bool{},
	}
	fset := token.NewFileSet()
	u.fset = fset
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	// go list -deps prints every package after its dependencies, so each
	// module package is checked after the ones it imports.
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		cp := &checkedPackage{path: p.ImportPath, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		if cp.types, err = (&types.Config{Importer: imp}).Check(p.ImportPath, fset, cp.files, cp.info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = cp.types
		u.pkgs = append(u.pkgs, cp)

		tests, _ := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		for _, name := range tests {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
				u.tests[string(m[1])] = true
			}
		}
	}

	seen := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				u.addInterface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			addScope(q)
		}
	}
	u.addInterface(types.Universe.Lookup("error").Type())
	for _, cp := range u.pkgs {
		for _, obj := range cp.info.Uses {
			u.used[origin(obj)] = true
		}
		for _, tv := range cp.info.Types {
			u.addInterface(tv.Type)
		}
		for _, f := range cp.files {
			u.collectWrites(cp, f)
		}
		u.collectReads(cp)
		addScope(cp.types)
	}
	return u
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a generic instance's method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (u *universe) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		u.ifaces[name] = append(u.ifaces[name], it)
	}
}

// satisfiesInterface reports whether m is a method of an interface that its
// receiver type T or *T implements.
func (u *universe) satisfiesInterface(recv *types.Named, m *types.Func) bool {
	for _, it := range u.ifaces[m.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// collectWrites records the fields f sets: the keys of a struct literal (every
// field of an unkeyed one), the targets of an assignment or increment, and an
// address handed to another writer (flag.IntVar(&cfg.F, ...)), along every
// field of the selector chain (cfg.Journal.Fsync = x sets Journal too). An
// assignment inside the field's own package is that package's defaulting and
// does not count, and neither is a compile-time constant its own package
// writes in a literal (Default's MaxNodes: 30); a value passed in (Default's
// Seed: seed) still counts.
func (u *universe) collectWrites(cp *checkedPackage, f *ast.File) {
	fields := func(e ast.Expr, assign bool) {
		for {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := cp.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if v := origin(s.Obj()).(*types.Var); !assign || v.Pkg() != cp.types {
					u.set[v] = true
				}
			}
			e = sel.X
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := cp.info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				v, val := st.Field(i), elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v, val = cp.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
				}
				if v.Pkg() != cp.types || cp.info.Types[val].Value == nil {
					u.set[origin(v).(*types.Var)] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				fields(lhs, true)
			}
		case *ast.IncDecStmt:
			fields(n.X, true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				fields(n.X, false)
			}
		}
		return true
	})
}

// collectReads records the fields cp reads: every field selector that is not
// the target of an assignment or increment, and the embedded fields a
// promoted selector passes through. In cfg.Journal.Fsync = x, Journal is read
// and Fsync is not, so a counter that is only incremented is unread.
func (u *universe) collectReads(cp *checkedPackage) {
	targets := map[*ast.SelectorExpr]bool{}
	for _, f := range cp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						targets[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					targets[sel] = true
				}
			}
			return true
		})
	}
	for sel, s := range cp.info.Selections {
		if s.Kind() != types.FieldVal {
			continue
		}
		if !targets[sel] {
			u.read[origin(s.Obj()).(*types.Var)] = true
		}
		t := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			v := t.Underlying().(*types.Struct).Field(i)
			u.read[origin(v).(*types.Var)] = true
			t = v.Type()
		}
	}
}

// gated reports whether the gate holds a package to its rules.
func gated(path string) bool {
	return strings.HasPrefix(path, modulePath+"/internal/") && path != modulePath+"/internal/chaostest"
}

// displayName names obj as "internal/pkg.Name" or "internal/pkg.Type.Name".
func displayName(obj types.Object, typeName string) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/")
	if typeName != "" {
		return pkg + "." + typeName + "." + obj.Name()
	}
	return pkg + "." + obj.Name()
}

// unreferenced lists, sorted, the gated exported functions, methods and
// types no non-test file references.
func (u *universe) unreferenced() []string {
	var ids []string
	for _, cp := range u.pkgs {
		if !gated(cp.path) {
			continue
		}
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := cp.info.Defs[d.Name].(*types.Func)
					if !fn.Exported() || u.used[fn] {
						continue
					}
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil {
						ids = append(ids, displayName(fn, ""))
						continue
					}
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					if named := rt.(*types.Named); !u.satisfiesInterface(named, fn) {
						ids = append(ids, displayName(fn, named.Obj().Name()))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if ok && ts.Name.IsExported() && !u.used[cp.info.Defs[ts.Name]] {
							ids = append(ids, displayName(cp.info.Defs[ts.Name], ""))
						}
					}
				}
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// unreadFields lists, sorted, the exported fields of gated exported struct
// types that no non-test file reads.
func (u *universe) unreadFields() []string {
	var ids []string
	for _, cp := range u.pkgs {
		if !gated(cp.path) {
			continue
		}
		scope := cp.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() && !u.read[v] {
					ids = append(ids, displayName(v, name))
				}
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// unsetFields lists, sorted, the exported fields of gated option structs
// that no non-test file sets outside their package's defaulting, and returns
// the names of every such field, set or not.
func (u *universe) unsetFields() (ids []string, all map[string]bool) {
	all = map[string]bool{}
	for _, cp := range u.pkgs {
		if !gated(cp.path) {
			continue
		}
		scope := cp.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			options := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
				cp.path == modulePath+"/internal/strategy" && name == "Generator"
			if !ok || !tn.Exported() || !options {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() {
					continue
				}
				all[displayName(v, name)] = true
				if !u.set[v] {
					ids = append(ids, displayName(v, name))
				}
			}
		}
	}
	sort.Strings(ids)
	return ids, all
}
