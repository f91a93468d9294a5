package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests reads .github/workflows/ci.yml and fails on
// any go test command whose -run alternative or -fuzz target matches no
// function in the packages the command names: go test runs nothing for such
// a name and passes, so a renamed test would drop out of a CI step
// silently. A -run alternative must match a Test, Fuzz or Benchmark
// function, a -fuzz target a Fuzz function. A -run of ^$, which runs
// nothing on purpose, is skipped.
func TestCIRunPatternsMatchTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{} // test function names by package pattern
	funcs := func(pkg string) []string {
		if _, ok := names[pkg]; !ok {
			names[pkg] = testFuncs(t, pkg)
		}
		return names[pkg]
	}

	checked, misses := ciPatternMisses(string(yml), funcs)
	for _, m := range misses {
		t.Errorf("ci.yml: %s", m)
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
	t.Logf("%d patterns checked", checked)

	// The check itself: a name no test has is a miss.
	probe := "      - name: probe\n        run: go test -run 'TestDesignLedger|TestNoSuchTest' .\n"
	if _, misses := ciPatternMisses(probe, funcs); len(misses) != 1 || !strings.Contains(misses[0], "TestNoSuchTest") {
		t.Errorf("a -run naming TestNoSuchTest gave misses %q, want that one", misses)
	}
}

// ciPatternMisses checks every -run alternative and -fuzz target of every
// go test command in a workflow file against the test functions funcs lists
// for each package the command names. It returns how many it checked and a
// line for each that matches nothing.
func ciPatternMisses(yml string, funcs func(pkg string) []string) (checked int, misses []string) {
	for _, cmd := range ciCommands(yml) {
		args := shellWords(cmd)
		for i := 0; i+1 < len(args); i++ {
			if args[i] != "go" || args[i+1] != "test" {
				continue
			}
			run, fuzz, pkgs := goTestArgs(args[i+2:])
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			var have, fuzzers []string
			for _, p := range pkgs {
				have = append(have, funcs(p)...)
			}
			for _, name := range have {
				if strings.HasPrefix(name, "Fuzz") {
					fuzzers = append(fuzzers, name)
				}
			}
			for _, alt := range runAlternatives(run) {
				checked++
				if !anyMatch(alt, have) {
					misses = append(misses, "-run alternative "+alt+" matches no test in "+strings.Join(pkgs, " "))
				}
			}
			if fuzz != "" {
				checked++
				if !anyMatch(fuzz, fuzzers) {
					misses = append(misses, "-fuzz target "+fuzz+" matches no fuzz test in "+strings.Join(pkgs, " "))
				}
			}
		}
	}
	return checked, misses
}

// ciCommands returns the shell commands of a workflow's run: keys. A
// literal block (|) gives one command per line; a folded one (>-) joins its
// lines into one.
func ciCommands(yml string) []string {
	lines := strings.Split(yml, "\n")
	var cmds []string
	for i := 0; i < len(lines); i++ {
		value, ok := strings.CutPrefix(strings.TrimSpace(lines[i]), "run:")
		if !ok {
			continue
		}
		value = strings.TrimSpace(value)
		if value != "|" && value != ">-" {
			cmds = append(cmds, value)
			continue
		}
		indent := len(lines[i]) - len(strings.TrimLeft(lines[i], " "))
		var block []string
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			block = append(block, strings.TrimSpace(next))
			i++
		}
		if value == ">-" {
			cmds = append(cmds, strings.Join(block, " "))
		} else {
			cmds = append(cmds, block...)
		}
	}
	return cmds
}

// shellWords splits a command at blanks outside single quotes and drops
// the quotes.
func shellWords(cmd string) []string {
	var words []string
	var w strings.Builder
	quoted, inWord := false, false
	for _, c := range cmd {
		switch {
		case c == '\'':
			quoted, inWord = !quoted, true
		case (c == ' ' || c == '\t') && !quoted:
			if inWord {
				words = append(words, w.String())
				w.Reset()
			}
			inWord = false
		default:
			w.WriteRune(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// goTestArgs reads the -run and -fuzz patterns and the packages from the
// arguments after "go test". Flags given as "-flag value" are the ones
// that take a value.
func goTestArgs(args []string) (run, fuzz string, pkgs []string) {
	valued := []string{"-run", "-fuzz", "-bench", "-count", "-benchtime", "-fuzztime", "-coverprofile", "-timeout"}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			if strings.HasPrefix(a, "$(") || strings.ContainsAny(a, "|;&") {
				break // the rest is another command
			}
			pkgs = append(pkgs, a)
			continue
		}
		name, value, ok := strings.Cut(a, "=")
		if !ok && slices.Contains(valued, name) && i+1 < len(args) {
			i++
			value = args[i]
		}
		switch name {
		case "-run":
			run = value
		case "-fuzz":
			fuzz = value
		}
	}
	return run, fuzz, pkgs
}

// runAlternatives splits a -run pattern into its top-level alternatives,
// each anchored as the whole pattern was: ^(A|B)$ gives ^A$ and ^B$. The
// empty pattern and ^$ give none.
func runAlternatives(run string) []string {
	if run == "" || run == "^$" {
		return nil
	}
	if inner, ok := strings.CutPrefix(run, "^("); ok && strings.HasSuffix(inner, ")$") {
		var alts []string
		for _, alt := range strings.Split(strings.TrimSuffix(inner, ")$"), "|") {
			alts = append(alts, "^"+alt+"$")
		}
		return alts
	}
	var alts []string
	for _, alt := range strings.Split(run, "|") {
		top, _, _ := strings.Cut(alt, "/") // the top-level test's part
		alts = append(alts, top)
	}
	return alts
}

// anyMatch reports whether the regular expression pattern matches one of
// names. A pattern that does not compile matches nothing.
func anyMatch(pattern string, names []string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	return slices.ContainsFunc(names, re.MatchString)
}

var testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// testFuncs lists the Test, Fuzz and Benchmark functions of the _test.go
// files in a package pattern: a directory, or a directory and everything
// under it ("./...").
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "...")
	dir = filepath.Clean(dir)
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(b), -1) {
			out = append(out, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("package %s: %v", pkg, err)
	}
	return out
}
