package repro_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// quotedSections pairs each EXPERIMENTS.md section that tabulates a paper
// figure or study with the results_full.txt section its table quotes.
var quotedSections = []struct{ exp, record string }{
	{"E2", "fig3a"}, {"E3", "fig3b"}, {"E4", "fig4a"}, {"E5", "fig4b"}, {"E6", "fig4c"},
	{"E7", "policies"}, {"E8", "ablation-collision"}, {"E9", "ablation-levels"},
	{"E10", "comparison"}, {"E11", "local-passing"}, {"E12", "availability"},
}

// TestExperimentsQuoteTheRecord checks that every measured number in the
// tables of EXPERIMENTS E2–E12 is the one `gridsim -exp all` prints in
// results_full.txt, so that no doc table can drift from the code.
//
// A table's first column names its rows, and a column headed "paper" quotes
// the paper; every other cell is measured. Row i of an n-row table reads the
// record section's data lines i, i+n, i+2n, … (E12 puts the three strategy
// types' lines of one availability in one row), narrowed to the line whose
// label a column header starts with (E12's "S1 miss"). A cell's numbers must
// appear on that line adjacent and in order, as the record prints them; the
// only roundings allowed are "143" for 143.0 and "5.57 M" for 5574730.
//
// A second pass edits one digit of every measured number to each other digit
// and fails if the check still passes, so a one-digit drift in any of these
// tables cannot go unnoticed.
func TestExperimentsQuoteTheRecord(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile("results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, q := range quotedSections {
		header, rows := docTable(t, string(doc), q.exp)
		lines := recordLines(t, string(rec), q.record)
		if len(rows) == 0 || len(lines)%len(rows) != 0 {
			t.Errorf("%s: %d table rows cannot read the %d data lines of %s", q.exp, len(rows), len(lines), q.record)
			continue
		}
		for i, row := range rows {
			var own [][]string // the record lines row i reads
			for j := i; j < len(lines); j += len(rows) {
				own = append(own, lines[j])
			}
			for c := 1; c < len(header) && c < len(row); c++ {
				if strings.Contains(header[c], "paper") {
					continue
				}
				cand := narrow(own, header[c])
				nums := quotedNumbers(row[c])
				cells++
				if !found(nums, cand) {
					t.Errorf("%s row %q column %q: %q is not in %s's line %v", q.exp, row[0], header[c], row[c], q.record, cand)
					continue
				}
				for k, n := range nums {
					for p := range n.s {
						if n.s[p] < '0' || n.s[p] > '9' {
							continue
						}
						for d := byte('0'); d <= '9'; d++ {
							if d == n.s[p] {
								continue
							}
							edited := append([]quote(nil), nums...)
							edited[k].s = n.s[:p] + string(d) + n.s[p+1:]
							if found(edited, cand) {
								t.Errorf("%s row %q column %q: editing %s to %s would go unnoticed", q.exp, row[0], header[c], n.s, edited[k].s)
							}
						}
					}
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("no measured cell was checked")
	}
}

// docTable returns the header and data rows of the first table in section
// exp of EXPERIMENTS.md, each as its trimmed cells.
func docTable(t *testing.T, doc, exp string) (header []string, rows [][]string) {
	t.Helper()
	start := strings.Index(doc, "\n## "+exp+" —")
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no section %s", exp)
	}
	body := doc[start+1:]
	if end := strings.Index(body[1:], "\n## "); end >= 0 {
		body = body[:end+1]
	}
	var table [][]string
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "|") {
			if table != nil {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		table = append(table, cells)
	}
	if len(table) < 3 {
		t.Fatalf("%s has no table", exp)
	}
	return table[0], table[2:]
}

// recordLines returns the data lines of section id of results_full.txt: the
// lines after its column header, up to the blank line ending it, leaving out
// parenthesised notes. Each line is its fields after the row label, with the
// label first and percent signs dropped.
func recordLines(t *testing.T, rec, id string) [][]string {
	t.Helper()
	start := strings.Index(rec, "== "+id+":")
	if start < 0 {
		t.Fatalf("results_full.txt has no section %s", id)
	}
	lines := strings.Split(rec[start:], "\n")
	var out [][]string
	for _, line := range lines[2:] {
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if strings.HasPrefix(line, "(") {
			continue
		}
		out = append(out, strings.Fields(strings.ReplaceAll(line, "%", "")))
	}
	return out
}

// narrow keeps the lines whose label the column header starts with, or all
// of them if none is.
func narrow(lines [][]string, header string) [][]string {
	label, _, _ := strings.Cut(header, " ")
	var out [][]string
	for _, l := range lines {
		if l[0] == label {
			out = append(out, l)
		}
	}
	if out == nil {
		return lines
	}
	return out
}

// quote is one number a cell quotes; millions marks a "5.57 M".
type quote struct {
	s        string
	millions bool
}

var quoteRE = regexp.MustCompile(`\d+(?:\.\d+)?(\s*M\b)?`)

func quotedNumbers(cell string) []quote {
	var out []quote
	for _, m := range quoteRE.FindAllStringSubmatch(cell, -1) {
		out = append(out, quote{s: strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(m[0]), "M")), millions: m[1] != ""})
	}
	return out
}

// found reports whether the numbers appear adjacent and in order in one of
// the lines' fields after the label.
func found(nums []quote, lines [][]string) bool {
	for _, l := range lines {
		fields := l[1:]
		for k := 0; k+len(nums) <= len(fields); k++ {
			all := true
			for i, n := range nums {
				all = all && n.matches(fields[k+i])
			}
			if all {
				return true
			}
		}
	}
	return false
}

// matches reports whether the record field r prints the quoted number.
func (q quote) matches(r string) bool {
	if q.millions {
		v, err := strconv.ParseFloat(r, 64)
		decimals := 0
		if dot := strings.IndexByte(q.s, '.'); dot >= 0 {
			decimals = len(q.s) - dot - 1
		}
		return err == nil && strconv.FormatFloat(v/1e6, 'f', decimals, 64) == q.s
	}
	return r == q.s || (!strings.Contains(q.s, ".") && r == q.s+".0")
}
