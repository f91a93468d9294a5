package dag

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the job as a Graphviz digraph in the style of the
// paper's Fig. 2(a): task vertices labelled with name, type-1 estimate and
// volume; transfer edges labelled with name and base time.
func (j *Job) WriteDOT(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", j.Name)
	b.WriteString("  rankdir=LR;\n  node [shape=circle];\n")
	for _, t := range j.Tasks() {
		fmt.Fprintf(&b, "  %q [label=\"%s\\nT=%d V=%d\"];\n", t.Name, t.Name, t.BaseTime, t.Volume)
	}
	for _, e := range j.Edges() {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s (%d)\"];\n",
			j.name(int(e.From)), j.name(int(e.To)), e.Name, e.BaseTime)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
