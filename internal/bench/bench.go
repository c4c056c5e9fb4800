// Package bench is the experiment harness of the reproduction: one
// function per table and figure of the paper's evaluation (Section 4),
// each running the full RepEx stack (core orchestrator, engine adapter,
// pilot runtime, simulated cluster) and printing the same rows/series the
// paper reports. Quick variants shrink replica counts and cycles for use
// in unit tests and testing.B benchmarks. Every run executes through
// internal/runner.
package bench

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// SmallSystemAtoms is the paper's solvated alanine dipeptide size used
// in the 1D and M-REMD experiments.
const SmallSystemAtoms = 2881

// LargeSystemAtoms is the paper's multi-core-replica system size.
const LargeSystemAtoms = 64366

// FullReplicaCounts are the replica counts of Figures 5-9.
var FullReplicaCounts = []int{64, 216, 512, 1000, 1728}

// QuickReplicaCounts shrink the sweeps for tests.
var QuickReplicaCounts = []int{64, 216}

// counts selects the sweep for the given mode.
func counts(quick bool) []int {
	if quick {
		return QuickReplicaCounts
	}
	return FullReplicaCounts
}

// cyclesFor returns the cycle count: the paper averages over 4 cycles.
func cyclesFor(quick bool) int {
	if quick {
		return 2
	}
	return 4
}
