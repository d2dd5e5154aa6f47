// Package exp regenerates every table and figure of the paper's evaluation
// (the per-experiment index lives in DESIGN.md §4). Each experiment is a
// function from a seed to a Report: a titled set of rendered rows plus
// machine-readable series, so `caliqec repro` can print them and the test
// suite can assert the paper's qualitative shapes.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string // e.g. "fig10", "table2"
	Title string
	// Header and Rows render as an aligned text table.
	Header []string
	Rows   [][]string
	// Notes carries caveats and the paper-vs-measured comparison.
	Notes []string
	// Values exposes headline scalars for tests and EXPERIMENTS.md.
	Values map[string]float64
}

// SetValue records a headline scalar.
func (r *Report) SetValue(k string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[k] = v
}

// AddRow appends one formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a formatted note.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render returns the report as aligned text.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	width := make([]int, len(r.Header))
	rows := append([][]string{r.Header}, r.Rows...)
	for _, row := range rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		for i, c := range row {
			pad := 0
			if i < len(width) {
				pad = width[i]
			}
			fmt.Fprintf(&sb, "%-*s", pad+2, c)
		}
		sb.WriteByte('\n')
		if ri == 0 && len(r.Header) > 0 {
			total := 0
			for _, w := range width {
				total += w + 2
			}
			sb.WriteString(strings.Repeat("-", total))
			sb.WriteByte('\n')
		}
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("key results:\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %-32s %.6g\n", k, r.Values[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Runner regenerates one experiment from a seed. The context cancels long
// Monte-Carlo sweeps mid-shot-batch (see internal/mc) and can carry a live
// progress reporter (WithProgress).
type Runner func(ctx context.Context, seed uint64) (*Report, error)

// Experiment is one entry of the registry: the ID that names the artifact
// (Report.ID, the results/ file stem) and its runner.
type Experiment struct {
	ID  string
	Run Runner
}

// All returns the experiment registry in presentation order: the paper's
// figures and tables, then this reproduction's ablations and extensions.
func All() []Experiment {
	return []Experiment{
		{"fig1", Fig1Drift},
		{"fig7", Fig7Grouping},
		{"fig9", Fig9DriftDistribution},
		{"fig10", Fig10LERTrajectory},
		{"fig11", Fig11GroupingReduction},
		{"fig12", Fig12SpaceTime},
		{"fig13", Fig13RealDevice},
		{"table1", Table1Instructions},
		{"table2", Table2},
		{"fit", FitLERModel},
		{"cycle", CycleLER},

		// Ablations of this reproduction's design choices, and extensions.
		{"ablate-decoder", AblateDecoder},
		{"ablate-deltad", AblateDeltaD},
		{"ablate-priors", AblatePriors},
		{"ablate-schedule", AblateSchedule},
		{"ablate-window", AblateWindow},
		{"routing", RoutingParallelism},
		{"localize", LocalizeDrift},
		{"decode-cost", DecodeCost},
		{"drift-inject", DriftInject},
	}
}
