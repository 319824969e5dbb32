// Package experiments contains one harness per evaluation artefact of
// the paper (see DESIGN.md §3 for the index E1–E13). Each harness builds
// a fresh simulated system, runs the workload, and reports paper-claim
// versus measured rows. cmd/experiments prints them all; the root-level
// benchmarks wrap them for `go test -bench`.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Row is one claim-versus-measurement line.
type Row struct {
	Name     string
	Paper    string // what the paper claims/implies
	Measured string
}

// Result is one experiment's output. Err is the first error one of the
// harness's own operations reported; a result with one has failed, and
// its rows measured a system that did not do what the harness asked.
type Result struct {
	ID    string
	Title string
	Notes string
	Rows  []Row
	Err   error
}

// done is the completion for harness operations that report only an
// error: it records the first one.
func (r *Result) done(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

// Add appends a row.
func (r *Result) Add(name, paper, measured string) {
	r.Rows = append(r.Rows, Row{Name: name, Paper: paper, Measured: measured})
}

// Addf appends a row with a formatted measurement.
func (r *Result) Addf(name, paper, format string, args ...any) {
	r.Add(name, paper, fmt.Sprintf(format, args...))
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.ID, r.Title)
	nameW, paperW := len("metric"), len("paper")
	for _, row := range r.Rows {
		if len(row.Name) > nameW {
			nameW = len(row.Name)
		}
		if len(row.Paper) > paperW {
			paperW = len(row.Paper)
		}
	}
	fmt.Fprintf(w, "  %-*s | %-*s | %s\n", nameW, "metric", paperW, "paper", "measured")
	fmt.Fprintf(w, "  %s-+-%s-+-%s\n", strings.Repeat("-", nameW),
		strings.Repeat("-", paperW), strings.Repeat("-", 24))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-*s | %-*s | %s\n", nameW, row.Name, paperW, row.Paper, row.Measured)
	}
	if r.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", r.Notes)
	}
	if r.Err != nil {
		fmt.Fprintf(w, "  FAILED: %v\n", r.Err)
	}
	fmt.Fprintln(w)
}

// All runs every experiment in index order.
func All() []Result {
	return []Result{
		E1TileLatency(),
		E2DisplayMux(),
		E3ZeroCopy(),
		E4Scheduling(),
		E5Events(),
		E6AddressSpace(),
		E7Invocation(),
		E8Naming(),
		E9SegmentIO(),
		E10Cleaner(),
		E11WriteBuffering(),
		E12FaultTolerance(),
		E13SyncAndIndex(),
		E14Relocation(),
		E15CachePolicy(),
		E16PowerFailure(),
		E17TertiaryStorage(),
		E18Admission(),
	}
}
