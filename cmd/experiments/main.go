// Command experiments runs every experiment in the paper-reproduction
// index (DESIGN.md §3, E1–E18) and prints paper-claim versus measured
// tables. Its output is the source of EXPERIMENTS.md.
//
// Usage:
//
//	experiments [id ...]
//
// With no arguments all experiments run in order; otherwise only the
// named ones (e.g. `experiments E4 E10`). It exits 1 if an experiment
// failed: one of its own operations reported an error.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	want := map[string]bool{}
	for _, a := range os.Args[1:] {
		want[strings.ToUpper(a)] = true
	}
	fmt.Println("Pegasus reproduction — experiment suite")
	fmt.Println("=======================================")
	fmt.Println()
	ran, failed := 0, false
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		r.Print(os.Stdout)
		ran++
		failed = failed || r.Err != nil
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched; known ids are E1..E18")
		os.Exit(1)
	}
	if failed {
		os.Exit(1) // each failed result printed its own FAILED line
	}
}
