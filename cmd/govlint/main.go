// Command govlint enforces the repository's determinism, taxonomy, and
// concurrency invariants: no wall-clock reads outside sanctioned packages
// (walltime), no process-global or constant-seeded RNGs (globalrand), no
// unordered map iteration in deterministic packages (maprange), no enum
// switch that silently drops a taxonomy class (exhaustive), no
// unsynchronised writes across goroutine spawns (goroutineowner),
// zero-allocation idioms on the declared hot paths (hotalloc), and no
// goroutines parked forever on unbuffered channels (chanleak). See
// internal/lint for the framework and DESIGN.md "Static analysis &
// enforced invariants" for the rationale.
//
// Usage:
//
//	govlint [-json] [-j N] [packages]
//
// Packages are directory patterns relative to the working directory
// ("./...", "./internal/scanner"); the default is "./...". govlint must
// run from inside the module so imports resolve. -j bounds the package
// loader's worker pool (0 = auto). -json emits one finding per line as a
// JSON object — including suppressed findings, marked as such — for
// machine consumption; the human format drops suppressed findings. Exit
// status is 0 when the tree is clean, 1 when findings were reported, 2 on
// load errors. Wall time is reported on stderr either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/lint"
)

// jsonFinding is the one-object-per-line wire form of a finding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding (including suppressed findings)")
	workers := flag.Int("j", 0, "package loader workers (0 = auto)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: govlint [-json] [-j N] [packages]\n\nChecks:\n")
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nSuppress a finding with `//lint:allow <check> <reason>` on or above the line.\n")
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	//lint:allow walltime measures the linter's own wall time for the CI log; no simulation state involved
	start := time.Now()
	all, err := lint.RunAll(".", patterns, lint.DefaultAnalyzers(), *workers)
	//lint:allow walltime measures the linter's own wall time for the CI log; no simulation state involved
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "govlint:", err)
		os.Exit(2)
	}

	var active int
	enc := json.NewEncoder(os.Stdout)
	for _, f := range all {
		if !f.Suppressed {
			active++
		}
		if *jsonOut {
			enc.Encode(jsonFinding{
				File:       f.Pos.Filename,
				Line:       f.Pos.Line,
				Col:        f.Pos.Column,
				Check:      f.Check,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
		} else if !f.Suppressed {
			fmt.Println(f)
		}
	}
	fmt.Fprintf(os.Stderr, "govlint: %d finding(s), %d suppressed, %s wall\n",
		active, len(all)-active, elapsed.Round(time.Millisecond))
	if active > 0 {
		os.Exit(1)
	}
}
