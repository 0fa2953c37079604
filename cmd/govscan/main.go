// Command govscan runs the paper's scanning pipeline against the synthetic
// world and prints the Table 2 breakdown for the selected dataset.
//
// Usage:
//
//	govscan [-seed 42] [-scale 1.0] [-dataset worldwide|usa:all|rok] [-store apple]
//	        [-flaky 0.05] [-journal scan.jsonl [-resume]] [-breaker 5]
//
// -dataset takes any name in the study's dataset registry: "worldwide",
// "usa:<key>" for one GSA dataset, "usa:all" (alias "usa") for their
// union, or "rok". An unknown name lists the registry.
//
// With -journal, every completed host is checkpointed to a JSON-lines
// journal; re-running with -resume picks up from the last completed host
// instead of restarting the scan from zero. -flaky injects transient
// faults (flaky dials, latency) into the world; -breaker enables the
// per-provider circuit breaker.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "population scale")
	dataset := flag.String("dataset", "worldwide", "registry dataset: worldwide, usa:<key>, usa:all (alias usa), rok")
	store := flag.String("store", "apple", "trust store: apple, microsoft, nss")
	jsonOut := flag.Bool("json", false, "emit zgrab-style JSON lines instead of Table 2")
	flaky := flag.Float64("flaky", 0, "fraction of https sites given transient faults")
	journal := flag.String("journal", "", "JSON-lines checkpoint journal path")
	resume := flag.Bool("resume", false, "resume from an existing -journal instead of starting fresh")
	breaker := flag.Int("breaker", 0, "open a provider circuit after N consecutive dial timeouts (0 = off)")
	cooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long an open circuit stays open")
	flag.Parse()

	study, err := core.NewStudy(world.Config{Seed: *seed, Scale: *scale, Flakiness: *flaky})
	if err != nil {
		fatal(err)
	}
	if err := study.UseStore(*store); err != nil {
		fatal(err)
	}
	if *resume && *journal == "" {
		fatal(fmt.Errorf("-resume requires -journal"))
	}
	if *journal != "" {
		if err := study.SetCheckpoint(*journal, *resume); err != nil {
			fatal(err)
		}
		defer study.CloseCheckpoint()
	}
	var brk *scanner.Breaker
	if *breaker > 0 {
		brk = scanner.NewBreaker(*breaker, *cooldown, study.World.Clock)
		study.SetBreaker(brk)
	}

	ctx := context.Background()
	name := *dataset
	if name == "usa" {
		name = "usa:all"
	}
	start := time.Now() //lint:allow walltime operator telemetry: reports how long the real run took, never feeds results
	set, err := study.Dataset(ctx, name)
	if err != nil {
		fatal(fmt.Errorf("unknown dataset %q (registry: %v)", *dataset, study.DatasetNames()))
	}
	took := time.Since(start) //lint:allow walltime operator telemetry: reports how long the real run took, never feeds results

	if brk != nil && brk.Trips() > 0 {
		fmt.Fprintf(os.Stderr, "circuit breaker: %d trips, %d dials suppressed\n", brk.Trips(), brk.Skips())
	}
	if *jsonOut {
		if err := set.WriteJSONL(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, report.Scan(set, took))
		return
	}
	fmt.Print(report.Scan(set, took))
	fmt.Println()
	fmt.Print(report.Table2(analysis.ComputeTable2(set)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "govscan:", err)
	os.Exit(1)
}
