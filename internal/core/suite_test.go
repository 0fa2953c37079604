package core

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/world"
)

// TestRunAllExperimentsMatchesGolden renders the full suite the way
// govreport -all does, one RunAllExperiments call framed by
// report.WriteArtifact, and requires the committed golden transcript.
func TestRunAllExperimentsMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../results/golden_experiments_seed74.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := MustNewStudy(world.TestConfig())
	results, err := RunAllExperiments(context.Background(), s, SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		if err := report.WriteArtifact(&b, r.ID, r.Title, r.Output); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.String(); got != string(golden) {
		diffAt := 0
		for diffAt < len(got) && diffAt < len(golden) && got[diffAt] == golden[diffAt] {
			diffAt++
		}
		t.Fatalf("suite transcript diverges from golden at byte %d", diffAt)
	}
}

// TestSchedulerCancellation checks a cancelled context aborts the suite
// with an error before any experiment runs.
func TestSchedulerCancellation(t *testing.T) {
	s := MustNewStudy(world.TestConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunAllExperiments(ctx, s, SuiteOptions{})
	if err == nil {
		t.Fatal("cancelled suite returned no error")
	}
	if len(results) != 0 {
		t.Fatalf("cancelled suite rendered %d artifacts", len(results))
	}
}

// TestLookupExperiment covers the lazily-built case-insensitive ID index.
func TestLookupExperiment(t *testing.T) {
	for _, id := range []string{"T2", "t2", "fa6", "S722", "e4"} {
		e, ok := LookupExperiment(id)
		if !ok {
			t.Fatalf("LookupExperiment(%q) missed", id)
		}
		if !strings.EqualFold(e.ID, id) {
			t.Fatalf("LookupExperiment(%q) = %s", id, e.ID)
		}
	}
	if _, ok := LookupExperiment("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}
