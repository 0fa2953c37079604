package longitudinal_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/longitudinal"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

func scanAll(w *world.World, at interface{ IsZero() bool }) *resultset.Set {
	s := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	return resultset.New(s.ScanAll(context.Background(), w.GovHosts), resultset.Options{})
}

func TestCaptureStates(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 31, Scale: 0.01})
	snap := longitudinal.Capture(w.ScanTime, scanAll(w, nil))
	counts := map[longitudinal.State]int{}
	for _, st := range snap.States {
		counts[st]++
	}
	if counts[longitudinal.ValidHTTPS] == 0 || counts[longitudinal.HTTPOnly] == 0 || counts[longitudinal.BrokenHTTPS] == 0 {
		t.Fatalf("state distribution degenerate: %v", counts)
	}
}

func TestDiffAfterRemediation(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 32, Scale: 0.01})
	before := longitudinal.Capture(w.ScanTime, scanAll(w, nil))

	// Apply the §7.2.2 churn and re-scan.
	var invalid []string
	for host, st := range before.States {
		if st == longitudinal.BrokenHTTPS {
			invalid = append(invalid, host)
		}
	}
	w.Remediate(invalid, world.DefaultRemediationRates(), rand.New(rand.NewSource(1)))
	after := longitudinal.Capture(world.FollowUpScanTime, scanAll(w, nil))

	c := longitudinal.Diff(before, after)
	if len(c.Improved) == 0 {
		t.Fatal("no improvements after remediation")
	}
	if c.Steady == 0 {
		t.Fatal("no steady hosts")
	}
	for _, tr := range c.Improved {
		if !tr.Improved() {
			t.Fatalf("transition %+v in Improved but not improved", tr)
		}
	}
	if !strings.Contains(c.Summary(), "improved") {
		t.Error("summary malformed")
	}
}

func TestDiffAppearDisappear(t *testing.T) {
	before := longitudinal.Snapshot{States: map[string]longitudinal.State{
		"a.gov": longitudinal.ValidHTTPS,
		"b.gov": longitudinal.HTTPOnly,
	}}
	after := longitudinal.Snapshot{States: map[string]longitudinal.State{
		"a.gov": longitudinal.BrokenHTTPS, // regressed
		"c.gov": longitudinal.ValidHTTPS,  // appeared
	}}
	c := longitudinal.Diff(before, after)
	if len(c.Regressed) != 1 || c.Regressed[0].Hostname != "a.gov" {
		t.Errorf("regressed = %v", c.Regressed)
	}
	if len(c.Appeared) != 1 || c.Appeared[0] != "c.gov" {
		t.Errorf("appeared = %v", c.Appeared)
	}
	if len(c.Disappeared) != 1 || c.Disappeared[0] != "b.gov" {
		t.Errorf("disappeared = %v", c.Disappeared)
	}
}

func TestGapReport(t *testing.T) {
	snap := longitudinal.Snapshot{States: map[string]longitudinal.State{
		"good.gov":   longitudinal.ValidHTTPS,
		"broken.gov": longitudinal.BrokenHTTPS,
		"plain.gov":  longitudinal.HTTPOnly,
	}}
	gaps := longitudinal.GapReport(snap, longitudinal.ValidHTTPS)
	if len(gaps) != 2 || gaps[0] != "broken.gov" || gaps[1] != "plain.gov" {
		t.Errorf("gaps = %v", gaps)
	}
}

func TestStateOrdering(t *testing.T) {
	if !(longitudinal.Gone < longitudinal.HTTPOnly &&
		longitudinal.HTTPOnly < longitudinal.BrokenHTTPS &&
		longitudinal.BrokenHTTPS < longitudinal.ValidHTTPS) {
		t.Fatal("state ordering broken; Diff's improved/regressed logic depends on it")
	}
	if longitudinal.ValidHTTPS.String() != "valid-https" {
		t.Error("state naming wrong")
	}
}

// TestTallyMatchesCapture: Tally must count exactly what PointOf(Capture)
// counts, on a fresh set and on every generation of a delta chain, where
// patched rows live in the overlay rather than the base slice.
func TestTallyMatchesCapture(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 33, Scale: 0.01})
	s := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	set := resultset.New(s.ScanAll(context.Background(), w.GovHosts), resultset.Options{})
	check := func(gen int, set *resultset.Set) {
		t.Helper()
		want := longitudinal.PointOf(longitudinal.Capture(w.ScanTime, set))
		if got := longitudinal.Tally(w.ScanTime, set); got != want {
			t.Fatalf("generation %d: Tally = %+v, PointOf(Capture) = %+v", gen, got, want)
		}
	}
	check(0, set)

	r := rand.New(rand.NewSource(7))
	for gen := 1; gen <= 3; gen++ {
		// Heal a slice of the broken hosts, re-scan them, and patch.
		var broken []string
		for i := 0; i < set.Len(); i++ {
			if res := set.At(i); res.HasHTTPS() && !res.ValidHTTPS() {
				broken = append(broken, res.Hostname)
			}
		}
		if len(broken) == 0 {
			t.Fatalf("generation %d: no broken hosts left to heal", gen)
		}
		broken = broken[:(len(broken)+1)/2]
		w.Remediate(broken, world.DefaultRemediationRates(), r)
		next, err := set.ApplyDelta(s.ScanAll(context.Background(), broken))
		if err != nil {
			t.Fatal(err)
		}
		if next == set {
			t.Fatalf("generation %d: delta changed nothing", gen)
		}
		set = next
		check(gen, set)
	}
}
