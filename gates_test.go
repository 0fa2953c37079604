package repro_test

// The gates below are the thresholds the scan, serve and delta paths must
// keep. Each runs the seed-42 world at a fixed scale, never benchScale(),
// so GOVHTTPS_BENCH_SCALE cannot move a gate. They skip under -race: the
// race detector makes sync.Pool drop items at random and distorts both
// time and memory. Run them with
//
//	go test -run '^TestGate' .

import (
	"context"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/serve/loadgen"
	"repro/internal/world"
)

// gateScale is the world of the allocation gates: 6,753 worldwide hosts.
const gateScale = 0.05

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation and timing gates are not meaningful under -race")
	}
}

// TestGateJSONExportAllocs keeps the zero-copy JSON-lines exporter from
// sliding back toward reflection-based encoding: 18,658 allocs/op is what
// the encoding/json exporter it replaced cost on this corpus.
func TestGateJSONExportAllocs(t *testing.T) {
	skipUnderRace(t)
	const budget = 18658
	rows := studyAt(t, gateScale).Worldwide(context.Background()).Results()
	var err error
	allocs := testing.AllocsPerRun(5, func() { err = scanner.WriteJSONL(io.Discard, rows) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WriteJSONL of %d rows: %.0f allocs/op (budget %d)", len(rows), allocs, budget)
	if allocs > budget {
		t.Errorf("WriteJSONL allocates %.0f per export of %d rows, budget %d", allocs, len(rows), budget)
	}
}

// TestGateCachedServeAllocs keeps steady-state cache hits off the
// aggregation path: once warmed, the cached server must answer every
// request of the query mix from its cache, in at most 10 allocations per
// request, measured end to end through the load generator with one
// client. The hit count is checked too because an uncached server
// allocates fewer, larger buffers and would pass on allocations alone.
func TestGateCachedServeAllocs(t *testing.T) {
	skipUnderRace(t)
	const budget = 10.0
	fx := newServeFixture(studyAt(t, gateScale))
	warmServe(t, fx.cached, fx.queries)
	cfg := loadgen.Config{
		Handler: fx.cached.Handler(), Clients: 1, Requests: serveBenchRequests,
		Seed: 42, Paths: fx.queries,
	}
	before := fx.cached.CacheStats()
	var requests, errs int
	perRun := testing.AllocsPerRun(20, func() {
		res := loadgen.Run(cfg)
		requests += res.Requests
		errs += res.Errors
	})
	if errs != 0 {
		t.Fatalf("load runs saw %d non-2xx responses", errs)
	}
	if hits := fx.cached.CacheStats().Hits - before.Hits; hits != int64(requests) {
		t.Errorf("%d of %d warmed requests were cache hits, want all", hits, requests)
	}
	perReq := perRun / serveBenchRequests
	t.Logf("cached serve: %.2f allocs/request (budget %.1f)", perReq, budget)
	if perReq > budget {
		t.Errorf("cached serve costs %.2f allocs per request, budget %.1f", perReq, budget)
	}
}

// TestGateApplyDeltaSpeedup holds the margin that makes dataset patches
// go through ApplyDelta at all: on the paper-scale corpus (135,309
// hosts), patching k=100 changed rows must be at least 5x faster than
// the full rebuild it replaced. Each side is timed as the fastest of
// three direct runs.
func TestGateApplyDeltaSpeedup(t *testing.T) {
	skipUnderRace(t)
	const minSpeedup = 5.0
	s := core.MustNewStudy(world.Config{Seed: 42, Scale: 1.0})
	base, changed := deltaFixture(t, s, 100)
	opts := resultset.Options{CountryOf: s.CountryOf}
	delta := fastestOf(3, func() {
		if _, err := base.ApplyDelta(changed); err != nil {
			t.Fatal(err)
		}
	})
	rebuild := fastestOf(3, func() { rebuildWithDelta(base, changed, opts) })
	speedup := float64(rebuild) / float64(delta)
	t.Logf("%d hosts, k=%d: ApplyDelta %v, rebuild %v, %.0fx (need %.0fx)",
		base.Len(), len(changed), delta, rebuild, speedup, minSpeedup)
	if speedup < minSpeedup {
		t.Errorf("ApplyDelta k=%d on %d hosts is only %.2fx the full rebuild, need %.0fx",
			len(changed), base.Len(), speedup, minSpeedup)
	}
}

// fastestOf returns the shortest wall time of runs calls of f.
func fastestOf(runs int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for range runs {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}
