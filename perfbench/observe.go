package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/observatory"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/world"
)

// observeScale, observeDays, observeChurn and observeWorkers are
// govwatch -observe -scale 0.2 -days 120 -churn 100 -workers 16.
const (
	observeScale   = 0.2
	observeDays    = 120
	observeChurn   = 100
	observeWorkers = 16
)

// observeState is govwatch -observe's preparation: the world, a baseline
// scan of the government corpus, its result set and the observatory.
type observeState struct {
	w   *world.World
	obs *observatory.Observatory
	// worldBuild is world.Build's share of setup, the whole preparation.
	worldBuild, setup time.Duration
}

func observeSetup(seed int64) (*observeState, error) {
	t := now()
	w, err := world.Build(world.Config{Seed: seed, Scale: observeScale})
	if err != nil {
		return nil, err
	}
	worldBuild := since(t)
	sc := scanner.New(w.Net, w.DNS, w.Class, scanner.DefaultConfig(w.Stores["apple"], w.ScanTime))
	raw := sc.ScanAll(context.Background(), w.GovHosts)
	base := resultset.New(raw, worldwideOptions(w))
	obs := observatory.New(w, base, observatory.Config{
		Seed:         seed,
		Horizon:      observeDays * 24 * time.Hour,
		Workers:      observeWorkers,
		ChurnPerTick: observeChurn,
	})
	return &observeState{w: w, obs: obs, worldBuild: worldBuild, setup: since(t)}, nil
}

// runObserve measures the continuous observatory: CT and change-event
// tails, the priority re-scan queue, many small re-scans and a long
// ApplyDelta chain over 120 virtual days.
func runObserve(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceObserve(cfg)
	}
	ctx := context.Background()
	o := newOutcome()
	err := repeat(cfg.seconds, minReps, func(int) error {
		releaseMemory()
		st, err := observeSetup(cfg.seed)
		if err != nil {
			return err
		}
		t := now()
		rep, err := st.obs.Run(ctx)
		wall := since(t)
		if err != nil {
			return err
		}
		rescans := rep.TotalScanned()
		if rescans == 0 {
			o.mismatch("observatory re-scanned nothing")
		}
		o.checkDigest("observe.report", sha256Hex(rep.Bytes()), cfg.seed)
		o.attempted += rescans
		o.raw["setup_s"] = append(o.raw["setup_s"], st.setup.Seconds())
		o.raw["observe.run_s"] = append(o.raw["observe.run_s"], wall.Seconds())
		o.raw["observe.rescans_per_s"] = append(o.raw["observe.rescans_per_s"], float64(rescans)/wall.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	rate := median(o.raw["observe.rescans_per_s"])
	o.metrics["setup_s"] = metric{median(o.raw["setup_s"]), "s"}
	o.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	o.metrics["ops_per_s"] = metric{rate, "1/s"}
	o.metrics["latency_ms"] = metric{1000 * median(o.raw["observe.run_s"]), "ms"}
	o.named["observe.rescans_per_s"] = metric{rate, "rescans/s"}
	return o, nil
}

// traceObserve is the traced pass of observe. The observatory builds its
// own scanner from the world, so no wrapper can reach its dnssim and
// simnet calls: the pass reads its layers from counters around one
// Observatory.Run — the network's dial count, the CT log's size and the
// runtime's counters — and records one span for the run. It adds no
// timing inside the run, so it reports no tracing overhead.
func traceObserve(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	st, err := observeSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	o.metrics["world.build_s"] = metric{st.worldBuild.Seconds(), "s"}
	w := st.w
	buf := newSpanBuf(now())
	dials0, ct0 := w.Net.DialCount(), w.CT.Size()
	r0 := readRuntime()
	t := now()
	rep, err := st.obs.Run(ctx)
	end := now()
	r1 := readRuntime()
	if err != nil {
		return nil, err
	}
	buf.record(spanObserve, 0, t, end)
	o.addGC(r0.to(r1))
	o.checkDigest("observe.report", sha256Hex(rep.Bytes()), cfg.seed)
	rescans := rep.TotalScanned()
	if rescans == 0 {
		o.mismatch("observatory re-scanned nothing")
	}
	o.attempted = rescans
	o.metrics["observatory.rescans"] = metric{float64(rescans), "count"}
	o.metrics["observatory.deferred"] = metric{float64(rep.Final().Deferred), "count"}
	o.metrics["observatory.alerts"] = metric{float64(len(rep.Alerts)), "count"}
	if rescans > 0 {
		o.metrics["observatory.allocs_per_rescan"] = metric{float64(r0.to(r1).mallocs) / float64(rescans), "allocs"}
	}
	o.metrics["ctlog.entries_tailed"] = metric{float64(w.CT.Size() - ct0), "count"}
	o.metrics["simnet.dials"] = metric{float64(w.Net.DialCount() - dials0), "count"}
	path, count, err := writeSpans(traceDir, fmt.Sprintf("observe-seed%d.tsv", cfg.seed), []*spanBuf{buf})
	if err != nil {
		return nil, err
	}
	fmt.Printf("# trace observe %d spans written to %s\n", count, path)
	return o, nil
}
