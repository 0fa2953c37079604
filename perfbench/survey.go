package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// surveyScale keeps every dataset below the shard threshold (6,753
// worldwide hosts) so the suite is many small builds plus analysis.
const surveyScale = 0.05

// runSurvey measures the 36-artifact report, govreport -all: a fresh
// study, then core.RunAllExperiments at GOMAXPROCS.
func runSurvey(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceSurvey(cfg)
	}
	ctx := context.Background()
	o := newOutcome()
	exps := len(core.Experiments())
	err := repeat(cfg.seconds, minReps, func(int) error {
		releaseMemory()
		s, setup, err := newStudy(cfg.seed, surveyScale)
		if err != nil {
			return err
		}
		r0 := readRuntime()
		t := now()
		results, err := core.RunAllExperiments(ctx, s, core.SuiteOptions{})
		wall := since(t)
		r1 := readRuntime()
		if err != nil {
			return err
		}
		if len(results) != exps {
			o.mismatch("suite rendered %d artifacts, registry lists %d", len(results), exps)
		}
		o.checkDigest("survey.artifacts", sha256Hex([]byte(transcript(results))), cfg.seed)
		o.attempted += len(results)
		o.raw["setup_s"] = append(o.raw["setup_s"], setup.Seconds())
		o.raw["survey.wall_s"] = append(o.raw["survey.wall_s"], wall.Seconds())
		o.raw["survey.allocs"] = append(o.raw["survey.allocs"], float64(r0.to(r1).mallocs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	wall := median(o.raw["survey.wall_s"])
	o.metrics["setup_s"] = metric{median(o.raw["setup_s"]), "s"}
	o.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	o.metrics["ops_per_s"] = metric{float64(exps) / wall, "1/s"}
	o.metrics["latency_ms"] = metric{1000 * wall, "ms"}
	o.named["survey.wall_s"] = metric{wall, "s"}
	return o, nil
}

// surveyExpMetrics are the experiments whose time is reported on its own;
// the rest are summed into report.exp_ms.other. E7 is reported with its
// renewal campaign.
var surveyExpMetrics = []string{"T2", "F5", "F6", "FA4", "E4", "S722", "E7"}

// traceSurvey is the traced pass of survey: one untraced parallel suite
// for the reference wall time and digest, then the sequential suite
// (sequentialSuite) twice, each on a fresh study: untraced, as the
// overhead reference, and traced. All three transcripts must be equal.
func traceSurvey(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()

	s, setup, err := newStudy(cfg.seed, surveyScale)
	if err != nil {
		return nil, err
	}
	o.metrics["world.build_s"] = metric{setup.Seconds(), "s"}
	r0 := readRuntime()
	t := now()
	results, err := core.RunAllExperiments(ctx, s, core.SuiteOptions{})
	wall := since(t)
	r1 := readRuntime()
	if err != nil {
		return nil, err
	}
	o.addGC(r0.to(r1))
	want := transcript(results)
	o.checkDigest("survey.artifacts", sha256Hex([]byte(want)), cfg.seed)

	pass := func(tr *surveyTrace) (time.Duration, error) {
		s = nil
		releaseMemory()
		s, _, err = newStudy(cfg.seed, surveyScale)
		if err != nil {
			return 0, err
		}
		t := now()
		got, err := sequentialSuite(ctx, s, tr)
		d := since(t)
		if err != nil {
			return 0, err
		}
		if got != want {
			o.mismatch("sequential RunExperiment transcript differs from the parallel suite's")
		}
		return d, nil
	}
	untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	tr := &surveyTrace{buf: newSpanBuf(now()), times: map[string]time.Duration{}}
	traced, err := pass(tr)
	if err != nil {
		return nil, err
	}
	o.attempted = len(core.Experiments())

	var seq, usaKeys time.Duration
	for key, d := range tr.times {
		seq += d
		if strings.HasPrefix(key, "dataset.usa:") && key != "dataset.usa:all" {
			usaKeys += d
		}
	}
	for _, name := range []string{"worldwide", "usa:all", "rok", "acmefleet"} {
		o.metrics["dataset.build_ms."+strings.ReplaceAll(name, ":", "_")] = metric{ms(tr.times["dataset."+name]), "ms"}
	}
	o.metrics["dataset.build_ms.usa_keys"] = metric{ms(usaKeys), "ms"}
	var other time.Duration
	for _, e := range core.Experiments() {
		other += tr.times["exp."+e.ID]
	}
	for _, id := range surveyExpMetrics {
		d := tr.times["exp."+id]
		if id == "E7" {
			d += tr.times["fleet"] + tr.times["dataset.acmefleet"]
		}
		o.metrics["report.exp_ms."+id] = metric{ms(d), "ms"}
		other -= tr.times["exp."+id]
	}
	o.metrics["report.exp_ms.other"] = metric{ms(other), "ms"}
	o.metrics["acmefleet.renewals"] = metric{float64(tr.renewals), "count"}
	if tr.renewals > 0 {
		o.metrics["acmefleet.allocs_per_renewal"] = metric{float64(tr.fleetAllocs) / float64(tr.renewals), "allocs"}
	}
	o.metrics["core.suite_seq_s"] = metric{seq.Seconds(), "s"}
	o.metrics["core.parallel_gain"] = metric{seq.Seconds() / wall.Seconds(), "ratio"}
	o.metrics["trace.overhead"] = metric{traced.Seconds() / untraced.Seconds(), "ratio"}
	o.named["survey.wall_s"] = metric{wall.Seconds(), "s"}
	o.named["trace.untraced_seq_s"] = metric{untraced.Seconds(), "s"}
	o.named["trace.traced_seq_s"] = metric{traced.Seconds(), "s"}
	path, count, err := writeSpans(traceDir, fmt.Sprintf("survey-seed%d.tsv", cfg.seed), []*spanBuf{tr.buf})
	if err != nil {
		return nil, err
	}
	fmt.Printf("# trace survey %d spans written to %s\n", count, path)
	return o, nil
}

// surveyTrace collects a traced sequential suite's per-call times, keyed
// "dataset.<name>", "fleet" and "exp.<ID>".
type surveyTrace struct {
	buf         *spanBuf
	times       map[string]time.Duration
	renewals    int
	fleetAllocs uint64
}

// sequentialSuite runs the suite one call at a time on s and returns its
// framed transcript: every dataset built by its own Registry.Get in
// registry order, then every experiment alone with core.RunExperiment in
// registry order, E7 preceded by its renewal campaign (FleetReport) and
// the post-campaign acmefleet dataset. With tr non-nil each call is timed
// and recorded as a span; with tr nil the same calls run untimed.
func sequentialSuite(ctx context.Context, s *core.Study, tr *surveyTrace) (string, error) {
	timed := func(span uint8, id int, key string, f func() error) error {
		if tr == nil {
			return f()
		}
		t := now()
		err := f()
		end := now()
		tr.buf.record(span, int64(id), t, end)
		tr.times[key] += end.Sub(t)
		return err
	}
	reg := s.Registry()
	for i, name := range reg.Names() {
		if name == "acmefleet" {
			// Built by E7 after the renewal campaign; Getting it here
			// would run the campaign before S722 and E4 mutate the world.
			continue
		}
		err := timed(spanDataset, i, "dataset."+name, func() error {
			_, err := reg.Get(ctx, name)
			return err
		})
		if err != nil {
			return "", err
		}
	}
	var b strings.Builder
	for i, e := range core.Experiments() {
		if e.ID == "E7" {
			var r0 rtSample
			if tr != nil {
				r0 = readRuntime()
			}
			err := timed(spanFleet, i, "fleet", func() error {
				rep, _, err := s.FleetReport(ctx)
				if err == nil && tr != nil {
					tr.renewals = rep.Final().Renewals
				}
				return err
			})
			if err != nil {
				return "", err
			}
			if tr != nil {
				tr.fleetAllocs = readRuntime().mallocs - r0.mallocs
			}
			err = timed(spanDataset, i, "dataset.acmefleet", func() error {
				_, err := reg.Get(ctx, "acmefleet")
				return err
			})
			if err != nil {
				return "", err
			}
		}
		var out string
		err := timed(spanExperiment, i, "exp."+e.ID, func() error {
			var err error
			out, err = core.RunExperiment(ctx, s, e.ID)
			return err
		})
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		_ = report.WriteArtifact(&b, e.ID, e.Title, out) // strings.Builder writes cannot fail
	}
	return b.String(), nil
}
