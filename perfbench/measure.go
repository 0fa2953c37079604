package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/world"
)

// clock is the benchmark's only wall-time source.
var clock simclock.Real

func now() time.Time { return clock.Now() }

func since(t time.Time) time.Duration { return clock.Now().Sub(t) }

// minReps is the fewest repetitions a workload measures, however long one
// repetition takes: medians need at least three values. scan_full's
// repetitions are long enough that a burst of load from elsewhere on the
// host moves one of them noticeably, so it takes the median of five.
const (
	minReps     = 3
	minScanReps = 5
)

// repeat runs body until the run has measured for seconds and at least
// reps repetitions, and stops at the first error.
func repeat(seconds float64, reps int, body func(rep int) error) error {
	start := now()
	for rep := 0; rep < reps || since(start).Seconds() < seconds; rep++ {
		if err := body(rep); err != nil {
			return err
		}
	}
	return nil
}

// newStudy builds a fault-free study (Flakiness 0: flaky results still
// depend on scheduling) and returns how long the build took.
func newStudy(seed int64, scale float64) (*core.Study, time.Duration, error) {
	t := now()
	s, err := core.NewStudy(world.Config{Seed: seed, Scale: scale})
	return s, since(t), err
}

// quartiles returns the first quartile, median and third quartile of vals
// by the method of Python's statistics.quantiles(vals, n=4) (exclusive),
// which is what the spread of repeated runs is judged by.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return quantileExclusive(s, 1), median(s), quantileExclusive(s, 3)
}

// quantileExclusive is the j-th of the n=4 cut points of sorted s.
func quantileExclusive(s []float64, i int) float64 {
	const n = 4
	m := len(s) + 1
	j := min(max(i*m/n, 1), len(s)-1)
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

// median of vals (any order).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a snapshot of the Go runtime counters a phase is charged
// with: allocations, GC cycles and pauses, and GC's share of CPU time.
type rtSample struct {
	mallocs  uint64
	numGC    uint32
	pauseNs  uint64
	gcCPU    float64
	totalCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtSample {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	metrics.Read(cpuMetrics)
	s := rtSample{mallocs: mem.Mallocs, numGC: mem.NumGC, pauseNs: mem.PauseTotalNs}
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
	}
	if cpuMetrics[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = cpuMetrics[1].Value.Float64()
	}
	return s
}

// rtDelta is the runtime cost of one phase.
type rtDelta struct {
	mallocs  uint64
	gcCycles uint32
	pause    time.Duration
	gcShare  float64
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		mallocs:  b.mallocs - a.mallocs,
		gcCycles: b.numGC - a.numGC,
		pause:    time.Duration(b.pauseNs - a.pauseNs),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// addGC reports a phase's runtime cost under the gc.* per-layer names.
func (o *outcome) addGC(d rtDelta) {
	o.metrics["gc.cycles"] = metric{float64(d.gcCycles), "count"}
	o.metrics["gc.pause_ms"] = metric{ms(d.pause), "ms"}
	o.metrics["gc.cpu_share"] = metric{d.gcShare, "share"}
}

// releaseMemory collects the previous repetition's garbage so the next
// one starts from the same heap, and returns freed pages to the OS.
func releaseMemory() { debug.FreeOSMemory() }

// provenanceInfo records the host and build a run measured.
type provenanceInfo struct {
	CPU          string             `json:"cpu"`
	NumCPU       int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	GoVersion    string             `json:"go_version"`
	Commit       string             `json:"commit"`
	SourceDigest string             `json:"source_sha256"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Traced       bool               `json:"traced"`
	Scales       map[string]float64 `json:"scales"`
}

func provenance(cfg runConfig) (provenanceInfo, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return provenanceInfo{}, err
	}
	return provenanceInfo{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		SourceDigest: digest,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Traced:       cfg.trace,
		Scales: map[string]float64{
			"scan_full": scanFullScale, "survey": surveyScale,
			"serve_churn": serveScale, "observe": observeScale,
		},
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD when the benchmark runs inside a git checkout;
// exported trees have none, and sourceDigest identifies them instead.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return ref
}

// sourceDigest hashes the path and contents of every Go source and
// go.mod file under root, skipping hidden directories, so runs of the
// same code are identifiable without git.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", errors.New("hashing the source tree: " + err.Error())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
