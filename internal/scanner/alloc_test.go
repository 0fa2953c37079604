package scanner

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/world"
)

// Allocation ceilings of a sequential scan pass, in mallocs per host,
// counted over every goroutine (the simulated servers allocate on the
// scanner's behalf). The cold pass renders every page and parses every
// chain for the first time; the warm pass repeats the scan. When the
// ceilings were set the passes measured 42.4 and 27.9; a map-based
// header, per-handshake bufio readers, multi-allocation pipes or
// per-site serialized responses each push a pass past its ceiling.
const (
	maxColdMallocsPerHost = 44
	maxWarmMallocsPerHost = 29
)

// TestScanMallocsPerHost gates the scan path's allocation bill. It scans
// a fixed small world host by host on one goroutine with the collector
// off, so sync.Pool contents survive and the count is deterministic.
func TestScanMallocsPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	w := world.MustBuild(world.Config{Seed: 7, Scale: 0.01})
	cfg := DefaultConfig(w.Stores["apple"], w.ScanTime)
	cfg.Concurrency = 1
	s := New(w.Net, w.DNS, w.Class, cfg)
	ctx := context.Background()
	hosts := w.GovHosts

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, h := range hosts {
			s.Scan(ctx, h)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cold := float64(pass()) / float64(len(hosts))
	warm := float64(pass()) / float64(len(hosts))
	t.Logf("%d hosts, %.2f mallocs/host cold, %.2f warm", len(hosts), cold, warm)
	if cold > maxColdMallocsPerHost {
		t.Errorf("cold scan allocates %.2f mallocs/host, ceiling %d", cold, maxColdMallocsPerHost)
	}
	if warm > maxWarmMallocsPerHost {
		t.Errorf("warm scan allocates %.2f mallocs/host, ceiling %d", warm, maxWarmMallocsPerHost)
	}
}
