package dataset_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/resultset"
	"repro/internal/scanner"
)

// mutableWorld is a fake scan target whose per-host answers can change
// between scans, recording exactly which hosts each scan touched.
type mutableWorld struct {
	mu      sync.Mutex
	hsts    map[string]bool
	scanned [][]string
	// gate, when non-nil, blocks the next scan until closed — the hook
	// for racing MarkDirty against an in-flight build.
	gate chan struct{}
	// entered signals each scan's start.
	entered chan string
}

func (m *mutableWorld) scan(_ context.Context, hosts []string) []scanner.Result {
	m.mu.Lock()
	m.scanned = append(m.scanned, append([]string(nil), hosts...))
	gate := m.gate
	m.gate = nil
	entered := m.entered
	m.mu.Unlock()
	if entered != nil {
		entered <- "scan"
	}
	if gate != nil {
		<-gate
	}
	rs := make([]scanner.Result, len(hosts))
	m.mu.Lock()
	for i, h := range hosts {
		rs[i] = scanner.Result{Hostname: h, Available: true, ServesHTTP: true, HSTS: m.hsts[h]}
	}
	m.mu.Unlock()
	return rs
}

func (m *mutableWorld) setHSTS(host string, v bool) {
	m.mu.Lock()
	m.hsts[host] = v
	m.mu.Unlock()
}

func (m *mutableWorld) scans() [][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]string, len(m.scanned))
	copy(out, m.scanned)
	return out
}

var mdHosts = []string{"a.gov", "b.gov", "c.gov", "d.gov", "e.gov"}

func newMutableRegistry(m *mutableWorld) *dataset.Registry {
	r := dataset.NewRegistry(m.scan)
	r.Register(dataset.Source{
		Name:  "d",
		Hosts: func() []string { return append([]string(nil), mdHosts...) },
		Opts:  func() resultset.Options { return resultset.Options{} },
	})
	return r
}

// TestMarkDirtyPatchesIncrementally pins the ApplyDelta reroute: a dirty
// Get re-scans only the dirty hosts (in corpus order) and splices them
// into the cached base, leaving the earlier generation untouched.
func TestMarkDirtyPatchesIncrementally(t *testing.T) {
	m := &mutableWorld{hsts: map[string]bool{}}
	r := newMutableRegistry(m)
	ctx := context.Background()

	base, err := r.Get(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}

	// The world changes under two hosts; only they are marked dirty.
	m.setHSTS("b.gov", true)
	m.setHSTS("d.gov", true)
	if !r.MarkDirty("d", []string{"b.gov", "d.gov"}) {
		t.Fatal("MarkDirty rejected known dataset")
	}
	if r.Cached("d") {
		t.Fatal("dirty dataset still reports cached")
	}

	got, err := r.Get(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	scans := m.scans()
	if len(scans) != 2 {
		t.Fatalf("%d scans, want baseline + patch", len(scans))
	}
	if want := []string{"b.gov", "d.gov"}; len(scans[1]) != 2 || scans[1][0] != want[0] || scans[1][1] != want[1] {
		t.Fatalf("patch scanned %v, want only the dirty hosts %v", scans[1], want)
	}

	// The patched generation carries the new rows; the base generation
	// still answers from its snapshot (ApplyDelta never mutates).
	if rb, _ := got.Lookup("b.gov"); rb == nil || !rb.HSTS {
		t.Fatal("patched set missing the updated b.gov row")
	}
	if ra, _ := got.Lookup("a.gov"); ra == nil || ra.HSTS {
		t.Fatal("clean host a.gov changed in the patched set")
	}
	if rb, _ := base.Lookup("b.gov"); rb == nil || rb.HSTS {
		t.Fatal("base generation mutated by the patch")
	}
	if got.Len() != len(mdHosts) || got.Counts().Total != len(mdHosts) {
		t.Fatalf("patched set shape: len=%d total=%d", got.Len(), got.Counts().Total)
	}
	if !r.Cached("d") {
		t.Fatal("patched set not cached")
	}
	if again, _ := r.Get(ctx, "d"); again != got {
		t.Fatal("third Get rebuilt instead of memoizing the patched set")
	}
}

// TestMarkDirtyRacingGetDoomsBuildOnce pins the in-flight contract: a
// MarkDirty landing while a build is running dooms that build exactly
// once (the build may or may not have observed the mutation), the
// winning Get rescans fresh, and a later MarkDirty patches as usual.
func TestMarkDirtyRacingGetDoomsBuildOnce(t *testing.T) {
	m := &mutableWorld{hsts: map[string]bool{}, entered: make(chan string, 4)}
	r := newMutableRegistry(m)
	ctx := context.Background()

	gate := make(chan struct{})
	m.mu.Lock()
	m.gate = gate
	m.mu.Unlock()

	done := make(chan *resultset.Set, 1)
	go func() {
		set, err := r.Get(ctx, "d")
		if err != nil {
			t.Error(err)
		}
		done <- set
	}()
	<-m.entered // the build is inside the scan, holding no registry lock

	// The mutation races the build: MarkDirty must doom it.
	m.setHSTS("c.gov", true)
	if !r.MarkDirty("d", []string{"c.gov"}) {
		t.Fatal("MarkDirty rejected known dataset")
	}
	if got := r.Invalidations("d"); got != 1 {
		t.Fatalf("invalidations = %d, want exactly 1 (the doomed build)", got)
	}
	close(gate)

	set := <-done
	<-m.entered // the retry scan
	if set == nil {
		t.Fatal("racing Get returned nil set")
	}
	// The winning Get rescanned under the new generation, so it observed
	// the mutation despite racing it.
	if rc, _ := set.Lookup("c.gov"); rc == nil || !rc.HSTS {
		t.Fatal("retried build missed the racing mutation")
	}
	scans := m.scans()
	if len(scans) != 2 || len(scans[0]) != len(mdHosts) || len(scans[1]) != len(mdHosts) {
		t.Fatalf("scan shapes = %v, want two full builds (doomed + retry)", scans)
	}
	if got := r.Invalidations("d"); got != 1 {
		t.Fatalf("invalidations = %d after retry, want still 1", got)
	}

	// Post-race, the dirty-patch path works normally on the cached set.
	m.setHSTS("e.gov", true)
	r.MarkDirty("d", []string{"e.gov"})
	patched, err := r.Get(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	<-m.entered
	scans = m.scans()
	if last := scans[len(scans)-1]; len(last) != 1 || last[0] != "e.gov" {
		t.Fatalf("post-race patch scanned %v, want [e.gov]", last)
	}
	if re, _ := patched.Lookup("e.gov"); re == nil || !re.HSTS {
		t.Fatal("post-race patch missed the update")
	}
}

// TestPatchFallsBackOnCorpusChange pins the slow path: when the host
// list itself changed, the patch rescans the whole current corpus
// instead of the delta splice.
func TestPatchFallsBackOnCorpusChange(t *testing.T) {
	m := &mutableWorld{hsts: map[string]bool{}}
	hosts := append([]string(nil), mdHosts...)
	var mu sync.Mutex
	r := dataset.NewRegistry(m.scan)
	r.Register(dataset.Source{
		Name: "d",
		Hosts: func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), hosts...)
		},
		Opts: func() resultset.Options { return resultset.Options{} },
	})
	ctx := context.Background()
	if _, err := r.Get(ctx, "d"); err != nil {
		t.Fatal(err)
	}

	// The corpus grows by one host while b.gov goes dirty.
	mu.Lock()
	hosts = append(hosts, "f.gov")
	mu.Unlock()
	m.setHSTS("b.gov", true)
	r.MarkDirty("d", []string{"b.gov"})

	got, err := r.Get(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Fatalf("patched set len = %d, want 6 (corpus newcomer included)", got.Len())
	}
	if rf, _ := got.Lookup("f.gov"); rf == nil {
		t.Fatal("corpus newcomer missing after patch")
	}
	if rb, _ := got.Lookup("b.gov"); rb == nil || !rb.HSTS {
		t.Fatal("dirty host not refreshed on the fallback path")
	}
	scans := m.scans()
	if last := scans[len(scans)-1]; !slices.Equal(last, hosts) {
		t.Fatalf("fallback scanned %v, want the full host list %v", last, hosts)
	}
}
