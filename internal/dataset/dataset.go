// Package dataset is the named-dataset registry behind core.Study: every
// scan corpus the paper uses — `worldwide`, the GSA lists (`usa:<key>`,
// `usa:all`), `rok` — is registered once under a stable name and scanned
// lazily into an indexed resultset.Set on first Get. Results are
// memoized per dataset; a trust-store switch invalidates every dataset
// atomically (generation counters), so a scan that raced the switch is
// discarded and redone under the new store instead of being cached under
// the wrong one.
//
// Concurrency contract: Get is safe from any number of goroutines.
// Exactly one scan runs per (dataset, generation) — concurrent callers
// wait on the in-flight scan. Invalidate/InvalidateAll may be called at
// any time, including mid-scan: the generation captured at scan start no
// longer matches, so the stale result is dropped and the winning caller
// rescans. Scans themselves run without any registry lock held.
package dataset

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/resultset"
	"repro/internal/scanner"
)

// Source describes one registered dataset.
type Source struct {
	// Name is the registry key, e.g. "worldwide" or "usa:currentfed".
	Name string
	// Hosts returns the dataset's hostname list (called at scan time, so
	// it observes world mutations).
	Hosts func() []string
	// Opts returns the index options for the dataset's result sets.
	Opts func() resultset.Options
	// Build, when non-nil, replaces the registry's ScanFunc for full
	// builds of this dataset — the hook composite datasets (usa:all) use
	// to assemble themselves from other cached datasets instead of
	// rescanning. Partial rebuilds after MarkDirty still scan.
	Build func(ctx context.Context) (*resultset.Set, error)
}

// ScanFunc performs one scan: probe hosts and build the indexed set.
// The registry calls it without holding any lock.
type ScanFunc func(ctx context.Context, hosts []string, opts resultset.Options) *resultset.Set

// entry is one dataset's cache slot.
type entry struct {
	src Source
	// gen counts invalidations; a scan started under one generation may
	// only install its result while the generation is unchanged.
	gen int
	// invalidations counts Invalidate calls that actually dropped state
	// (test hook for the exactly-once invalidation contract).
	invalidations int
	set           *resultset.Set
	// dirty records hosts whose cached results are stale (MarkDirty): the
	// next Get patches the set by rescanning only these (plus corpus
	// newcomers) instead of the full host list.
	dirty map[string]struct{}
	// inflight is non-nil while a scan runs; waiters block on it.
	inflight chan struct{}
	// pins holds the generations readers have pinned (Pin): each keeps its
	// Set reachable until the last reader releases it, independent of
	// invalidation and patching. Entries exist only while readers > 0.
	pins map[int]*pinState
}

// pinState is the registry-side record of one pinned generation.
type pinState struct {
	set     *resultset.Set
	readers int
}

// Registry holds the named datasets.
type Registry struct {
	scan ScanFunc

	mu      sync.Mutex
	names   []string // registration order
	entries map[string]*entry
}

// NewRegistry creates an empty registry scanning through fn.
func NewRegistry(fn ScanFunc) *Registry {
	return &Registry{scan: fn, entries: map[string]*entry{}}
}

// Register adds a dataset. Registering a name twice panics: dataset names
// are a fixed vocabulary established at study construction.
func (r *Registry) Register(src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[src.Name]; dup {
		panic(fmt.Sprintf("dataset: %q registered twice", src.Name))
	}
	r.names = append(r.names, src.Name)
	r.entries[src.Name] = &entry{src: src}
}

// Names lists the registered datasets in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	return ok
}

// Get returns the dataset's indexed results, scanning on first use (or
// after invalidation). Concurrent callers share one scan; a scan whose
// generation was invalidated mid-flight is discarded and redone.
func (r *Registry) Get(ctx context.Context, name string) (*resultset.Set, error) {
	set, _, err := r.get(ctx, name)
	return set, err
}

// get is Get plus the generation number the returned set is installed
// under — the identity Pin records and generation-keyed caches embed.
func (r *Registry) get(ctx context.Context, name string) (*resultset.Set, int, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		known := make([]string, len(r.names))
		copy(known, r.names)
		r.mu.Unlock()
		return nil, 0, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, known)
	}
	for {
		if e.set != nil && len(e.dirty) == 0 {
			set, gen := e.set, e.gen
			r.mu.Unlock()
			return set, gen, nil
		}
		if e.inflight != nil {
			// Another goroutine is scanning this generation: wait for it,
			// then re-check (it may have been invalidated mid-scan).
			done := e.inflight
			r.mu.Unlock()
			<-done
			r.mu.Lock()
			continue
		}
		// Claim the build for the current generation, consuming any dirty
		// set: base+dirty patch in place of a full rescan. The slot is
		// cleared so concurrent Gets wait on the in-flight build instead
		// of reading the stale base.
		e.inflight = make(chan struct{})
		gen := e.gen
		base, dirty := e.set, e.dirty
		e.set, e.dirty = nil, nil
		done := e.inflight
		r.mu.Unlock()

		var set *resultset.Set
		var err error
		switch {
		case base != nil && len(dirty) > 0:
			set = r.patch(ctx, e.src, base, dirty)
		case e.src.Build != nil:
			set, err = e.src.Build(ctx)
		default:
			set = r.scan(ctx, e.src.Hosts(), e.src.Opts())
		}

		r.mu.Lock()
		e.inflight = nil
		close(done)
		if err != nil {
			r.mu.Unlock()
			return nil, 0, fmt.Errorf("dataset: building %s: %w", name, err)
		}
		if e.gen == gen {
			e.set = set
			r.mu.Unlock()
			return set, gen, nil
		}
		// The dataset was invalidated (store switch, world mutation) while
		// we scanned: the result reflects stale state. Drop it and retry
		// under the new generation.
	}
}

// Pinned is a read lease on one dataset generation: the Set it carries
// stays valid — and is retained by the registry's pin table — no matter
// how many invalidations, dirty-patches or store switches happen
// underneath. Serving-layer requests pin a generation for their whole
// lifetime (a paginated export included), so they observe one immutable
// snapshot; Release drops the lease, and once the last reader of a
// superseded generation releases, the registry forgets the Set and its
// memory becomes collectable.
type Pinned struct {
	r    *Registry
	name string
	gen  int
	set  *resultset.Set

	mu       sync.Mutex
	released bool
}

// Set returns the pinned snapshot (immutable, read-only).
func (p *Pinned) Set() *resultset.Set { return p.set }

// Generation returns the registry generation the snapshot was installed
// under — unique per installed Set, so it is safe to embed in cache keys.
func (p *Pinned) Generation() int { return p.gen }

// Name returns the dataset name.
func (p *Pinned) Name() string { return p.name }

// Release drops the lease. Safe to call more than once; after the first
// call the registry may forget a superseded generation.
func (p *Pinned) Release() {
	p.mu.Lock()
	done := p.released
	p.released = true
	p.mu.Unlock()
	if done {
		return
	}
	p.r.unpin(p.name, p.gen)
}

// Pin resolves the dataset (scanning on first use, exactly like Get) and
// pins the generation it resolved to. Every Pin must be paired with a
// Release; concurrent pins of the same generation share one registry
// record with a reader count.
func (r *Registry) Pin(ctx context.Context, name string) (*Pinned, error) {
	set, gen, err := r.get(ctx, name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	e := r.entries[name]
	if e.pins == nil {
		e.pins = make(map[int]*pinState, 2)
	}
	ps := e.pins[gen]
	if ps == nil {
		ps = &pinState{set: set}
		e.pins[gen] = ps
	}
	ps.readers++
	r.mu.Unlock()
	return &Pinned{r: r, name: name, gen: gen, set: set}, nil
}

// unpin drops one reader from (name, gen), forgetting the generation
// when the last reader leaves.
func (r *Registry) unpin(name string, gen int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return
	}
	ps := e.pins[gen]
	if ps == nil {
		return
	}
	ps.readers--
	if ps.readers <= 0 {
		delete(e.pins, gen)
	}
}

// PinnedGeneration is one pinned generation's introspection record.
type PinnedGeneration struct {
	Generation int
	Readers    int
}

// GenerationInfo is one dataset's generation bookkeeping: the generation
// a new build would install under, whether a clean set is cached, how
// many hosts are marked dirty, and the generations readers hold pinned.
type GenerationInfo struct {
	Name    string
	Current int
	Cached  bool
	Dirty   int
	Pinned  []PinnedGeneration // ascending by generation
}

// Generations reports every dataset's generation state, in registration
// order — the introspection surface behind the serving layer's
// /v1/datasets endpoint and the pin-lifecycle tests.
func (r *Registry) Generations() []GenerationInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GenerationInfo, 0, len(r.names))
	for _, name := range r.names {
		e := r.entries[name]
		info := GenerationInfo{
			Name:    name,
			Current: e.gen,
			Cached:  e.set != nil && len(e.dirty) == 0,
			Dirty:   len(e.dirty),
		}
		if len(e.pins) > 0 {
			gens := make([]int, 0, len(e.pins))
			for g := range e.pins {
				gens = append(gens, g)
			}
			sort.Ints(gens)
			info.Pinned = make([]PinnedGeneration, len(gens))
			for i, g := range gens {
				info.Pinned[i] = PinnedGeneration{Generation: g, Readers: e.pins[g].readers}
			}
		}
		out = append(out, info)
	}
	return out
}

// patch rebuilds a dataset from its cached base: only dirty hosts and
// hosts absent from the base are rescanned. When the corpus host list is
// unchanged, the base's indexes are patched incrementally
// (resultset.ApplyDelta — cost proportional to the dirty set, not the
// corpus); when hosts appeared or disappeared, the set is reassembled in
// the source's current host order and indexed with resultset.New. Per-host
// results are scan-order independent on fault-free worlds, so either
// path is bit-identical to a full rescan at a fraction of the cost;
// flaky worlds should use Invalidate instead (dial-ordinal fault draws
// depend on scan makeup).
func (r *Registry) patch(ctx context.Context, src Source, base *resultset.Set, dirty map[string]struct{}) *resultset.Set {
	hosts := src.Hosts()
	baseResults := base.Results()

	// Fast path: same corpus, same order — re-scan only the dirty hosts
	// (in corpus order, so the delta is deterministic) and splice the
	// changed rows into the base's shared-index chain.
	if len(hosts) == len(baseResults) {
		same := true
		for i := range hosts {
			if hosts[i] != baseResults[i].Hostname {
				same = false
				break
			}
		}
		if same {
			toScan := make([]string, 0, len(dirty))
			for _, h := range hosts {
				if _, stale := dirty[h]; stale {
					toScan = append(toScan, h)
				}
			}
			sub := r.scan(ctx, toScan, src.Opts())
			if next, err := base.ApplyDelta(sub.Results()); err == nil {
				return next
			}
			// A delta contract violation (host vanished from the scan
			// output) falls through to the reassembly below.
		}
	}

	baseIdx := make(map[string]int, len(baseResults))
	for i := range baseResults {
		baseIdx[baseResults[i].Hostname] = i
	}
	var toScan []string
	for _, h := range hosts {
		if _, stale := dirty[h]; stale {
			toScan = append(toScan, h)
			continue
		}
		if _, have := baseIdx[h]; !have {
			toScan = append(toScan, h)
		}
	}
	opts := src.Opts()
	sub := r.scan(ctx, toScan, opts)
	subResults := sub.Results()
	subIdx := make(map[string]int, len(subResults))
	for i := range subResults {
		subIdx[subResults[i].Hostname] = i
	}
	results := make([]scanner.Result, len(hosts))
	for i, h := range hosts {
		if j, ok := subIdx[h]; ok {
			results[i] = subResults[j]
		} else {
			results[i] = baseResults[baseIdx[h]]
		}
	}
	return resultset.New(results, opts)
}

// MarkDirty records hosts whose cached results in the named dataset are
// stale — the partial-invalidation hook the remediation experiments use.
// Unlike Invalidate, the next Get patches the cached set (see patch)
// instead of rescanning the whole corpus. Marking while a build is in
// flight dooms the build (it may or may not have observed the mutation);
// marking an empty slot is a no-op, since the next Get scans fresh.
// Returns false for unknown names.
func (r *Registry) MarkDirty(name string, hosts []string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return false
	}
	if len(hosts) == 0 {
		return true
	}
	if e.inflight != nil {
		r.invalidateLocked(e)
		return true
	}
	if e.set == nil {
		return true
	}
	if e.dirty == nil {
		e.dirty = make(map[string]struct{}, len(hosts))
	}
	for _, h := range hosts {
		e.dirty[h] = struct{}{}
	}
	// The patched set the next Get installs is a distinct snapshot, so it
	// must carry a distinct generation: pinned readers keep the base under
	// the old number, and generation-keyed response caches miss instead of
	// serving the base's bytes for the patched data.
	e.gen++
	return true
}

// Invalidate drops one dataset's cached results (and dooms any in-flight
// scan of it). Returns false for unknown names.
func (r *Registry) Invalidate(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return false
	}
	r.invalidateLocked(e)
	return true
}

// InvalidateAll drops every dataset's cached results — the trust-store
// switch path. Each registered dataset is invalidated exactly once, under
// one lock acquisition, so no Get can observe a half-invalidated registry.
func (r *Registry) InvalidateAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names {
		r.invalidateLocked(r.entries[name])
	}
}

func (r *Registry) invalidateLocked(e *entry) {
	e.gen++
	e.set = nil
	e.dirty = nil
	e.invalidations++
}

// Invalidations reports how many times the named dataset has been
// invalidated — the test hook behind the exactly-once UseStore contract.
// Unknown names report zero.
func (r *Registry) Invalidations(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return 0
	}
	return e.invalidations
}

// Cached reports whether the named dataset currently holds clean
// memoized results (no scan at all would run on Get — a dirty set still
// needs a patch scan and reports false).
func (r *Registry) Cached(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	return ok && e.set != nil && len(e.dirty) == 0
}
