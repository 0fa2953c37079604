package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/world"
)

// serve_churn shape. The readers are an open loop: requests are due on a
// fixed schedule whatever the server does, as from independent users, and
// each is timed from its due time so a stall charges every request queued
// behind it.
const (
	serveScale = 0.2
	// serveWorldSeed fixes the served corpus and its Tranco ranks, which
	// set which hosts are popular.
	// A query API serves one dataset to varying traffic; with a fresh
	// world and popularity per seed, latency and capacity moved by up to a
	// fifth between seeds, more than any bound allows.
	serveWorldSeed = defaultSeed
	serveClients   = 2
	// writerEvery and churnHosts: every writerEvery the writer churns
	// churnHosts hosts, marks them dirty and patches the dataset.
	writerEvery = 250 * time.Millisecond
	churnHosts  = 20
	// p99Limit is the latency limit max_qps is measured against (see
	// README.md for why 25 ms).
	p99Limit = 25 * time.Millisecond
	// spinBelow is how close to a due time the generator stops sleeping
	// and yields instead: a sleep overshoots by about half a millisecond.
	spinBelow = time.Millisecond
	// serveSetups is how many times a run builds the serving state, for
	// a median setup_s.
	serveSetups = 3
	// maxQPSSteps is how many bisection phases narrow serve.max_qps.
	maxQPSSteps = 4
	// seqLen is the length of each drawn request sequence; a phase that
	// sends more cycles through it.
	seqLen = 1 << 17
)

// The seeded request mix: shares of aggregates and host lookups in
// percent; the rest are 200-row export windows.
const (
	mixAggregatePct = 45
	mixHostPct      = 53
	exportRows      = 200
	// zipfS is the Zipf exponent of host popularity. It is an assumption,
	// not a measurement: rand.Zipf needs s > 1, and README.md reports how
	// the cache hit ratio and capacity move with it.
	zipfS = 1.1
	// minGroupHosts is the fewest hosts an issuer or category needs to
	// be in the menu. A run churns at most a few thousand of the corpus's
	// hosts, drawn uniformly, so a group this size keeps most of its own.
	minGroupHosts = 100
)

// Request classes.
const (
	classAggregate = iota
	classHost
	classExport
	numClasses
)

var classNames = [numClasses]string{"aggregate", "host", "export"}

// serveState is one built serving stack and its request menu.
type serveState struct {
	study *core.Study
	srv   *serve.Server
	// worldBuild is the part of the set-up core.NewStudy took.
	worldBuild time.Duration
	// paths is the request menu: aggregates first, then one lookup per
	// host in popularity order, then the export windows.
	paths   []string
	classes []uint8
	nAgg    int
	nHost   int
}

// buildServe builds the study, the worldwide dataset and the server, and
// warms every aggregate path so the first timed requests find the cache
// and the lazily built indexes ready. The served corpus and its host
// popularity are the same for every run (serveWorldSeed); the workload
// seed draws the request sequences and the writer's churn.
func buildServe(scale float64) (*serveState, time.Duration, error) {
	ctx := context.Background()
	t := now()
	s, err := core.NewStudy(world.Config{Seed: serveWorldSeed, Scale: scale})
	if err != nil {
		return nil, 0, err
	}
	worldBuild := since(t)
	set, err := s.Dataset(ctx, "worldwide")
	if err != nil {
		return nil, 0, err
	}
	st := &serveState{study: s, srv: serve.New(s.Registry(), serve.Config{}), worldBuild: worldBuild}
	add := func(class uint8, p string) {
		st.paths = append(st.paths, p)
		st.classes = append(st.classes, class)
	}
	add(classAggregate, "/v1/table2")
	add(classAggregate, "/v1/countries")
	for _, cc := range set.Countries() {
		add(classAggregate, "/v1/country?cc="+url.QueryEscape(cc))
	}
	// Only issuers and categories the writer's churn cannot empty within a
	// run: an emptied one answers 404, and the workload's requests must
	// not fail.
	for _, cn := range set.Issuers() {
		if len(set.ByIssuer(cn)) >= minGroupHosts {
			add(classAggregate, "/v1/issuer?cn="+url.QueryEscape(cn))
		}
	}
	for _, cat := range set.Categories() {
		if set.CategoryCount(cat) >= minGroupHosts {
			add(classAggregate, "/v1/category?cat="+url.QueryEscape(cat.String()))
		}
	}
	st.nAgg = len(st.paths)
	// Host popularity follows the world's Tranco ranks: the ranked
	// government hosts first, most popular first, then the unranked rest
	// in corpus order. The Zipf draw in sequence picks from this order.
	ranked := map[string]bool{}
	for _, rh := range s.World.TopLists.TrancoGov {
		if _, ok := set.Lookup(rh.Host); ok && !ranked[rh.Host] {
			ranked[rh.Host] = true
			add(classHost, "/v1/host?name="+url.QueryEscape(rh.Host))
		}
	}
	for i := 0; i < set.Len(); i++ {
		if h := set.At(i).Hostname; !ranked[h] {
			add(classHost, "/v1/host?name="+url.QueryEscape(h))
		}
	}
	st.nHost = len(st.paths) - st.nAgg
	for off := 0; off+exportRows <= set.Len(); off += exportRows {
		add(classExport, fmt.Sprintf("/v1/export?offset=%d&limit=%d", off, exportRows))
	}
	if err := st.warm(st.srv.Handler()); err != nil {
		return nil, 0, err
	}
	return st, since(t), nil
}

// warm serves every aggregate path once through h.
func (st *serveState) warm(h http.Handler) error {
	for i := 0; i < st.nAgg; i++ {
		if code, _ := call(h, st.paths[i]); code != http.StatusOK {
			return fmt.Errorf("warming %s: status %d", st.paths[i], code)
		}
	}
	return nil
}

// call serves one request through h and returns the status and body.
func call(h http.Handler, path string) (int, []byte) {
	rec := &bodyRecorder{hdr: http.Header{}}
	h.ServeHTTP(rec, mustRequest(path))
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.status, rec.body.Bytes()
}

func mustRequest(path string) *http.Request {
	u, err := url.ParseRequestURI(path)
	if err != nil {
		panic(fmt.Sprintf("menu path %q: %v", path, err)) // menu paths are built above
	}
	return &http.Request{
		Method: http.MethodGet, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Host: "govserve", RequestURI: path, Header: http.Header{},
	}
}

// bodyRecorder keeps the whole body, for the correctness sweep.
type bodyRecorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *bodyRecorder) Header() http.Header  { return r.hdr }
func (r *bodyRecorder) WriteHeader(code int) { r.status = code }
func (r *bodyRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// countRecorder keeps only the status, for the load phases.
type countRecorder struct {
	hdr    http.Header
	status int
	n      int
}

func (r *countRecorder) Header() http.Header  { return r.hdr }
func (r *countRecorder) WriteHeader(code int) { r.status = code }
func (r *countRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.n += len(p)
	return len(p), nil
}

// sequence draws n menu indices from the seeded mix.
func (st *serveState) sequence(seed int64, n int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(st.nHost-1))
	nExport := len(st.paths) - st.nAgg - st.nHost
	seq := make([]int32, n)
	for i := range seq {
		switch u := rng.Intn(100); {
		case u < mixAggregatePct:
			seq[i] = int32(rng.Intn(st.nAgg))
		case u < mixAggregatePct+mixHostPct:
			seq[i] = int32(st.nAgg + int(zipf.Uint64()))
		default:
			seq[i] = int32(st.nAgg + st.nHost + rng.Intn(nExport))
		}
	}
	return seq
}

// phaseResult is one load phase's outcome.
type phaseResult struct {
	offered  float64 // req/s, 0 for the closed loop
	sent     int
	errors   int
	elapsed  time.Duration
	lat      []time.Duration // open loop: sorted, from due time
	service  []time.Duration // open loop: send to response, in request order
	genLate  []time.Duration // sorted, generator lateness when idle at due time
	tailLate time.Duration   // worst send lateness in the phase's last tenth
	// windowP50 and windowRate are the medians, over the phase's whole
	// windows of one writer period, of each window's p50 latency (open
	// loop) and completion rate: a burst of load from elsewhere on the
	// host moves a few windows, not the median.
	windowP50  time.Duration
	windowRate float64
	// windowP50s holds each whole window's p50 latency (open loop).
	windowP50s []float64
	// windows holds each whole window's completion count.
	windows []float64
}

func (p *phaseResult) p50() time.Duration { return percentile(p.lat, 50) }
func (p *phaseResult) p99() time.Duration { return percentile(p.lat, 99) }

// meets reports whether the phase met the latency limit with no growing
// backlog: the p99 is within the limit and requests in the last tenth
// were sent within the limit of their due time.
func (p *phaseResult) meets() bool {
	return p.errors == 0 && p.p99() <= p99Limit && p.tailLate <= p99Limit
}

// loadPhase drives h with serveClients goroutines for d, dealing requests
// round-robin from seq (cycling through it). With rate > 0 it is an open
// loop at rate req/s: request i falls due at i/rate and is timed from
// then. With rate 0 it is a closed loop, each client sending its next
// request when the last returns; only completions are counted. With bufs
// non-nil every request is recorded as a span with its handler call as a
// child.
func (st *serveState) loadPhase(h http.Handler, seq []int32, rate float64, d time.Duration, bufs []*spanBuf) *phaseResult {
	open := rate > 0
	n := math.MaxInt
	var interval time.Duration
	var lat, service, dueOff []time.Duration
	if open {
		n = int(rate * d.Seconds())
		interval = time.Duration(float64(time.Second) / rate)
		lat = make([]time.Duration, n)
		service = make([]time.Duration, n)
		dueOff = make([]time.Duration, n)
	}
	windows := int(d/writerEvery) + 1
	type clientStat struct {
		sent, errors int
		genLate      []time.Duration
		tailLate     time.Duration
		completed    []float64 // per window
	}
	stats := make([]clientStat, serveClients)
	// Each client builds its own requests before the clock starts: the
	// mux may rewrite a request in flight, so none is shared.
	reqs := make([]map[int32]*http.Request, serveClients)
	for c := range reqs {
		reqs[c] = map[int32]*http.Request{}
		for i := c; i < min(n, len(seq)); i += serveClients {
			if reqs[c][seq[i]] == nil {
				reqs[c][seq[i]] = mustRequest(st.paths[seq[i]])
			}
		}
		stats[c].completed = make([]float64, windows)
	}
	ctx := context.Background()
	start := now().Add(time.Millisecond)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := &countRecorder{hdr: make(http.Header, 4)}
			cs := &stats[c]
			var buf *spanBuf
			if bufs != nil {
				buf = bufs[c]
			}
			prevDone := start
			for i := c; i < n; i += serveClients {
				var due time.Time
				if open {
					due = start.Add(time.Duration(i) * interval)
					waitUntil(ctx, due)
				} else if due = now(); !due.Before(deadline) {
					break
				}
				sent := now()
				if open && prevDone.Before(due) {
					cs.genLate = append(cs.genLate, sent.Sub(due))
				}
				if open && i >= n*9/10 && sent.Sub(due) > cs.tailLate {
					cs.tailLate = sent.Sub(due)
				}
				rec.status, rec.n = 0, 0
				clear(rec.hdr)
				h.ServeHTTP(rec, reqs[c][seq[i%len(seq)]])
				done := now()
				prevDone = done
				cs.sent++
				if rec.status != 0 && (rec.status < 200 || rec.status > 299) {
					cs.errors++
				}
				if k := int(done.Sub(start) / writerEvery); k < windows {
					cs.completed[k]++
				}
				if open {
					lat[i] = done.Sub(due)
					service[i] = done.Sub(sent)
					dueOff[i] = due.Sub(start)
				}
				if buf != nil {
					buf.open(spanRequest, int64(i), due)
					buf.child(spanHandler, sent, done)
					buf.close(done)
				}
			}
		}(c)
	}
	wg.Wait()
	res := &phaseResult{offered: rate, elapsed: now().Sub(start), lat: lat, service: service}
	whole := min(int(res.elapsed/writerEvery), windows)
	completed := make([]float64, whole)
	for c := range stats {
		res.sent += stats[c].sent
		res.errors += stats[c].errors
		res.genLate = append(res.genLate, stats[c].genLate...)
		res.tailLate = max(res.tailLate, stats[c].tailLate)
		for k := range completed {
			completed[k] += stats[c].completed[k]
		}
	}
	res.windows = completed
	res.windowRate = median(completed) / writerEvery.Seconds()
	if open {
		byDue := make([][]time.Duration, whole)
		for i, l := range lat {
			if k := int(dueOff[i] / writerEvery); k < whole {
				byDue[k] = append(byDue[k], l)
			}
		}
		p50s := make([]float64, 0, whole)
		for _, l := range byDue {
			if len(l) > 0 {
				sortDurations(l)
				p50s = append(p50s, float64(percentile(l, 50)))
			}
		}
		res.windowP50s = p50s
		res.windowP50 = time.Duration(median(p50s))
		res.lat = append([]time.Duration(nil), lat...)
		sortDurations(res.lat)
	}
	sortDurations(res.genLate)
	return res
}

// waitUntil sleeps until shortly before t, then yields until t: a plain
// sleep overshoots by about half a millisecond, far more than the median
// request takes.
func waitUntil(ctx context.Context, t time.Time) {
	for {
		left := t.Sub(now())
		if left <= 0 {
			return
		}
		if left > spinBelow {
			_ = clock.Sleep(ctx, left-spinBelow) // ctx is never cancelled here
			continue
		}
		runtime.Gosched()
	}
}

// writer is the serve_churn write side: every writerEvery it churns
// churnHosts hosts with world.ChurnTick, marks them dirty and patches the
// dataset through Registry.Get, so each write is a registry patch plus
// ApplyDelta, a new generation and a round of cache misses. With a span
// buffer it records each patch; the buffer is the writer goroutine's.
type writer struct {
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	patches []time.Duration
	err     error
}

func startWriter(st *serveState, seed int64, buf *spanBuf) *writer {
	ctx, cancel := context.WithCancel(context.Background())
	wr := &writer{cancel: cancel}
	w := st.study.World
	reg := st.study.Registry()
	rng := rand.New(rand.NewSource(seed))
	wr.wg.Add(1)
	go func() {
		defer wr.wg.Done()
		for clock.Sleep(ctx, writerEvery) == nil {
			t := now()
			touched := w.ChurnTick(rng, w.ScanTime, churnHosts)
			reg.MarkDirty("worldwide", touched)
			if _, err := reg.Get(context.Background(), "worldwide"); err != nil {
				wr.err = err
				return
			}
			end := now()
			wr.patches = append(wr.patches, end.Sub(t))
			if buf != nil {
				buf.record(spanPatch, int64(len(wr.patches)), t, end)
			}
		}
	}()
	return wr
}

// stop ends the writer after its current patch and returns the patch
// times.
func (wr *writer) stop() ([]time.Duration, error) {
	wr.cancel()
	wr.wg.Wait()
	sortDurations(wr.patches)
	return wr.patches, wr.err
}

// phaseLen is a phase's share of a run's measurement time.
func phaseLen(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}

// runServeChurn measures the query API under churn, all beside the
// writer: open-loop readers at 5,000 and 20,000 req/s, a closed loop for
// the capacity, and the highest offered rate meeting the p99 limit.
func runServeChurn(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceServeChurn(cfg)
	}
	o := newOutcome()
	var st *serveState
	for i := 0; i < serveSetups; i++ {
		st = nil
		releaseMemory()
		var setup time.Duration
		var err error
		st, setup, err = buildServe(serveScale)
		if err != nil {
			return nil, err
		}
		o.raw["setup_s"] = append(o.raw["setup_s"], setup.Seconds())
	}
	releaseMemory() // every run's load starts from the same collected heap
	h := st.srv.Handler()
	wr := startWriter(st, cfg.seed, nil)
	phases := []*phaseResult{}
	run := func(seqSeed int64, rate float64, d time.Duration) *phaseResult {
		p := st.loadPhase(h, st.sequence(cfg.seed+seqSeed, seqLen), rate, d, nil)
		phases = append(phases, p)
		fmt.Printf("# phase serve_churn offered=%.0f sent=%d errors=%d elapsed=%.3fs p50=%.1fus window_p50=%.1fus p99=%.1fus window_rate=%.0f gen_late_p99=%.1fus tail_late=%.1fus meets=%v\n",
			rate, p.sent, p.errors, p.elapsed.Seconds(), us(p.p50()), us(p.windowP50), us(p.p99()), p.windowRate,
			us(percentile(p.genLate, 99)), us(p.tailLate), p.meets())
		return p
	}
	// The closed loop runs in four segments spread over the run, so the
	// capacity's median covers as long a stretch of the host's background
	// load as the run itself.
	var closedWindows []float64
	closed := func(seqSeed int64) float64 {
		p := run(seqSeed, 0, phaseLen(cfg.seconds, 0.05))
		closedWindows = append(closedWindows, p.windows...)
		o.raw["serve.closed_segment_qps"] = append(o.raw["serve.closed_segment_qps"], p.windowRate)
		return median(closedWindows) / writerEvery.Seconds()
	}
	// The open loop at 20,000 req/s runs in four segments spread over the
	// run too: a stall of the host during one of them moves a quarter of
	// the windows latency_ms is the median of, not all of them.
	var r20s []*phaseResult
	r20seg := func(seqSeed int64) {
		r20s = append(r20s, run(seqSeed, 20000, phaseLen(cfg.seconds, 0.0625)))
	}
	// The bisection for max_qps overloads the server, which slows the
	// phases right after it, so it runs last.
	closed(10)
	r5 := run(1, 5000, phaseLen(cfg.seconds, 0.15))
	r20seg(2)
	closed(11)
	r20seg(3)
	closed(12)
	r20seg(8)
	capacity := closed(13)
	r20seg(9)
	r20 := merged(r20s)
	bestRate := maxQPS(run, phaseLen(cfg.seconds, 0.075), capacity, append([]*phaseResult{r5}, r20s...)...)
	patches, err := wr.stop()
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		o.attempted += p.sent
		o.failed += p.errors
	}
	st.sweep(o)

	o.metrics["setup_s"] = metric{median(o.raw["setup_s"]), "s"}
	o.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	o.metrics["ops_per_s"] = metric{capacity, "1/s"}
	o.metrics["latency_ms"] = metric{ms(r20.windowP50), "ms"}
	o.named["serve.p50_us.r5k"] = metric{us(r5.p50()), "us"}
	o.named["serve.p99_us.r5k"] = metric{us(r5.p99()), "us"}
	o.named["serve.p50_us.r20k"] = metric{us(r20.p50()), "us"}
	o.named["serve.p99_us.r20k"] = metric{us(r20.p99()), "us"}
	o.named["serve.max_qps"] = metric{bestRate, "req/s"}
	o.named["serve.capacity_qps"] = metric{capacity, "req/s"}
	o.named["serve.error_share"] = metric{float64(o.failed) / float64(max(o.attempted, 1)), "share"}
	o.named["serve.gen_late_p99_us"] = metric{us(max(percentile(r5.genLate, 99), percentile(r20.genLate, 99))), "us"}
	o.named["dataset.patch_p50_ms"] = metric{ms(percentile(patches, 50)), "ms"}
	o.named["dataset.patch_max_ms"] = metric{ms(percentile(patches, 100)), "ms"}
	o.named["dataset.patches"] = metric{float64(len(patches)), "count"}
	return o, nil
}

// merged combines open-loop phases at one rate: every latency and
// lateness sample, and the median over all their windows' p50s.
func merged(ps []*phaseResult) *phaseResult {
	m := &phaseResult{offered: ps[0].offered}
	for _, p := range ps {
		m.sent += p.sent
		m.errors += p.errors
		m.elapsed += p.elapsed
		m.lat = append(m.lat, p.lat...)
		m.genLate = append(m.genLate, p.genLate...)
		m.windowP50s = append(m.windowP50s, p.windowP50s...)
		m.tailLate = max(m.tailLate, p.tailLate)
	}
	sortDurations(m.lat)
	sortDurations(m.genLate)
	m.windowP50 = time.Duration(median(m.windowP50s))
	return m
}

// maxQPS finds the highest offered rate that meets the p99 limit with no
// growing backlog. The closed loop's throughput bounds it from above (an
// open loop offered more than the server completes back to back must fall
// behind); the fixed-rate phases that met the limit bound it from below;
// bisection narrows the gap. The result is the throughput the best
// passing phase achieved, so it carries the measurement's own digits.
func maxQPS(run func(int64, float64, time.Duration) *phaseResult, step time.Duration, capacity float64, fixed ...*phaseResult) float64 {
	var best *phaseResult
	for _, p := range fixed {
		if p.meets() {
			best = p
		}
	}
	lo, hi := 0.0, capacity
	if best != nil {
		lo = best.offered
	}
	for i := int64(0); i < maxQPSSteps && hi > lo*1.01; i++ {
		mid := (lo + hi) / 2
		if p := run(4+i, mid, step); p.meets() {
			lo, best = mid, p
		} else {
			hi = mid
		}
	}
	if best == nil {
		return 0
	}
	return float64(best.sent) / best.elapsed.Seconds()
}

// sweep is the correctness gate after the load stops: every aggregate
// path, 200 evenly spaced host lookups and 5 export windows, served
// by the cached server and by a CacheDisabled server on the same
// registry, must return 200 with byte-identical bodies; afterwards no
// generation may stay pinned.
func (st *serveState) sweep(o *outcome) {
	cached := st.srv.Handler()
	uncached := serve.New(st.study.Registry(), serve.Config{CacheDisabled: true}).Handler()
	var paths []string
	paths = append(paths, st.paths[:st.nAgg]...)
	for i := 0; i < 200 && i < st.nHost; i++ {
		paths = append(paths, st.paths[st.nAgg+i*st.nHost/200])
	}
	exports := st.paths[st.nAgg+st.nHost:]
	for i := 0; i < 5 && i < len(exports); i++ {
		paths = append(paths, exports[i*len(exports)/5])
	}
	for _, p := range paths {
		c1, b1 := call(cached, p)
		c2, b2 := call(uncached, p)
		if c1 != http.StatusOK || c2 != http.StatusOK {
			o.mismatch("sweep %s: cached status %d, uncached status %d", p, c1, c2)
			continue
		}
		if !bytes.Equal(b1, b2) {
			o.mismatch("sweep %s: cached and uncached bodies differ", p)
		}
	}
	fmt.Printf("# sweep serve_churn %d paths through the cached and uncached servers\n", len(paths))
	if pinned := pinnedGenerations(st.study.Registry()); pinned != 0 {
		o.mismatch("%d dataset generations still pinned after the load stopped", pinned)
	}
}

// pinnedGenerations counts generations readers still hold, over every
// dataset.
func pinnedGenerations(reg *dataset.Registry) int {
	n := 0
	for _, g := range reg.Generations() {
		n += len(g.Pinned)
	}
	return n
}

// traceServeChurn is the traced pass of serve_churn: beside the writer,
// an untraced open loop at 20,000 req/s for the runtime cost, then a
// traced one recording each request from its due time with its handler
// call as a child, with the response-cache counters across it. With the
// writer stopped: allocations per request over a closed loop, the tracing
// overhead (traceOverhead) and the sweep.
func traceServeChurn(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	st, _, err := buildServe(serveScale)
	if err != nil {
		return nil, err
	}
	o.metrics["world.build_s"] = metric{st.worldBuild.Seconds(), "s"}
	h := st.srv.Handler()
	origin := now()
	bufs := make([]*spanBuf, serveClients+1) // the readers', then the writer's
	for i := range bufs {
		bufs[i] = newSpanBuf(origin)
	}
	wr := startWriter(st, cfg.seed, bufs[serveClients])
	d := phaseLen(cfg.seconds, 0.3)
	r0 := readRuntime()
	untraced := st.loadPhase(h, st.sequence(cfg.seed+2, seqLen), 20000, d, nil)
	r1 := readRuntime()
	o.addGC(r0.to(r1))
	c0 := st.srv.CacheStats()
	seq := st.sequence(cfg.seed+2, seqLen)
	traced := st.loadPhase(h, seq, 20000, d, bufs)
	c1 := st.srv.CacheStats()
	patches, err := wr.stop()
	if err != nil {
		return nil, err
	}

	// Handler time per request class.
	var byClass [numClasses][]time.Duration
	for i, svc := range traced.service {
		if svc > 0 {
			c := st.classes[seq[i%len(seq)]]
			byClass[c] = append(byClass[c], svc)
		}
	}
	for c := range byClass {
		sortDurations(byClass[c])
		o.metrics["serve.handler_p50_us."+classNames[c]] = metric{us(percentile(byClass[c], 50)), "us"}
		o.metrics["serve.handler_p99_us."+classNames[c]] = metric{us(percentile(byClass[c], 99)), "us"}
	}
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	if hits+misses > 0 {
		o.metrics["serve.hit_ratio"] = metric{float64(hits) / float64(hits+misses), "share"}
	}
	o.metrics["serve.fills"] = metric{float64(c1.Fills - c0.Fills), "count"}
	o.metrics["serve.waits"] = metric{float64(c1.Waits - c0.Waits), "count"}
	o.metrics["serve.evictions"] = metric{float64(c1.Evictions - c0.Evictions), "count"}
	q, e := st.srv.Rejected()
	o.metrics["serve.rejected"] = metric{float64(q + e), "count"}
	o.metrics["serve.p50_us.r20k"] = metric{us(traced.p50()), "us"}
	o.metrics["serve.p99_us.r20k"] = metric{us(traced.p99()), "us"}
	o.metrics["serve.gen_late_p99_us"] = metric{us(percentile(traced.genLate, 99)), "us"}
	o.metrics["dataset.patch_p50_ms"] = metric{ms(percentile(patches, 50)), "ms"}
	o.metrics["dataset.patch_max_ms"] = metric{ms(percentile(patches, 100)), "ms"}

	// Allocations per request, writer stopped: a closed loop over a fresh
	// draw of the same mix.
	r2 := readRuntime()
	closed := st.loadPhase(h, st.sequence(cfg.seed+3, seqLen), 0, phaseLen(cfg.seconds, 0.1), nil)
	r3 := readRuntime()
	o.metrics["serve.allocs_per_req"] = metric{float64(r2.to(r3).mallocs) / float64(closed.sent), "allocs"}

	phases := []*phaseResult{untraced, traced, closed}
	overhead, err := st.traceOverhead(cfg, &phases)
	if err != nil {
		return nil, err
	}
	o.metrics["trace.overhead"] = metric{overhead, "ratio"}
	for _, p := range phases {
		o.attempted += p.sent
		o.failed += p.errors
	}
	o.metrics["serve.error_share"] = metric{float64(o.failed) / float64(o.attempted), "share"}
	st.sweep(o)
	o.metrics["dataset.pinned_after"] = metric{float64(pinnedGenerations(st.study.Registry())), "count"}

	path, count, err := writeSpans(traceDir, fmt.Sprintf("serve_churn-seed%d.tsv", cfg.seed), bufs)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# trace serve_churn %d spans written to %s\n", count, path)
	return o, nil
}

// traceOverhead measures what recording request spans costs the readers.
// It runs with the writer stopped, so the dataset's generation holds
// still: each phase gets a new server on the registry, warmed like the
// first, and a collected heap, so every phase starts from an equally warm
// cache. Closed loops over one sequence then run untraced and traced in
// the order U T T U (in trials the first phase of each pair ran slower,
// whichever kind it was; this way each kind takes each position once), the
// traced ones recording each request and handler span inside the loop.
// The result is the traced phases' time per request over the untraced
// phases'. Every phase is appended to phases.
func (st *serveState) traceOverhead(cfg runConfig, phases *[]*phaseResult) (float64, error) {
	seq := st.sequence(cfg.seed+5, seqLen)
	d := phaseLen(cfg.seconds, 0.05)
	var perReq [2]float64 // seconds per request: untraced, traced
	for i, k := range []int{0, 1, 1, 0} {
		h := serve.New(st.study.Registry(), serve.Config{}).Handler()
		if err := st.warm(h); err != nil {
			return 0, err
		}
		var bufs []*spanBuf
		for c := 0; k == 1 && c < serveClients; c++ {
			bufs = append(bufs, newSpanBuf(now()))
		}
		releaseMemory()
		p := st.loadPhase(h, seq, 0, d, bufs)
		*phases = append(*phases, p)
		perReq[k] += p.elapsed.Seconds() / float64(p.sent)
		fmt.Printf("# overhead serve_churn phase=%d traced=%v sent=%d us_per_req=%.4f\n",
			i, k == 1, p.sent, 1e6*p.elapsed.Seconds()/float64(p.sent))
	}
	return perReq[1] / perReq[0], nil
}
