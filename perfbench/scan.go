package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/resultset"
	"repro/internal/scanner"
	"repro/internal/tlssim"
	"repro/internal/verify"
	"repro/internal/world"
)

// scanFullScale is the paper's population: 135,309 worldwide hosts, past
// the registry's 100k-host automatic shard threshold.
const scanFullScale = 1.0

// runScanFull measures the paper's core measurement at the paper's size:
// a fresh study, then the worldwide dataset scanned and indexed through
// the registry.
func runScanFull(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceScanFull(cfg)
	}
	ctx := context.Background()
	o := newOutcome()
	err := repeat(cfg.seconds, minScanReps, func(rep int) error {
		releaseMemory()
		s, setup, err := newStudy(cfg.seed, scanFullScale)
		if err != nil {
			return err
		}
		dials := s.World.Net.DialCount()
		r0 := readRuntime()
		t := now()
		set, err := s.Dataset(ctx, "worldwide")
		build := since(t)
		r1 := readRuntime()
		if err != nil {
			return err
		}
		hosts := set.Len()
		if hosts != len(s.World.GovHosts) {
			o.mismatch("worldwide set holds %d hosts, world lists %d", hosts, len(s.World.GovHosts))
		}
		if rep == 0 { // the export costs half a second; once per run is enough
			digest, err := jsonlDigest(set)
			if err != nil {
				return err
			}
			o.checkDigest("scan_full.worldwide_jsonl", digest, cfg.seed)
		}
		o.attempted += hosts
		o.raw["setup_s"] = append(o.raw["setup_s"], setup.Seconds())
		o.raw["build_s"] = append(o.raw["build_s"], build.Seconds())
		o.raw["scan.hosts_per_s"] = append(o.raw["scan.hosts_per_s"], float64(hosts)/build.Seconds())
		o.raw["scan.allocs_per_host"] = append(o.raw["scan.allocs_per_host"], float64(r0.to(r1).mallocs)/float64(hosts))
		o.raw["simnet.dials"] = append(o.raw["simnet.dials"], float64(s.World.Net.DialCount()-dials))
		return nil
	})
	if err != nil {
		return nil, err
	}
	hostsPerS := median(o.raw["scan.hosts_per_s"])
	o.metrics["setup_s"] = metric{median(o.raw["setup_s"]), "s"}
	o.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	o.metrics["ops_per_s"] = metric{hostsPerS, "1/s"}
	o.metrics["latency_ms"] = metric{1000 * median(o.raw["build_s"]), "ms"}
	o.named["scan.hosts_per_s"] = metric{hostsPerS, "hosts/s"}
	o.named["scan.allocs_per_host"] = metric{median(o.raw["scan.allocs_per_host"]), "allocs/host"}
	return o, nil
}

// worldwideOptions is the index framing core gives the worldwide corpus:
// country attribution plus the Figure 7 rank buckets.
func worldwideOptions(w *world.World) resultset.Options {
	rankOf := make(map[string]int, len(w.TopLists.TrancoGov))
	for _, rh := range w.TopLists.TrancoGov {
		rankOf[rh.Host] = rh.Rank
	}
	return resultset.Options{
		CountryOf: w.CountryOf,
		RankOf: func(h string) (int, bool) {
			r, ok := rankOf[h]
			return r, ok
		},
		RankBuckets: core.RankBins,
		RankMax:     w.TopLists.Max,
	}
}

// traceScanFull is the traced pass of scan_full. It builds the worldwide
// dataset through the registry once, for the digest and the runtime cost
// of the end-to-end path. Then, each on a fresh study, it runs the same
// host-by-host scan twice: untraced, as the overhead reference, and
// traced, with the dnssim and simnet boundaries wrapped. On the traced
// pass's results it re-verifies every chain cold and probes tlssim and
// httpsim directly on a seeded host sample.
func traceScanFull(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()

	s, setup, err := newStudy(cfg.seed, scanFullScale)
	if err != nil {
		return nil, err
	}
	o.metrics["world.build_s"] = metric{setup.Seconds(), "s"}
	r0 := readRuntime()
	set, err := s.Dataset(ctx, "worldwide")
	r1 := readRuntime()
	if err != nil {
		return nil, err
	}
	o.addGC(r0.to(r1))
	o.metrics["scan.allocs_per_host"] = metric{float64(r0.to(r1).mallocs) / float64(set.Len()), "allocs/host"}
	want, err := jsonlDigest(set)
	if err != nil {
		return nil, err
	}
	o.checkDigest("scan_full.worldwide_jsonl", want, cfg.seed)
	s, set = nil, nil

	untraced, err := scanPass(ctx, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	if got, err := jsonlDigest(untraced.set); err != nil {
		return nil, err
	} else if got != want {
		o.mismatch("per-host scan's worldwide JSONL %s differs from the registry build's %s", got, want)
	}
	reference := untraced.total()
	untraced = nil

	p, err := scanPass(ctx, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	if got, err := jsonlDigest(p.set); err != nil {
		return nil, err
	} else if got != want {
		o.mismatch("traced scan's worldwide JSONL %s differs from the registry build's %s", got, want)
	}
	base, results := p.study.Scanner(), p.results

	// Per-host spans: latency percentiles and self time.
	var lookups, tdials, bytes int64
	var lookupBusy, dialBusy, readWait time.Duration
	hostLat := make([]time.Duration, 0, len(results))
	var self time.Duration
	for _, b := range p.bufs {
		lookups += b.lookups
		tdials += b.dials
		bytes += b.bytes
		lookupBusy += b.lookupBusy
		dialBusy += b.dialBusy
		readWait += b.readWait
		for _, sp := range b.spans {
			if sp.name == spanScan {
				hostLat = append(hostLat, time.Duration(sp.end-sp.start))
				self += time.Duration(sp.end - sp.start - sp.child)
			}
		}
	}
	if tdials != p.dials {
		o.mismatch("dial wrapper saw %d dials, the network counted %d", tdials, p.dials)
	}
	sortDurations(hostLat)
	attempts := 0
	handshakes := 0
	for i := range results {
		attempts += results[i].Attempts
		if results[i].Chain != nil {
			handshakes++
		}
	}
	n := float64(len(results))
	o.attempted = len(results)
	o.metrics["dnssim.lookups"] = metric{float64(lookups), "count"}
	o.metrics["dnssim.busy_ms"] = metric{ms(lookupBusy), "ms"}
	o.metrics["simnet.dials"] = metric{float64(p.dials), "count"}
	o.metrics["simnet.dial_busy_ms"] = metric{ms(dialBusy), "ms"}
	o.metrics["simnet.read_wait_ms"] = metric{ms(readWait), "ms"}
	o.metrics["simnet.bytes"] = metric{float64(bytes), "bytes"}
	o.metrics["scanner.host_p50_us"] = metric{us(percentile(hostLat, 50)), "us"}
	o.metrics["scanner.host_p99_us"] = metric{us(percentile(hostLat, 99)), "us"}
	o.metrics["scanner.self_ms"] = metric{ms(self), "ms"}
	o.metrics["scanner.attempts_per_host"] = metric{float64(attempts) / n, "attempts/host"}
	o.metrics["resultset.build_ms"] = metric{ms(p.index), "ms"}
	o.metrics["resultset.allocs_per_host"] = metric{float64(p.indexAllocs) / n, "allocs/host"}
	hits, misses := base.Cfg.VerifyCache.Stats()
	if hits+misses > 0 {
		o.metrics["verify.cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "share"}
	}
	if handshakes > 0 {
		o.metrics["cert.chain_dedup_ratio"] = metric{float64(base.Cfg.ChainCache.Len()) / float64(handshakes), "share"}
	}

	// verify: re-verify every collected chain against a cold cache; the
	// outcome must match what the scan recorded.
	rb := newSpanBuf(p.origin)
	v := verify.Verifier{Store: base.Cfg.Store, Now: base.Cfg.Now, Cache: verify.NewCache()}
	t := now()
	for i := range results {
		if results[i].Chain == nil {
			continue
		}
		if got := v.Verify(results[i].Chain, results[i].Hostname); !reflect.DeepEqual(got, results[i].Verify) {
			o.mismatch("re-verifying %s gave %+v, the scan recorded %+v", results[i].Hostname, got, results[i].Verify)
			break
		}
	}
	rb.record(spanVerify, 0, t, now())
	o.metrics["verify.busy_ms"] = metric{ms(since(t)), "ms"}

	if err := probeTLS(ctx, o, p.study.World, base, results, cfg.seed); err != nil {
		return nil, err
	}

	o.metrics["trace.overhead"] = metric{p.total().Seconds() / reference.Seconds(), "ratio"}
	o.named["trace.untraced_s"] = metric{reference.Seconds(), "s"}
	o.named["trace.traced_s"] = metric{p.total().Seconds(), "s"}
	path, count, err := writeSpans(traceDir, fmt.Sprintf("scan_full-seed%d.tsv", cfg.seed), append(p.bufs, rb))
	if err != nil {
		return nil, err
	}
	fmt.Printf("# trace scan_full %d spans written to %s\n", count, path)
	return o, nil
}

// scanPassResult is one host-by-host scan of a fresh study's corpus.
type scanPassResult struct {
	study   *core.Study
	results []scanner.Result
	set     *resultset.Set
	// scan and index are the wall times of the scan loop and of
	// resultset.New; indexAllocs is the mallocs resultset.New made.
	scan, index time.Duration
	indexAllocs uint64
	dials       int64
	origin      time.Time
	// bufs are the workers' span buffers (traced passes only).
	bufs []*spanBuf
}

func (p *scanPassResult) total() time.Duration { return p.scan + p.index }

// scanPass builds a fresh study, scans its corpus host by host through
// Scanner.Scan on as many workers as the scanner's own Concurrency, and
// indexes the results with resultset.New. With traced set, every worker's
// scanner has its dnssim and simnet boundaries wrapped and every Scan is
// recorded as a span; otherwise the same loop runs on the study's own
// dialer and resolver, as the traced pass's reference.
func scanPass(ctx context.Context, seed int64, traced bool) (*scanPassResult, error) {
	releaseMemory()
	s, _, err := newStudy(seed, scanFullScale)
	if err != nil {
		return nil, err
	}
	hosts := s.World.GovHosts
	base := s.Scanner()
	workers := base.Cfg.Concurrency
	p := &scanPassResult{study: s, results: make([]scanner.Result, len(hosts)), origin: now()}
	if traced {
		p.bufs = make([]*spanBuf, workers)
	}
	dials0 := s.World.Net.DialCount()
	t := now()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		sc := base
		var buf *spanBuf
		if traced {
			buf = newSpanBuf(p.origin)
			p.bufs[k] = buf
			sc = scanner.New(&tracedDialer{inner: base.Dialer, buf: buf},
				&tracedResolver{inner: base.Resolver, buf: buf}, base.Class, base.Cfg)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(hosts); i += workers {
				if buf == nil {
					p.results[i] = sc.Scan(ctx, hosts[i])
					continue
				}
				buf.open(spanScan, int64(i), now())
				p.results[i] = sc.Scan(ctx, hosts[i])
				buf.close(now())
			}
		}(k)
	}
	wg.Wait()
	p.scan = since(t)
	p.dials = s.World.Net.DialCount() - dials0

	opts := worldwideOptions(s.World)
	opts.SizeHint = len(p.results)
	r0 := readRuntime()
	t = now()
	p.set = resultset.New(p.results, opts)
	end := now()
	p.index = end.Sub(t)
	p.indexAllocs = readRuntime().mallocs - r0.mallocs
	if traced {
		p.bufs[0].record(spanResultset, 0, t, end)
	}
	return p, nil
}

// probeSample is how many hosts the tlssim/httpsim probe visits.
const probeSample = 1000

// probeTLS calls tlssim.ClientHandshake and httpsim.Get directly on a
// seeded sample of hosts that served https in the scan. Allocation counts
// come from differencing whole passes — dial only, dial and handshake,
// dial, handshake and GET — so they include the world's server side.
func probeTLS(ctx context.Context, o *outcome, w *world.World, base *scanner.Scanner, results []scanner.Result, seed int64) error {
	var pool []int
	for i := range results {
		if results[i].ServesHTTPS {
			pool = append(pool, i)
		}
	}
	if len(pool) == 0 {
		return fmt.Errorf("probe: no host served https")
	}
	rng := rand.New(rand.NewSource(seed))
	sample := make([]int, probeSample)
	for i := range sample {
		sample[i] = pool[rng.Intn(len(pool))]
	}
	handshakeLat := make([]time.Duration, 0, len(sample))
	getLat := make([]time.Duration, 0, len(sample))
	pass := func(stage int) (uint64, error) {
		r0 := readRuntime()
		for _, i := range sample {
			host := results[i].Hostname
			conn, err := w.Net.Dial(ctx, base.Cfg.Vantage, netip.AddrPortFrom(results[i].IP, 443))
			if err != nil {
				return 0, fmt.Errorf("probe dial %s: %w", host, err)
			}
			if stage >= 1 {
				ccfg := tlssim.DefaultClientConfig(host)
				ccfg.HandshakeTimeout = base.Cfg.Timeout
				ccfg.Clock = base.Cfg.Clock
				ccfg.ChainCache = base.Cfg.ChainCache
				t := now()
				tc, err := tlssim.ClientHandshake(conn, ccfg)
				d := since(t)
				if err != nil {
					conn.Close()
					return 0, fmt.Errorf("probe handshake %s: %w", host, err)
				}
				if stage == 2 {
					handshakeLat = append(handshakeLat, d)
					t = now()
					resp, err := httpsim.Get(tc, host, "/")
					getLat = append(getLat, since(t))
					if err != nil || resp.StatusCode != 200 {
						conn.Close()
						return 0, fmt.Errorf("probe GET %s: %v", host, err)
					}
				}
			}
			conn.Close()
		}
		return readRuntime().mallocs - r0.mallocs, nil
	}
	var allocs [3]uint64
	for stage := range allocs {
		a, err := pass(stage)
		if err != nil {
			return err
		}
		allocs[stage] = a
	}
	sortDurations(handshakeLat)
	sortDurations(getLat)
	n := float64(len(sample))
	o.metrics["tlssim.handshake_p50_us"] = metric{us(percentile(handshakeLat, 50)), "us"}
	o.metrics["tlssim.allocs_per_handshake"] = metric{(float64(allocs[1]) - float64(allocs[0])) / n, "allocs"}
	o.metrics["httpsim.get_p50_us"] = metric{us(percentile(getLat, 50)), "us"}
	o.metrics["httpsim.allocs_per_get"] = metric{(float64(allocs[2]) - float64(allocs[1])) / n, "allocs"}
	return nil
}
