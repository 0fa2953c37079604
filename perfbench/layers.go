package main

// metricDef is a reported metric's name and unit, as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// each of them; README.md maps them onto the workload-specific names
// (scan.hosts_per_s, survey.wall_s, serve.max_qps, ...).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"latency_ms", "ms"},
}

// perLayer lists the metrics of a traced run. Every traced run reports
// each of them; a workload's traced pass must measure exactly the metrics
// its list below names, and the rest read 0.
var perLayer = []metricDef{
	{"world.build_s", "s"},
	{"dnssim.lookups", "count"},
	{"dnssim.busy_ms", "ms"},
	{"simnet.dials", "count"},
	{"simnet.dial_busy_ms", "ms"},
	{"simnet.read_wait_ms", "ms"},
	{"simnet.bytes", "bytes"},
	{"tlssim.handshake_p50_us", "us"},
	{"tlssim.allocs_per_handshake", "allocs"},
	{"httpsim.get_p50_us", "us"},
	{"httpsim.allocs_per_get", "allocs"},
	{"verify.busy_ms", "ms"},
	{"verify.cache_hit_ratio", "share"},
	{"cert.chain_dedup_ratio", "share"},
	{"scanner.host_p50_us", "us"},
	{"scanner.host_p99_us", "us"},
	{"scanner.self_ms", "ms"},
	{"scanner.attempts_per_host", "attempts/host"},
	{"scan.allocs_per_host", "allocs/host"},
	{"resultset.build_ms", "ms"},
	{"resultset.allocs_per_host", "allocs/host"},
	{"dataset.build_ms.worldwide", "ms"},
	{"dataset.build_ms.usa_keys", "ms"},
	{"dataset.build_ms.usa_all", "ms"},
	{"dataset.build_ms.rok", "ms"},
	{"dataset.build_ms.acmefleet", "ms"},
	{"dataset.patch_p50_ms", "ms"},
	{"dataset.patch_max_ms", "ms"},
	{"dataset.pinned_after", "count"},
	{"core.suite_seq_s", "s"},
	{"core.parallel_gain", "ratio"},
	{"report.exp_ms.T2", "ms"},
	{"report.exp_ms.F5", "ms"},
	{"report.exp_ms.F6", "ms"},
	{"report.exp_ms.FA4", "ms"},
	{"report.exp_ms.E4", "ms"},
	{"report.exp_ms.S722", "ms"},
	{"report.exp_ms.other", "ms"},
	{"report.exp_ms.E7", "ms"},
	{"acmefleet.renewals", "count"},
	{"acmefleet.allocs_per_renewal", "allocs"},
	{"serve.hit_ratio", "share"},
	{"serve.fills", "count"},
	{"serve.waits", "count"},
	{"serve.evictions", "count"},
	{"serve.rejected", "count"},
	{"serve.handler_p50_us.aggregate", "us"},
	{"serve.handler_p50_us.host", "us"},
	{"serve.handler_p50_us.export", "us"},
	{"serve.handler_p99_us.aggregate", "us"},
	{"serve.handler_p99_us.host", "us"},
	{"serve.handler_p99_us.export", "us"},
	{"serve.allocs_per_req", "allocs"},
	{"serve.p50_us.r20k", "us"},
	{"serve.p99_us.r20k", "us"},
	{"serve.gen_late_p99_us", "us"},
	{"serve.error_share", "share"},
	{"observatory.rescans", "count"},
	{"observatory.deferred", "count"},
	{"observatory.alerts", "count"},
	{"observatory.allocs_per_rescan", "allocs"},
	{"ctlog.entries_tailed", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.cpu_share", "share"},
	{"trace.overhead", "ratio"},
}

// The per-layer metrics each workload's traced pass measures.
var (
	scanLayers = []string{
		"world.build_s", "gc.cycles", "gc.pause_ms", "gc.cpu_share", "trace.overhead",
		"dnssim.lookups", "dnssim.busy_ms",
		"simnet.dials", "simnet.dial_busy_ms", "simnet.read_wait_ms", "simnet.bytes",
		"tlssim.handshake_p50_us", "tlssim.allocs_per_handshake",
		"httpsim.get_p50_us", "httpsim.allocs_per_get",
		"verify.busy_ms", "verify.cache_hit_ratio", "cert.chain_dedup_ratio",
		"scanner.host_p50_us", "scanner.host_p99_us", "scanner.self_ms",
		"scanner.attempts_per_host", "scan.allocs_per_host",
		"resultset.build_ms", "resultset.allocs_per_host",
	}
	surveyLayers = []string{
		"world.build_s", "gc.cycles", "gc.pause_ms", "gc.cpu_share", "trace.overhead",
		"dataset.build_ms.worldwide", "dataset.build_ms.usa_keys", "dataset.build_ms.usa_all",
		"dataset.build_ms.rok", "dataset.build_ms.acmefleet",
		"core.suite_seq_s", "core.parallel_gain",
		"report.exp_ms.T2", "report.exp_ms.F5", "report.exp_ms.F6", "report.exp_ms.FA4",
		"report.exp_ms.E4", "report.exp_ms.S722", "report.exp_ms.other", "report.exp_ms.E7",
		"acmefleet.renewals", "acmefleet.allocs_per_renewal",
	}
	serveLayers = []string{
		"world.build_s", "gc.cycles", "gc.pause_ms", "gc.cpu_share", "trace.overhead",
		"serve.hit_ratio", "serve.fills", "serve.waits", "serve.evictions", "serve.rejected",
		"serve.handler_p50_us.aggregate", "serve.handler_p50_us.host", "serve.handler_p50_us.export",
		"serve.handler_p99_us.aggregate", "serve.handler_p99_us.host", "serve.handler_p99_us.export",
		"serve.allocs_per_req", "serve.p50_us.r20k", "serve.p99_us.r20k",
		"serve.gen_late_p99_us", "serve.error_share",
		"dataset.patch_p50_ms", "dataset.patch_max_ms", "dataset.pinned_after",
	}
	// observeLayers has no trace.overhead: the observatory builds its own
	// scanner, so its pass is read from counters and carries no tracing.
	observeLayers = []string{
		"world.build_s", "gc.cycles", "gc.pause_ms", "gc.cpu_share",
		"simnet.dials",
		"observatory.rescans", "observatory.deferred", "observatory.alerts",
		"observatory.allocs_per_rescan", "ctlog.entries_tailed",
	}
)
