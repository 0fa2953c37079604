package lint

// DeterministicPackages are the packages whose output feeds the paper's
// tables and must be bit-identical across same-seed runs; maprange
// enforces ordered iteration inside them. World generation, scanning,
// verification, the ACME CA and renewal fleet, the dataset/result-set
// aggregation layer, the continuous-observatory loop, and the
// reporting/statistics layers all qualify: a single unordered map walk in
// any of them reorders RNG draws, index buckets, order dispatch, queue
// admissions, or report rows.
var DeterministicPackages = []string{
	"repro/internal/world",
	"repro/internal/scanner",
	"repro/internal/verify",
	"repro/internal/core",
	"repro/internal/acme",
	"repro/internal/acmefleet",
	"repro/internal/dataset",
	"repro/internal/resultset",
	"repro/internal/observatory",
	"repro/internal/report",
	"repro/internal/stats",
	"repro/internal/serve",
	"repro/internal/serve/loadgen",
}

// WallClockPackages are the packages whose business is genuinely the wall
// clock, exempt from walltime as a package rather than line by line:
// simclock implements the Real clock, and tlsprobe scans the actual
// Internet where elapsed wall time is the measurement.
var WallClockPackages = []string{
	"repro/internal/simclock",
	"repro/internal/tlsprobe",
}

// LongRunningPackages are the packages whose goroutines live for a whole
// suite run (the study, fleet dispatch, the dataset pool, the scan worker
// pool, the observatory loop, the query API and its load generator);
// chanleak polices their spawn sites.
var LongRunningPackages = []string{
	"repro/internal/core",
	"repro/internal/acmefleet",
	"repro/internal/dataset",
	"repro/internal/resultset",
	"repro/internal/scanner",
	"repro/internal/observatory",
	"repro/internal/serve",
	"repro/internal/serve/loadgen",
}

// HotPathFuncs is the declared zero-alloc hot set hotalloc enforces: the
// httpsim wire codecs, the scanner probe loop and zero-copy JSON
// exporter, the cert fingerprint/base64 encoders, the result-set build,
// and the per-connection wire layers (simnet pipes, tlssim records, the
// world's page writers). Additions here are a reviewed contract — a
// function joins the hot set when a bench gate depends on its allocation
// behavior.
var HotPathFuncs = []string{
	"repro/internal/httpsim.Read*",
	"repro/internal/httpsim.Write*",
	"repro/internal/httpsim.readPooled",
	"repro/internal/httpsim.readLine",
	"repro/internal/httpsim.readHeaders",
	"repro/internal/httpsim.headerKey",
	"repro/internal/httpsim.internToken",
	"repro/internal/httpsim.atoiBytes",
	"repro/internal/scanner.Scanner.probeHTTP",
	"repro/internal/scanner.Scanner.probeHTTPS",
	"repro/internal/scanner.Append*",
	"repro/internal/scanner.append*",
	"repro/internal/cert.Append*",
	"repro/internal/resultset.build",
	"repro/internal/serve.append*",
	"repro/internal/simnet.Pipe",
	"repro/internal/simnet.pipeBetween",
	"repro/internal/simnet.AppendEndpoint",
	"repro/internal/tlssim.readRecord",
	"repro/internal/tlssim.writeRecord",
	"repro/internal/world.World.writePage",
	"repro/internal/world.writeRedirect",
}

// DefaultAnalyzers is the invariant set enforced on this repository — the
// configuration behind `govlint ./...`, the CI lint job, and the
// repo-lints-clean smoke test.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Walltime(WallClockPackages...),
		GlobalRand(),
		MapRange(DeterministicPackages...),
		Exhaustive(),
		GoroutineOwner(),
		HotAlloc(HotPathFuncs...),
		ChanLeak(LongRunningPackages...),
	}
}
