#!/usr/bin/env bash
# bench_scan.sh — run the scan-path benchmarks and emit BENCH_scan.json
# comparing the current tree against the recorded pre-overhaul baselines.
#
# The baselines were measured on the same class of host the CI bench job
# uses (one core, default GOVHTTPS_BENCH_SCALE=0.05): the scan-path numbers
# at the commit before the throughput overhaul (verify cache, worker-pool
# ScanAll, batched journal, parallel world build), and JSONExport allocs
# at the commit before the zero-copy exporter.
#
# The aggregation pair (AggregateIndexed vs AggregateLegacy) re-derives
# its baseline from the same run on the same commit, so the table can't
# silently compare different workloads. ReportSuite (the 36-experiment
# suite) has one code path and no baseline: it is recorded as ns/op only.
#
# Incremental-patch honesty: ApplyDelta vs the full rebuild (reassemble
# the corpus, index it with resultset.New) is measured at the default
# scale and at GOVHTTPS_BENCH_SCALE=1.0 (135,309 hosts, the paper's
# population) and k ∈ {100, 1000, 10000} dirty hosts, recording the
# per-k speedup and the crossover k (the smallest k where the rebuild wins
# back; 0 when the delta wins everywhere measured). The observatory
# section records the continuous loop's wall clock and re-scan throughput.
#
# Serve: the query API is measured through the deterministic load
# generator at clients ∈ {1, 4, 16} for three mixes — cached aggregates,
# uncached aggregates, and streaming JSONL export — recording qps,
# p50/p99 latency, and allocs per request (allocs/op ÷ req/op).
#
# The job fails (non-zero exit) if:
#   - JSONExport allocates more per op than the recorded pre-rewrite
#     baseline: the zero-copy exporter must not regress back toward
#     reflection-based encoding; or
#   - at the full scale, ApplyDelta with k=100 dirty hosts of the
#     ~135k corpus is not at least 5x faster than the full rebuild:
#     that margin is the reason dataset.Registry.patch reroutes through
#     the delta at all; or
#   - a cached serve query costs more than serve_allocs_budget allocations
#     per request at clients=1: the read-through cache exists so steady-
#     state hits stay off the aggregation path, and an allocation
#     regression there multiplies by every request the API serves.
#
# Usage: scripts/bench_scan.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_scan.json}"
gomaxprocs="${GOMAXPROCS:-$(nproc)}"
full_scale="1.0"

# One `go test` process per benchmark: heap state left behind by one
# benchmark (a worldwide scan leaves ~70 MB of results) skews the GC
# behaviour of the next, and the baselines were recorded per-benchmark.
#
# AggregateIndexed/AggregateLegacy measure the aggregation layer itself
# over one shared pre-collected result slice (the scan runs outside every
# timed region): the one-shot indexed build and the per-experiment loops
# the analysis layer ran before the dataset-registry refactor.
raw=""
for b in ScanWorldwide WorldBuild ScanSingleHost JSONExport ReportSuite AggregateIndexed AggregateLegacy RenewalFleet ApplyDelta ApplyDeltaRebuild Observatory ServeQuery ServeQueryUncached ServeExport; do
    raw+="$(go test -run '^$' -bench "^Benchmark${b}\$" -benchmem -count "${BENCH_COUNT:-3}" .)"
    raw+=$'\n'
done

# Second pass at the full scale: the world is 20x larger, so only the
# benchmarks the delta gate needs rerun.
raw+="=== full scale ==="$'\n'
for b in ApplyDelta ApplyDeltaRebuild; do
    raw+="$(GOVHTTPS_BENCH_SCALE=$full_scale go test -run '^$' -bench "^Benchmark${b}\$" -benchmem -count "${BENCH_COUNT:-3}" .)"
    raw+=$'\n'
done
printf '%s\n' "$raw"

printf '%s\n' "$raw" | awk -v out="$out" -v gmp="$gomaxprocs" -v fullscale="$full_scale" '
BEGIN {
    # ns/op at the recorded seed commits (one core, scale 0.05).
    base["ScanWorldwide"]  = 635628502
    base["WorldBuild"]     = 22436147
    base["ScanSingleHost"] = 101503
    base["JSONExport"]     = 8780592
    # allocs/op of the reflection-based JSON exporter before the
    # zero-copy rewrite; the gate below fails the job on regression.
    base_allocs["JSONExport"] = 18658
    order[1] = "ScanWorldwide"; order[2] = "WorldBuild"
    order[3] = "ScanSingleHost"; order[4] = "JSONExport"
    nOrder = 4
    patchKs = "100 1000 10000"
    serveClients = "1 4 16"
    # Allocations allowed per cached serve request at clients=1 (measured
    # ~8.0 at the gate commit; the budget leaves margin for noise, not
    # for a reflection- or map-allocating regression).
    serve_allocs_budget = 10.0
    pfx = ""
}
/^=== full scale ===$/ { pfx = "full:"; next }
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    name = pfx name
    # Walk value/unit pairs so benchmarks with extra ReportMetric columns
    # (renewals/op, hosts/op) parse the same as plain -benchmem lines. Keep
    # the best of -count runs: least interference from the host.
    for (i = 3; i < NF; i += 2) {
        v = $(i) + 0
        u = $(i + 1)
        if (u == "ns/op" && (!(name in cur) || v < cur[name])) cur[name] = v
        else if (u == "allocs/op" && (!(name in allocs) || v < allocs[name])) allocs[name] = v
        else if (u == "renewals/op") renewals[name] = v
        else if (u == "rescans/op") rescans[name] = v
        else if (u == "hosts/op") hosts[name] = v
        else if (u == "req/op") reqs[name] = v
        else if (u == "p50-ns" && (!(name in p50) || v < p50[name])) p50[name] = v
        else if (u == "p99-ns" && (!(name in p99) || v < p99[name])) p99[name] = v
        else if (u == "qps" && v > qps[name]) qps[name] = v
    }
}
# serveBlock emits one serve-mix JSON object: per-client-count ns/op,
# throughput, latency percentiles, and allocs per request.
function serveBlock(bench,    i, n, cl, nm, sep) {
    n = split(serveClients, cl, " ")
    sep = ""
    for (i = 1; i <= n; i++) {
        nm = bench "/clients=" cl[i]
        printf "%s\n      \"%s\": {", sep, cl[i] > out
        printf "\n        \"ns_per_op\": %d,", cur[nm] > out
        printf "\n        \"requests_per_op\": %d,", reqs[nm] > out
        printf "\n        \"qps\": %.0f,", qps[nm] > out
        printf "\n        \"p50_ns\": %d,", p50[nm] > out
        printf "\n        \"p99_ns\": %d,", p99[nm] > out
        printf "\n        \"allocs_per_req\": %.1f", (reqs[nm] > 0 ? allocs[nm] / reqs[nm] : 0) > out
        printf "\n      }" > out
        sep = ","
    }
    printf "\n" > out
}
# patchBlock emits one incremental_patch JSON object for prefix p at scale
# s: ApplyDelta vs the full rebuild per dirty-set size k, the k=100
# speedup via the global k100Of[p], and the crossover k (smallest measured
# k where the rebuild wins, 0 if the delta wins everywhere). Skipped ks
# (k >= corpus at the small scale) are omitted.
function patchBlock(p, s, gated,    i, n, kc, d, rb, sp, sep) {
    printf "    \"scale\": %s,\n", s > out
    printf "    \"hosts\": %d,\n", hosts[p "ApplyDelta/k=100"] > out
    printf "    \"delta_ns_per_op\": {" > out
    n = split(patchKs, kc, " ")
    sep = ""
    for (i = 1; i <= n; i++) {
        if (!((p "ApplyDelta/k=" kc[i]) in cur)) continue
        printf "%s\n      \"%s\": %d", sep, kc[i], cur[p "ApplyDelta/k=" kc[i]] > out
        sep = ","
    }
    printf "\n    },\n    \"rebuild_ns_per_op\": {" > out
    sep = ""
    for (i = 1; i <= n; i++) {
        if (!((p "ApplyDeltaRebuild/k=" kc[i]) in cur)) continue
        printf "%s\n      \"%s\": %d", sep, kc[i], cur[p "ApplyDeltaRebuild/k=" kc[i]] > out
        sep = ","
    }
    printf "\n    },\n    \"speedup_vs_rebuild\": {" > out
    k100Of[p] = 0; patchCross[p] = 0
    sep = ""
    for (i = 1; i <= n; i++) {
        d = cur[p "ApplyDelta/k=" kc[i]]
        rb = cur[p "ApplyDeltaRebuild/k=" kc[i]]
        if (d == 0 || rb == 0) continue
        sp = rb / d
        if (kc[i] == "100") k100Of[p] = sp
        if (sp < 1.0 && patchCross[p] == 0) patchCross[p] = kc[i]
        printf "%s\n      \"%s\": %.2f", sep, kc[i], sp > out
        sep = ","
    }
    printf "\n    },\n    \"crossover_k\": %d,\n", patchCross[p] > out
    printf "    \"gate_enforced\": %s\n", gated > out
}
END {
    printf "{\n  \"scale\": %s,\n", (ENVIRON["GOVHTTPS_BENCH_SCALE"] != "" ? ENVIRON["GOVHTTPS_BENCH_SCALE"] : "0.05") > out
    printf "  \"baseline_ns_per_op\": {" > out
    for (i = 1; i <= nOrder; i++)
        printf "%s\n    \"%s\": %d", (i > 1 ? "," : ""), order[i], base[order[i]] > out
    printf "\n  },\n  \"current_ns_per_op\": {" > out
    for (i = 1; i <= nOrder; i++)
        printf "%s\n    \"%s\": %d", (i > 1 ? "," : ""), order[i], cur[order[i]] > out
    printf "\n  },\n  \"speedup\": {" > out
    for (i = 1; i <= nOrder; i++)
        printf "%s\n    \"%s\": %.2f", (i > 1 ? "," : ""), order[i],
            (cur[order[i]] > 0 ? base[order[i]] / cur[order[i]] : 0) > out
    # Aggregation pair: the legacy per-experiment loops are the baseline,
    # measured live in the same run rather than hard-coded.
    printf "\n  },\n  \"aggregation\": {\n" > out
    printf "    \"indexed_ns_per_op\": %d,\n", cur["AggregateIndexed"] > out
    printf "    \"legacy_ns_per_op\": %d,\n", cur["AggregateLegacy"] > out
    printf "    \"speedup\": %.2f\n", (cur["AggregateIndexed"] > 0 ? cur["AggregateLegacy"] / cur["AggregateIndexed"] : 0) > out
    # Report suite: the full 36-experiment pipeline, one registry-order
    # loop on a fresh study per op.
    printf "  },\n  \"report_suite\": {\n" > out
    printf "    \"gomaxprocs\": %d,\n", gmp > out
    printf "    \"ns_per_op\": %d\n", cur["ReportSuite"] > out
    # Incremental patch at the default scale: recorded for the curve, the
    # gate reads the full-scale block (the corpus the 5x claim is about).
    printf "  },\n  \"incremental_patch\": {\n" > out
    patchBlock("", (ENVIRON["GOVHTTPS_BENCH_SCALE"] != "" ? ENVIRON["GOVHTTPS_BENCH_SCALE"] : "0.05"), "false")
    printf "  },\n  \"incremental_patch_full_scale\": {\n" > out
    patchBlock("full:", fullscale, "true")
    # Observatory: wall clock and re-scan throughput of the continuous
    # loop (20 virtual ticks, churn-injected private world per op).
    printf "  },\n  \"observatory\": {\n" > out
    printf "    \"ns_per_op\": %d,\n", cur["Observatory"] > out
    printf "    \"rescans_per_op\": %d,\n", rescans["Observatory"] > out
    printf "    \"rescans_per_sec\": %.1f,\n", (cur["Observatory"] > 0 ? rescans["Observatory"] / (cur["Observatory"] / 1e9) : 0) > out
    printf "    \"allocs_per_op\": %d\n", allocs["Observatory"] > out
    # Renewal fleet: throughput of the §8.1 remediation loop (campaign
    # renewals per wall-clock second) plus its allocation footprint.
    printf "  },\n  \"renewal_fleet\": {\n" > out
    printf "    \"renewals_per_op\": %d,\n", renewals["RenewalFleet"] > out
    printf "    \"renewals_per_sec\": %.1f,\n", (cur["RenewalFleet"] > 0 ? renewals["RenewalFleet"] / (cur["RenewalFleet"] / 1e9) : 0) > out
    printf "    \"allocs_per_op\": %d\n", allocs["RenewalFleet"] > out
    # Serve: the query API through the deterministic load generator —
    # cached vs uncached vs streaming-export mixes at three client
    # counts. The cached allocs-per-request gate reads query_cached.
    printf "  },\n  \"serve\": {\n" > out
    printf "    \"gomaxprocs\": %d,\n", gmp > out
    printf "    \"query_cached\": {" > out
    serveBlock("ServeQuery")
    printf "    },\n    \"query_uncached\": {" > out
    serveBlock("ServeQueryUncached")
    printf "    },\n    \"export\": {" > out
    serveBlock("ServeExport")
    printf "    },\n    \"cache_speedup_clients_1\": %.2f,\n", (cur["ServeQuery/clients=1"] > 0 ? cur["ServeQueryUncached/clients=1"] / cur["ServeQuery/clients=1"] : 0) > out
    printf "    \"cached_allocs_per_req\": {\n" > out
    printf "      \"budget\": %.1f,\n", serve_allocs_budget > out
    printf "      \"current\": %.1f\n", (reqs["ServeQuery/clients=1"] > 0 ? allocs["ServeQuery/clients=1"] / reqs["ServeQuery/clients=1"] : 0) > out
    printf "    }\n" > out
    printf "  },\n  \"json_export_allocs_per_op\": {\n" > out
    printf "    \"baseline\": %d,\n", base_allocs["JSONExport"] > out
    printf "    \"current\": %d\n", allocs["JSONExport"] > out
    printf "  }\n}\n" > out
    if (allocs["JSONExport"] > base_allocs["JSONExport"]) {
        printf "FAIL: JSONExport allocs/op regressed: %d > baseline %d\n",
            allocs["JSONExport"], base_allocs["JSONExport"] > "/dev/stderr"
        exit 1
    }
    if (k100Of["full:"] < 5.0) {
        printf "FAIL: at the full scale (%s, %d hosts) ApplyDelta k=100 is only %.2fx the full rebuild (need >= 5.00)\n",
            fullscale, hosts["full:ApplyDelta/k=100"], k100Of["full:"] > "/dev/stderr"
        exit 1
    }
    servePerReq = (reqs["ServeQuery/clients=1"] > 0 ? allocs["ServeQuery/clients=1"] / reqs["ServeQuery/clients=1"] : 0)
    if (servePerReq > serve_allocs_budget) {
        printf "FAIL: cached serve query allocates %.1f per request at clients=1 (budget %.1f)\n",
            servePerReq, serve_allocs_budget > "/dev/stderr"
        exit 1
    }
}
'
echo "wrote $out"
