#!/bin/sh
# serve_smoke.sh — end-to-end gate for the serving layer (make serve-smoke).
#
# Builds the CLI, starts `mte4jni serve` on an ephemeral port with the full
# 64-session pool, drives it with `mte4jni load` (a mixed run with injected
# faults, a 64-worker full-capacity burst, an admission-screening run, and
# the injected store under none and guarded copy), and checks that the
# daemon shuts down cleanly on SIGTERM; then does the same for three more
# daemons: the execution-context spine, temporal screening, and 8 admission
# shards (closed-loop and open-loop SLO-gated runs). The load generator
# fails on any verdict mismatch or metrics discrepancy, so a zero exit here
# means: every injected store met its scheme's outcome, no clean request
# faulted, and the server-side counters reconcile with what was sent.
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d)"
BIN="$TMP/mte4jni"
NAME=serve-smoke
. "$(dirname "$0")/daemon.sh"
trap daemon_cleanup EXIT INT TERM

"$GO" build -o "$BIN" ./cmd/mte4jni

start_daemon main -sessions 64 -heap-mb 16

# Mixed run: 50 requests, every 10th a deliberately-faulting OOB probe.
# The load generator reconciles the *change* in /metrics over each run, so
# every run below gets the full reconciliation even on a warm server.
"$BIN" load -url "$URL" -n 50 -c 8 -fault-every 10

# Full-capacity burst: 64 concurrent workers saturating all 64 sessions,
# with faults sprinkled in.
"$BIN" load -url "$URL" -n 192 -c 64 -fault-every 16

# Admission-screen run: every 4th request submits a known provably-faulting
# inline program that must come back 422-with-verdict without consuming a
# session (-reject-rate wins over -fault-every on overlapping indices:
# 15 rejects, 3 injected faults, 45 executed requests). The generator
# reconciles the screening counters (screened/rejected/cache-hit) too.
"$BIN" load -url "$URL" -n 60 -c 8 -fault-every 10 -reject-rate 4

# Optional cross-check of the cumulative counters (50+192+45 executed
# requests, 5+12+3 faults, 15 screenings all rejected) when curl is
# available; the per-run delta reconciles above already gated the plumbing.
# The 45+180+42 = 267 canned-safe executions each ran proof-carrying with
# exactly one guard-free site, and none may have fallen back to checked.
if command -v curl >/dev/null 2>&1; then
	# Of the 15 screenings, the 5 reject_forge submissions each carry a
	# window-risk temporal finding (the forged store's damage window); under
	# the default reject policy none is a *temporal* rejection because the
	# fault screen already turned them away.
	check_metrics '"requests_total":287' '"faults_total":20' '"quarantined":20' \
		'"screened_total":15' '"screen_rejected_total":15' \
		'"temporal_flagged_total":5' '"temporal_window_risk_total":5' \
		'"temporal_rejected_total":0' \
		'"elided_sites_total":267' '"elision_invalidated_total":0'

	# Hierarchical tag-storage reconciliation. The warm pool still holds live
	# sessions here, so: the counters must be present, the workloads must have
	# exercised both lazy paths (materializations from partial-page object
	# tagging, zero-dedup from fresh mappings), and the two-level table must
	# be paying >=10x less than the flat tag array would for the same
	# mappings — the headline claim of this storage design.
	check_metrics '"tag_pages_materialized_total":' '"tag_pages_uniform_total":' \
		'"tag_zero_dedup_hits_total":' '"tag_bytes_resident":' '"tag_bytes_flat_equiv":'
	materialized="$(sed -n 's/.*"tag_pages_materialized_total":\([0-9]*\).*/\1/p' "$METRICS")"
	dedup="$(sed -n 's/.*"tag_zero_dedup_hits_total":\([0-9]*\).*/\1/p' "$METRICS")"
	resident="$(sed -n 's/.*"tag_bytes_resident":\([0-9]*\).*/\1/p' "$METRICS")"
	flat="$(sed -n 's/.*"tag_bytes_flat_equiv":\([0-9]*\).*/\1/p' "$METRICS")"
	if [ "${materialized:-0}" -eq 0 ] || [ "${dedup:-0}" -eq 0 ]; then
		echo "serve-smoke: tag-storage counters did not move (materialized=$materialized dedup=$dedup)" >&2
		cat "$METRICS" >&2
		exit 1
	fi
	if [ "${resident:-0}" -eq 0 ] || [ "${flat:-0}" -lt $((resident * 10)) ]; then
		echo "serve-smoke: tag residency not >=10x under flat (resident=$resident flat=$flat)" >&2
		cat "$METRICS" >&2
		exit 1
	fi

	# Paged data plane, the same claim for heap bytes: the workloads must have
	# materialized data pages, and the live sessions must hold >=10x less
	# data memory than their mapped heaps (what eagerly zeroed heaps held).
	check_metrics '"data_pages_materialized_total":' '"data_bytes_resident":' '"data_bytes_mapped":'
	dmaterialized="$(sed -n 's/.*"data_pages_materialized_total":\([0-9]*\).*/\1/p' "$METRICS")"
	dresident="$(sed -n 's/.*"data_bytes_resident":\([0-9]*\).*/\1/p' "$METRICS")"
	dmapped="$(sed -n 's/.*"data_bytes_mapped":\([0-9]*\).*/\1/p' "$METRICS")"
	if [ "${dmaterialized:-0}" -eq 0 ] || [ "${dresident:-0}" -eq 0 ] || [ "${dmapped:-0}" -lt $((dresident * 10)) ]; then
		echo "serve-smoke: data residency not >=10x under mapped (materialized=$dmaterialized resident=$dresident mapped=$dmapped)" >&2
		cat "$METRICS" >&2
		exit 1
	fi
fi

# The same illicit one-past-the-end store under the two schemes without
# tags: with no protection it lands silently (200, ok, ret 42), and guarded
# copy only finds the smashed canary at release (200, ok:false, an error
# naming RuntimeException, +1 errors_total, no fault and no quarantine).
# Both run after the cumulative pins above, which they would move.
"$BIN" load -url "$URL" -n 40 -c 8 -scheme none -fault-every 10
"$BIN" load -url "$URL" -n 40 -c 8 -scheme guarded -fault-every 10

# Graceful shutdown: SIGTERM must produce a clean exit 0.
stop_daemon

# --- Execution-context spine: cancellation and deadline run -----------------
# A second instance with the spine's budgets enabled: a 400ms per-request
# wall-clock deadline and a deliberately huge step budget, so runaway
# programs are cut off by -run-timeout, never by fuel. The load run injects
# client disconnects (-cancel-rate) and runaway programs the deadline must
# kill (-deadline-rate) alongside faults and screen rejects; the generator
# reconciles canceled_total/deadline_exceeded_total exactly and fails if any
# lease leaks (pool.leased != 0 after the drain).
start_daemon spine -sessions 8 -heap-mb 16 \
	-run-timeout 400ms -step-budget $((1 << 40)) -shutdown-timeout 5s

# 40 requests: 8 client-canceled runaways, 4 deadline-killed runaways,
# 3 screen rejects, 4 injected faults (precedence reject > cancel >
# deadline > fault keeps the classes disjoint at these rates).
"$BIN" load -url "$URL" -n 40 -c 8 -fault-every 9 -reject-rate 11 \
	-cancel-rate 5 -deadline-rate 7

# Cross-check the abort counters and the lease ledger cumulatively.
check_metrics '"canceled_total":8' '"deadline_exceeded_total":4' \
	'"leased":0' '"quarantined":4' \
	'"elided_sites_total":21' '"elision_invalidated_total":0'
stop_daemon

# --- Temporal screening: admission-policy run -------------------------------
# A third instance under the default -temporal-policy reject, driven purely
# with the red-team temporal corpus (-temporal-rate 1): 12 submissions cycle
# 3x through async-window/damage and gc-race/scan-window (under async) and
# guardedcopy/oob-read and guardedcopy/lost-update (under guarded). All 12
# are flagged with their window class; 9 are provable faults the screen
# rejects, and the 3 lost-update submissions — clean to the fault screen —
# are rejected by the temporal policy with the full provenance chain. The
# load generator reconciles every temporal counter delta exactly; the greps
# below pin the cumulative values.
start_daemon temporal -sessions 4 -heap-mb 16 -temporal-policy reject

"$BIN" load -url "$URL" -n 12 -c 4 -temporal-rate 1

check_metrics '"temporal_flagged_total":12' '"temporal_window_risk_total":3' \
	'"temporal_scan_race_total":3' '"temporal_guardedcopy_blindspot_total":6' \
	'"temporal_rejected_total":3' \
	'"screened_total":12' '"screen_rejected_total":9' \
	'"requests_total":0' '"faults_total":0'
stop_daemon

# --- Sharded admission: per-shard reconciliation and open-loop SLO runs -----
# A fourth instance with the pool split into 8 admission shards. The load
# generator reads the shard count from the /metrics baseline and picks 32
# tenants whose affinity keys spread 4-per-shard by construction
# (-tenants 32), so 128 requests land 16 on each shard; it then reconciles
# the per-shard counters exactly — the sum of shard_leases_total must equal
# created+reused, sheds must equal the pool's rejected counter, every shard
# must end with zero leased and zero waiters, and no shard may exceed 2x
# the mean lease count under this uniform load.
start_daemon sharded -sessions 64 -shards 8 -heap-mb 16

"$BIN" load -url "$URL" -n 128 -c 16 -tenants 32

check_metrics '"shard_leases_total"' '"shard_steals_total"' '"shard_shed_total"' \
	'"requests_total":128'

# Open-loop Poisson arrivals at 400 req/s over one tenant per shard, with
# the same per-shard reconciliation; the load generator gates on an exact
# p99 <= 2s and writes the JSON report checked below.
REPORT="$TMP/report.json"
"$BIN" load -url "$URL" -n 120 -c 8 -rate 400 -tenants 8 -slo-p99 2s -report "$REPORT"

for want in '"p99_ns"' '"p999_ns"' '"slo_p99_met": true' '"open_loop": true' \
	'"safe": 120'; do
	if ! grep -q "$want" "$REPORT"; then
		echo "serve-smoke: load report missing $want:" >&2
		cat "$REPORT" >&2
		exit 1
	fi
done

# Graceful shutdown runs the per-shard drain assertion: a nonzero lease
# ledger on any shard turns into a nonzero daemon exit here.
stop_daemon

# --- Shard-scaling gate -----------------------------------------------------
# The pool throughput bench rows (pool/Throughput/shards=N, each the fastest
# of five runs) isolate the admission path. Two gates: unconditionally, 8
# shards must never be worse than 2x one shard (the split must not add
# cost); and when the host has >= 4 CPUs, 8 shards must be at least 2x
# faster than 1 (the lock split must actually scale). On fewer cores the
# speedup gate is skipped, and says so.
BENCH="$TMP/bench.json"
"$GO" test -run '^$' -bench Throughput -benchtime 20ms -count 5 ./internal/pool >"$TMP/bench.txt"
"$BIN" bench -parse "$TMP/bench.txt" -o "$BENCH"
row_ns() {
	awk -F': ' -v name="$1" '
		index($0, "\"" name "\"") { f = 1 }
		f && /"ns_per_op"/ { gsub(/,/, "", $2); print $2; exit }
	' "$BENCH"
}
NS1="$(row_ns "pool/Throughput/shards=1")"
NS8="$(row_ns "pool/Throughput/shards=8")"
if [ -z "$NS1" ] || [ -z "$NS8" ]; then
	echo "serve-smoke: bench snapshot missing pool/Throughput rows" >&2
	exit 1
fi
if ! awk -v a="$NS8" -v b="$NS1" 'BEGIN{exit !(a <= 2*b)}'; then
	echo "serve-smoke: shards=8 admission ($NS8 ns/op) is worse than 2x shards=1 ($NS1 ns/op)" >&2
	exit 1
fi
CPUS="$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN) | head -n1)"
if [ "${CPUS:-1}" -ge 4 ]; then
	if ! awk -v a="$NS8" -v b="$NS1" 'BEGIN{exit !(2*a <= b)}'; then
		echo "serve-smoke: shards=8 ($NS8 ns/op) is not >=2x faster than shards=1 ($NS1 ns/op) on $CPUS CPUs" >&2
		exit 1
	fi
	echo "serve-smoke: shard scaling shards=1 $NS1 ns/op -> shards=8 $NS8 ns/op (>=2x gate on $CPUS CPUs)"
else
	echo "serve-smoke: shard scaling speedup gate skipped (it needs >= 4 CPUs, this host has $CPUS); non-regression held (shards=1 $NS1 ns/op, shards=8 $NS8 ns/op)"
fi

echo "serve-smoke: ok (287 + 37 requests, 24 injected faults detected, 80 none/guarded requests with 4 silent stores and 4 canary errors at release, 18 bad programs screened out, 8 cancels + 4 deadlines reconciled, 267 + 21 guard-free sites with zero proof invalidations, tag and data residency >=10x under flat and mapped, 12 temporal corpus programs flagged with 3 policy rejections, 128 closed-loop + 120 open-loop requests reconciled exactly across 8 shards under the p99 SLO, clean shutdown)"
