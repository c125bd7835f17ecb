#!/bin/sh
# redteam_smoke.sh — end-to-end gate for the adversarial red-team layer
# (make redteam-smoke).
#
# Two stages:
#
#  1. Offline campaign: `mte4jni redteam` runs the full attack corpus
#     (brute-force sweeps, async damage windows, GC-scan races, the §2.3
#     guarded-copy blind-spot exploits) against every scheme. The command
#     self-gates — it exits nonzero when the empirical brute-force
#     detection probability drifts from the analytic 15/16-per-probe model
#     or a blind-spot exploit lands as a silent undetected success — so a
#     zero exit already certifies the coverage report. The greps below only
#     pin the headline facts into this log.
#
#  2. Serving tier under attack: `mte4jni serve` with the escalating
#     defense enabled (throttle after 2 detected faults, quarantine after
#     4), driven by `mte4jni load -attack-rate`. The load generator
#     replicates the escalation state machine client-side and exits nonzero
#     unless every verdict (200-detected / throttled / 429-refused) and
#     every /metrics delta (attack_probes, detections, throttled, reseeds,
#     tenants_quarantined) reconciles exactly with what it sent.
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d)"
BIN="$TMP/mte4jni"
REPORT="$TMP/redteam.json"
NAME=redteam-smoke
. "$(dirname "$0")/daemon.sh"
trap daemon_cleanup EXIT INT TERM

"$GO" build -o "$BIN" ./cmd/mte4jni

# --- Stage 1: offline campaign ----------------------------------------------
# 24 trials per (attack, scheme) pair is enough for the randomized rows to
# sit within the default 5% tolerance of 15/16 while keeping this fast; the
# sequential rows are checked for exact equality regardless of trial count.
"$BIN" redteam -trials 24 -seed 1 >"$REPORT"

# The command exiting 0 means rep.Pass — but pin the two headline gates
# explicitly so a report-shape regression can't silently weaken the check.
for want in '"pass": true' '"blind_spots_accounted": true'; do
	if ! grep -q "$want" "$REPORT"; then
		echo "redteam-smoke: campaign report missing $want:" >&2
		cat "$REPORT" >&2
		exit 1
	fi
done
# The sequential 16-guess sweep detects exactly 15 of 16 probes — zero
# variance, so its detection probability is the literal 0.9375.
if ! grep -q '"detection_probability": 0.9375' "$REPORT"; then
	echo "redteam-smoke: no brute-force row at the exact 15/16 rate:" >&2
	cat "$REPORT" >&2
	exit 1
fi

# --- Stage 2: serving tier under attack -------------------------------------
start_daemon defense -sessions 4 -heap-mb 2 \
	-attack-delay-threshold 2 -attack-quarantine-threshold 4 \
	-attack-delay 200us

# 40 requests, every 3rd an attack probe from tenant "redteam" (13 attacks).
# With thresholds 2/4: attacks 1-2 admitted, 3-4 throttled then admitted
# (all 4 detected, faulting, quarantining their session), attacks 5-13
# refused with 429. The generator predicts each verdict from its own replica
# of the escalation ladder and reconciles the /metrics deltas exactly.
"$BIN" load -url "$URL" -n 40 -c 1 -attack-rate 3 \
	-attack-delay-threshold 2 -attack-quarantine-threshold 4

# Cross-check the cumulative counters when curl is available (the per-run
# delta reconciliation above already gated the plumbing): 31 executed
# requests (40 - 9 refused), 4 detected probes = 4 faults = 4 quarantined
# sessions, 2 throttled admissions, 2 tier crossings (reseeds), 1 tenant
# quarantined, and a detection probability of exactly 1 for the serving
# probe's deterministic forged store.
check_metrics '"requests_total":31' '"attack_probes_total":4' \
	'"detections_total":4' '"faults_total":4' '"quarantined":4' \
	'"throttled_total":2' '"reseeds_total":2' \
	'"tenants_quarantined_total":1' \
	'"detection_probability":1' '"probes_to_detect_buckets"'
stop_daemon

echo "redteam-smoke: ok (campaign passed the 15/16 model + blind-spot gates; 13 attacks -> 4 detected, 2 throttled, 9 refused, 2 reseeds reconciled exactly)"
