# daemon.sh — start/stop helpers for the smoke scripts (POSIX sh, sourced).
#
# The sourcing script sets BIN (the mte4jni binary), TMP (a temporary
# directory) and NAME (the prefix of its messages), and has its EXIT trap
# call daemon_cleanup, which also removes TMP. One daemon runs at a time.
#
#   start_daemon INSTANCE [serve flags...]
#       starts `mte4jni serve` on an ephemeral port, logging to
#       $TMP/INSTANCE.log, waits for it to publish its address, sets URL.
#   check_metrics WANT...
#       requires every WANT substring in the daemon's /metrics, which it
#       saves to $METRICS. Without curl it checks nothing: every load run
#       has already reconciled its own counter deltas.
#   stop_daemon
#       sends SIGTERM and requires a clean exit 0 (the graceful drain and
#       the per-shard lease ledger assertion).
#
# Every failure names the instance and prints its log (or its /metrics).

SERVE_PID=""

start_daemon() {
	SERVE_NAME="$1"
	shift
	SERVE_LOG="$TMP/$SERVE_NAME.log"
	addr_file="$TMP/$SERVE_NAME.addr"
	"$BIN" serve -addr 127.0.0.1:0 -addr-file "$addr_file" "$@" >"$SERVE_LOG" 2>&1 &
	SERVE_PID=$!
	i=0
	while [ ! -s "$addr_file" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			daemon_fail "never published its address"
		fi
		if ! kill -0 "$SERVE_PID" 2>/dev/null; then
			daemon_fail "exited during startup"
		fi
		sleep 0.1
	done
	URL="http://$(cat "$addr_file")"
}

check_metrics() {
	command -v curl >/dev/null 2>&1 || return 0
	METRICS="$TMP/$SERVE_NAME.metrics.json"
	curl -fsS "$URL/metrics" >"$METRICS"
	for want in "$@"; do
		if ! grep -q "$want" "$METRICS"; then
			echo "$NAME: $SERVE_NAME server /metrics missing $want:" >&2
			cat "$METRICS" >&2
			exit 1
		fi
	done
}

stop_daemon() {
	kill -TERM "$SERVE_PID"
	if ! wait "$SERVE_PID"; then
		SERVE_PID=""
		daemon_fail "did not shut down cleanly"
	fi
	SERVE_PID=""
}

daemon_fail() {
	echo "$NAME: $SERVE_NAME server $1" >&2
	cat "$SERVE_LOG" >&2
	exit 1
}

daemon_cleanup() {
	if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
		kill "$SERVE_PID" 2>/dev/null || true
		wait "$SERVE_PID" 2>/dev/null || true
	fi
	rm -rf "$TMP"
}
