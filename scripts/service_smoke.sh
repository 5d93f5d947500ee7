#!/usr/bin/env bash
# Boots permd, drives it over the wire with perm-shell (DDL + INSERT + SELECT PROVENANCE +
# prepared statements + a CASE whose INT arm the served plan casts to FLOAT), and shuts it
# down. Used by the `service-smoke` CI job and runnable locally:
# scripts/service_smoke.sh [PORT] [WORKERS] [FAILPOINTS]
#
# WORKERS (default 1) sizes the engine's worker pool for morsel-driven parallel execution;
# CI drives the same script at 1 and 4 workers so the serving path is smoke-tested both
# single-threaded and with intra-query parallelism.
#
# FAILPOINTS (optional) switches the script into fault-injection mode: permd is started with
# PERM_FAILPOINTS set to this spec (e.g. "socket-write=error*1,sort=panic*1"), sacrificial
# sessions absorb the injected faults, and the script asserts the daemon survives and serves
# a clean follow-up session. The regular smoke flow is skipped in this mode — armed faults
# would fail its assertions by design.
#
# Exits non-zero if the server fails to boot, any statement errors, or the provenance result
# does not match the paper's running example.
set -euo pipefail

PORT="${1:-7661}"
WORKERS="${2:-1}"
FAILPOINTS="${3:-}"
METRICS_PORT=$((PORT + 1000))
BIN_DIR="${CARGO_TARGET_DIR:-target}/release"
LOG="$(mktemp)"
trap 'kill "${SERVER_PID:-0}" 2>/dev/null || true; rm -f "$LOG"' EXIT

if [ -n "$FAILPOINTS" ]; then
    PERM_FAILPOINTS="$FAILPOINTS" "$BIN_DIR/permd" --port "$PORT" --workers "$WORKERS" \
        --metrics-addr "127.0.0.1:$METRICS_PORT" >"$LOG" 2>&1 &
else
    "$BIN_DIR/permd" --port "$PORT" --workers "$WORKERS" \
        --metrics-addr "127.0.0.1:$METRICS_PORT" >"$LOG" 2>&1 &
fi
SERVER_PID=$!

# Scrape the Prometheus endpoint over bash's /dev/tcp (no curl dependency in the CI image).
scrape_metrics() {
    exec 3<>"/dev/tcp/127.0.0.1/$METRICS_PORT" || return 1
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
    cat <&3
    exec 3<&- 3>&-
}

# Assert one scrape is a valid exposition: HTTP 200, the right content type, HELP/TYPE
# comments, and every sample line shaped `perm_name{labels} value`.
check_exposition() {
    local body="$1" context="$2"
    echo "$body" | head -1 | grep -q "HTTP/1.0 200" \
        || { echo "FAIL: $context scrape not 200:"; echo "$body" | head -3; exit 1; }
    echo "$body" | grep -q "Content-Type: text/plain; version=0.0.4" \
        || { echo "FAIL: $context scrape content type wrong"; exit 1; }
    echo "$body" | grep -q "^# TYPE perm_queries_total counter" \
        || { echo "FAIL: $context scrape missing TYPE comment"; exit 1; }
    local bad
    bad="$(echo "$body" | sed '1,/^\r*$/d' | grep -v '^#' | grep -v '^\r*$' \
        | grep -cv '^perm_[a-z_]*\({[^}]*}\)\? -\?[0-9.e+]*\r*$' || true)"
    [ "$bad" -eq 0 ] || { echo "FAIL: $context scrape has $bad malformed sample lines"; exit 1; }
}

# Wait for the listening line (the server prints it once the socket is bound).
for _ in $(seq 1 50); do
    grep -q "permd listening" "$LOG" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "permd exited early:"; cat "$LOG"; exit 1; }
    sleep 0.2
done
grep -q "permd listening" "$LOG" || { echo "permd never came up:"; cat "$LOG"; exit 1; }

if [ -n "$FAILPOINTS" ]; then
    # Sacrificial session 1: with an injected socket-write error armed, the server's first
    # response write (often the handshake reply) fails and this connection dies. Tolerated —
    # only the daemon's survival matters.
    "$BIN_DIR/perm-shell" --port "$PORT" <<'SQL' || true
\ping
SQL
    # Sacrificial session 2: set up a table and run an ORDER BY so an injected worker panic
    # fires inside the executor; the panic fence must turn it into an error frame on this
    # connection only.
    "$BIN_DIR/perm-shell" --port "$PORT" <<'SQL' || true
CREATE TABLE chaos (id INT)
INSERT INTO chaos VALUES (3), (1), (2)
SELECT * FROM chaos ORDER BY id
SQL
    kill -0 "$SERVER_PID" 2>/dev/null \
        || { echo "FAIL: permd died under failpoints"; cat "$LOG"; exit 1; }
    # The count-bounded faults are spent; a fresh session must work end to end.
    OUT="$("$BIN_DIR/perm-shell" --port "$PORT" <<'SQL'
SELECT * FROM chaos ORDER BY id
\ping
\shutdown
SQL
)"
    echo "$OUT"
    echo "$OUT" | grep -qx "1" || { echo "FAIL: follow-up query wrong after failpoints"; exit 1; }
    echo "$OUT" | grep -q "pong" || { echo "FAIL: ping failed after failpoints"; exit 1; }
    wait "$SERVER_PID"
    echo "service smoke with failpoints OK (workers=$WORKERS, PERM_FAILPOINTS=$FAILPOINTS)"
    exit 0
fi

# Under `timeout`: a shell that waits for an answer the server never sends (`\cancel` between
# statements gets none) fails the smoke instead of hanging it.
OUT="$(timeout 20 "$BIN_DIR/perm-shell" --port "$PORT" <<'SQL'
-- schema + data (the paper's Figure 2 example database)
CREATE TABLE shop (name TEXT, numEmpl INT)
CREATE TABLE sales (sName TEXT, itemId INT)
CREATE TABLE items (id INT, price INT)
INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)
INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), ('Merdies', 2), ('Joba', 3), ('Joba', 3)
INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)
-- lazy provenance through SQL-PLE
SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items WHERE name = sName AND itemId = id GROUP BY name ORDER BY name
-- prepared statement with a $1 parameter, executed twice
\prepare pricey SELECT id FROM items WHERE price > $1 ORDER BY id
\exec pricey (20)
\exec pricey (99)
-- a CASE of an INT and a FLOAT arm is FLOAT: the plan casts the INT arm, so 7 / 2 is 3.5
CREATE TABLE f (x FLOAT)
INSERT INTO f VALUES (1.5), (3.0)
SELECT CASE WHEN x > 2 THEN 7 ELSE 0.5 END / 2 AS half FROM f WHERE x > 2
-- no stream is in progress: the shell says so and reads nothing
\cancel
\stats
SQL
)"

echo "$OUT"
# The Joba group totals 50 and carries Joba's shop tuple as provenance.
echo "$OUT" | grep -q "Joba	50	Joba	14" || { echo "FAIL: provenance row missing"; exit 1; }
# The prepared statement found items 1 and 3 for $1 = 20, then only item 1 for $1 = 99.
echo "$OUT" | grep -qx "3" || { echo "FAIL: prepared execution (20) wrong"; exit 1; }
echo "$OUT" | grep -qx "3.5" || { echo "FAIL: the CASE's INT arm was not cast to FLOAT"; exit 1; }
echo "$OUT" | grep -q "(no result stream to cancel)" \
    || { echo "FAIL: \\cancel between statements not reported"; exit 1; }
echo "$OUT" | grep -q "^plan_cache .* deferred=[0-9]" \
    || { echo "FAIL: stats plan_cache line missing or without deferred="; exit 1; }

# --- Streaming at scale: a 1M-row duplicated-provenance result must flow through the chunked
# RESULT frames without the server materializing it per session. Two 1000-row tables joined on
# a constant key give 1,000,000 output rows, each duplicating a 64-char build-side payload
# (the factorized dict encoding's home turf).
BIG_SQL="$(mktemp)"
{
    echo "CREATE TABLE big_probe (k INT)"
    echo "CREATE TABLE big_build (k INT, payload TEXT)"
    awk 'BEGIN {
        printf "INSERT INTO big_probe VALUES ";
        for (i = 0; i < 1000; i++) printf "(7)%s", (i < 999 ? ", " : "\n");
        pay = ""; for (j = 0; j < 64; j++) pay = pay "p";
        printf "INSERT INTO big_build VALUES ";
        for (i = 0; i < 1000; i++) printf "(7, \047%s\047)%s", pay, (i < 999 ? ", " : "\n");
    }'
    echo "SELECT PROVENANCE b.payload FROM big_probe a, big_build b WHERE a.k = b.k"
} >"$BIG_SQL"

STREAM_OUT="$(mktemp)"
"$BIN_DIR/perm-shell" --port "$PORT" <"$BIG_SQL" >"$STREAM_OUT" &
STREAM_PID=$!

# Scrape the metrics endpoint while the 1M-row stream is (most likely) in flight: the endpoint
# must answer valid expositions concurrently with query traffic, not just when idle.
MID_SCRAPES=0
while kill -0 "$STREAM_PID" 2>/dev/null && [ "$MID_SCRAPES" -lt 5 ]; do
    if BODY="$(scrape_metrics)"; then
        check_exposition "$BODY" "mid-stream"
        MID_SCRAPES=$((MID_SCRAPES + 1))
    fi
    sleep 0.1
done
wait "$STREAM_PID"
[ "$MID_SCRAPES" -ge 1 ] || { echo "FAIL: no successful mid-stream metrics scrape"; exit 1; }
echo "mid-stream metrics scrapes: $MID_SCRAPES"

STREAM_LINES="$(wc -l <"$STREAM_OUT")"
rm -f "$BIG_SQL" "$STREAM_OUT"
# 4 ok lines (2 CREATE + 2 INSERT) + 1 header + 1,000,000 rows.
[ "$STREAM_LINES" -eq 1000005 ] \
    || { echo "FAIL: streamed 1M-row result has $STREAM_LINES lines, want 1000005"; exit 1; }

# Idle scrape: with every session drained, the in-flight gauges must read exactly zero and the
# outcome counters must have seen the smoke traffic.
IDLE="$(scrape_metrics)" || { echo "FAIL: idle metrics scrape refused"; exit 1; }
check_exposition "$IDLE" "idle"
for GAUGE in perm_queries_active perm_governor_active_queries perm_stream_buffered_bytes; do
    echo "$IDLE" | grep -q "^$GAUGE 0\r*$" \
        || { echo "FAIL: idle scrape: $GAUGE not zero"; echo "$IDLE" | grep "^$GAUGE"; exit 1; }
done
# Every family docs/OBSERVABILITY.md lists is exported by the shipped binary.
FAMILIES="$(grep -o '^| `perm_[a-z_]*`' "$(dirname "$0")/../docs/OBSERVABILITY.md" | tr -d '|` ')"
[ -n "$FAMILIES" ] || { echo "FAIL: no families read from docs/OBSERVABILITY.md"; exit 1; }
for FAMILY in $FAMILIES; do
    echo "$IDLE" | grep -q "^# TYPE $FAMILY " \
        || { echo "FAIL: idle scrape missing the $FAMILY family"; exit 1; }
done
echo "$IDLE" | grep -q '^perm_queries_total{outcome="ok"} [1-9]' \
    || { echo "FAIL: idle scrape shows no completed queries"; exit 1; }
echo "$IDLE" | grep -q '^perm_rows_streamed_total 10[0-9]\{5\}' \
    || { echo "FAIL: idle scrape rows_streamed_total missing the 1M-row stream"; exit 1; }
# The 1M-row stream's 1000 build rows cross the wire in its first frame; every later frame
# indexes the dictionary that frame sent instead of resending it (145 MB on the wire when each
# frame carried its own dictionary).
BYTES_STREAMED="$(echo "$IDLE" | tr -d '\r' | awk '/^perm_bytes_streamed_total / {print $2}')"
BYTES_STREAMED_CAP=16000000
awk -v bytes="${BYTES_STREAMED:-x}" -v cap="$BYTES_STREAMED_CAP" \
    'BEGIN { exit !(bytes ~ /^[0-9.e+]+$/ && bytes + 0 <= cap) }' \
    || { echo "FAIL: perm_bytes_streamed_total ${BYTES_STREAMED:-missing} over $BYTES_STREAMED_CAP"
         exit 1; }
echo "streamed bytes ${BYTES_STREAMED} B (cap ${BYTES_STREAMED_CAP} B)"
# Resident table data is exported per table, next to the row counts (compare with VmHWM below).
for TABLE in big_probe big_build; do
    echo "$IDLE" | grep -q "^perm_table_rows{table=\"$TABLE\"} [1-9][0-9]*\r*$" \
        && echo "$IDLE" | grep -q "^perm_table_bytes{table=\"$TABLE\"} [1-9][0-9]*\r*$" \
        || { echo "FAIL: idle scrape has no rows/bytes sample for $TABLE"; exit 1; }
done

# Peak server RSS: the result is ~170 MB as text, but the engine never holds it: the join is the
# plan's top region, pulled on the connection's own thread (no thread per query) one batch of
# views — two index buffers per 1024-row batch over the probe and build columns — per morsel
# between frames, and the stream drops every chunk once its frame is written; TCP flow control
# paces the frames to the client, and the pulls behind them.
# The cap is the measured VmHWM of this stream (4.72-4.79 MB at --workers 1 and 4 alike; 13.3-13.5
# MB when the result was held whole before its first frame) plus 25 %; the resident table data is
# printed beside it.
RSS_KB="$(awk '/^VmHWM/ {print $2}' "/proc/$SERVER_PID/status")"
RSS_CAP_KB=6000
TABLE_BYTES="$(echo "$IDLE" | tr -d '\r' | awk '/^perm_table_bytes\{/ {sum += $2} END {print sum}')"
[ "$RSS_KB" -le "$RSS_CAP_KB" ] \
    || { echo "FAIL: server peak RSS ${RSS_KB} kB exceeds ${RSS_CAP_KB} kB"; exit 1; }
echo "streamed 1M rows, server peak RSS ${RSS_KB} kB (cap ${RSS_CAP_KB} kB), perm_table_bytes ${TABLE_BYTES} B"

"$BIN_DIR/perm-shell" --port "$PORT" <<'SQL'
\shutdown
SQL

wait "$SERVER_PID"
# The metrics endpoint must go down with the daemon.
if scrape_metrics >/dev/null 2>&1; then
    echo "FAIL: metrics endpoint still answering after shutdown"; exit 1
fi
echo "service smoke OK (workers=$WORKERS)"
