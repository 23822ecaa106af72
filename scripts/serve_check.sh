#!/usr/bin/env bash
# Networked front-end smoke check: serve the wire protocol on a Unix
# socket, drive it with 32 concurrent clients for a few thousand
# transactions, and assert a clean shutdown with zero protocol errors
# on both sides.
#
# The server's admitted work is deterministic given the admitted
# batches (asserted in-process by test/test_frontend.ml); this script
# checks the real-socket path: framing under concurrency, admission,
# checkpoint-gated replies, Bye/Shutdown draining, exit codes, and the
# live observability surface (`nvdb stats` + the periodic
# --stats-interval JSONL flush), then a SIGTERM drain of a journaled
# server, its --recover restart, and a 3-shard cluster.
set -euo pipefail
cd "$(dirname "$0")/.."

SOCK="${TMPDIR:-/tmp}/nvdb-serve-check-$$.sock"
SERVER_OUT="$(mktemp)"
CLIENT_OUT="$(mktemp)"
STATS_OUT="$(mktemp)"
STATS_JSONL="$(mktemp)"
trap 'kill $SERVER_PID 2>/dev/null || true; rm -f "$SOCK" "$SERVER_OUT" "$CLIENT_OUT" "$STATS_OUT" "$STATS_JSONL"' EXIT

dune build bin/nvdb.exe

NVDB=_build/default/bin/nvdb.exe

"$NVDB" serve --workload ycsb --listen "$SOCK" \
  --batch-target 128 --deadline-ticks 4 --capacity 20000 \
  --stats-interval 0.25 --stats-out "$STATS_JSONL" \
  >"$SERVER_OUT" 2>&1 &
SERVER_PID=$!

# Wait for the socket to appear (the server bulk-loads first).
for _ in $(seq 1 600); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died before binding"; cat "$SERVER_OUT"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "server never bound $SOCK"; cat "$SERVER_OUT"; exit 1; }

# Drive the load in the background so a `stats` snapshot can be pulled
# from the live, mid-flight server.
"$NVDB" loadgen --workload ycsb --listen "$SOCK" \
  --clients 32 --txns 100 --window 4 --shutdown \
  >"$CLIENT_OUT" 2>&1 &
LOADGEN_PID=$!

# Poll `nvdb stats` until a snapshot shows serving activity (per-proc
# wall-latency percentiles appear once the first replies went out).
STATS_OK=0
for _ in $(seq 1 100); do
  if "$NVDB" stats --listen "$SOCK" >"$STATS_OUT" 2>/dev/null \
     && grep -q '"ycsb.rmw"' "$STATS_OUT"; then
    STATS_OK=1
    break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.05
done
[ "$STATS_OK" -eq 1 ] || { echo "never got a live stats snapshot with serving activity"; cat "$STATS_OUT"; exit 1; }

# The snapshot must carry the live-serving schema: uptime, admission
# counters, per-procedure wall-latency percentiles.
for field in '"uptime_s"' '"clients_connected"' '"admitted"' '"epoch_rate_per_s"' \
             '"p50_ms"' '"p99_ms"' '"p999_ms"'; do
  grep -q "$field" "$STATS_OUT" || { echo "stats snapshot missing $field"; cat "$STATS_OUT"; exit 1; }
done

wait "$LOADGEN_PID" || { echo "loadgen failed"; cat "$CLIENT_OUT"; exit 1; }

# The Shutdown request must drain the server to a clean exit.
SERVER_RC=0
wait "$SERVER_PID" || SERVER_RC=$?
if [ "$SERVER_RC" -ne 0 ]; then
  echo "server exited with $SERVER_RC"; cat "$SERVER_OUT"; exit 1
fi

# The periodic --stats-interval flush left a JSONL trail: at least one
# line, every line a stats object.
[ -s "$STATS_JSONL" ] || { echo "no periodic stats JSONL was flushed"; exit 1; }
grep -cq '"uptime_s"' "$STATS_JSONL" || { echo "stats JSONL lines malformed"; cat "$STATS_JSONL"; exit 1; }

grep -q '^sent *3200$' "$CLIENT_OUT" || { echo "loadgen did not send 3200 txns"; cat "$CLIENT_OUT"; exit 1; }
grep -q '^protocol errors *0$' "$CLIENT_OUT" || { echo "client-side protocol errors"; cat "$CLIENT_OUT"; exit 1; }
grep -q '^protocol errors *0$' "$SERVER_OUT" || { echo "server-side protocol errors"; cat "$SERVER_OUT"; exit 1; }
grep -q '^admitted *3200$' "$SERVER_OUT" || { echo "server did not admit all 3200 txns"; cat "$SERVER_OUT"; exit 1; }
grep -q '^clients served *32$' "$SERVER_OUT" || { echo "server did not see 32 clients"; cat "$SERVER_OUT"; exit 1; }
[ -S "$SOCK" ] && { echo "server left its socket behind"; exit 1; }

echo "serve-check OK: 32 clients x 100 txns, clean shutdown, zero protocol errors"
sed -n 's/^/  server: /p' "$SERVER_OUT"

# --- Second leg: graceful SIGTERM shutdown of a journaled server. ---
# No client ever sends Shutdown here; the operator does, with a signal.
# The server must drain, flush its journal, remove the socket, and
# exit 0. The restart below replays the journal to the same digest and
# pmem crc.
SOCK2="${TMPDIR:-/tmp}/nvdb-serve-term-$$.sock"
JOURNAL2="${TMPDIR:-/tmp}/nvdb-serve-term-$$.journal"
SERVER2_OUT="$(mktemp)"
CLIENT2_OUT="$(mktemp)"
trap 'kill $SERVER_PID $SERVER2_PID 2>/dev/null || true; rm -f "$SOCK" "$SERVER_OUT" "$CLIENT_OUT" "$STATS_OUT" "$STATS_JSONL" "$SOCK2" "$JOURNAL2" "$JOURNAL2.ckpt" "$SERVER2_OUT" "$CLIENT2_OUT"' EXIT

"$NVDB" serve --workload ycsb --listen "$SOCK2" \
  --batch-target 64 --deadline-ticks 4 --capacity 20000 \
  --journal "$JOURNAL2" \
  >"$SERVER2_OUT" 2>&1 &
SERVER2_PID=$!

for _ in $(seq 1 600); do
  [ -S "$SOCK2" ] && break
  kill -0 "$SERVER2_PID" 2>/dev/null || { echo "journaled server died before binding"; cat "$SERVER2_OUT"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK2" ] || { echo "journaled server never bound $SOCK2"; cat "$SERVER2_OUT"; exit 1; }

# A short load with no Shutdown: clients drain via Bye and the server
# keeps serving afterwards.
"$NVDB" loadgen --workload ycsb --listen "$SOCK2" \
  --clients 8 --txns 25 --window 4 \
  >"$CLIENT2_OUT" 2>&1 || { echo "loadgen (SIGTERM leg) failed"; cat "$CLIENT2_OUT"; exit 1; }

kill -TERM "$SERVER2_PID"
SERVER2_RC=0
wait "$SERVER2_PID" || SERVER2_RC=$?
if [ "$SERVER2_RC" -ne 0 ]; then
  echo "SIGTERM'd server exited with $SERVER2_RC (want 0)"; cat "$SERVER2_OUT"; exit 1
fi
grep -q '^protocol errors *0$' "$SERVER2_OUT" || { echo "SIGTERM leg: server-side protocol errors"; cat "$SERVER2_OUT"; exit 1; }
grep -q '^admitted *200$' "$SERVER2_OUT" || { echo "SIGTERM leg: server did not admit all 200 txns"; cat "$SERVER2_OUT"; exit 1; }
grep -q '^journal records ' "$SERVER2_OUT" || { echo "SIGTERM leg: no journal accounting in server stats"; cat "$SERVER2_OUT"; exit 1; }
[ -S "$SOCK2" ] && { echo "SIGTERM'd server left its socket behind"; exit 1; }
[ -f "$JOURNAL2" ] || { echo "SIGTERM leg: journal file missing"; exit 1; }

echo "serve-check OK: SIGTERM drained a journaled server to a clean exit"

# Reopen that journal: restart the same server with --recover and stop
# it again. Replay must land on the state the first run ended with —
# the same state digest and pmem crc pair `nvdb chaos` compares.
SERVER2B_OUT="$(mktemp)"
trap 'kill $SERVER_PID $SERVER2_PID 2>/dev/null || true; rm -f "$SOCK" "$SERVER_OUT" "$CLIENT_OUT" "$STATS_OUT" "$STATS_JSONL" "$SOCK2" "$JOURNAL2" "$JOURNAL2.ckpt" "$SERVER2_OUT" "$SERVER2B_OUT" "$CLIENT2_OUT"' EXIT

"$NVDB" serve --workload ycsb --listen "$SOCK2" \
  --batch-target 64 --deadline-ticks 4 --capacity 20000 \
  --journal "$JOURNAL2" --recover \
  >"$SERVER2B_OUT" 2>&1 &
SERVER2_PID=$!

for _ in $(seq 1 600); do
  [ -S "$SOCK2" ] && break
  kill -0 "$SERVER2_PID" 2>/dev/null || { echo "recovering server died before binding"; cat "$SERVER2B_OUT"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK2" ] || { echo "recovering server never bound $SOCK2"; cat "$SERVER2B_OUT"; exit 1; }

kill -TERM "$SERVER2_PID"
SERVER2_RC=0
wait "$SERVER2_PID" || SERVER2_RC=$?
if [ "$SERVER2_RC" -ne 0 ]; then
  echo "recovered server exited with $SERVER2_RC (want 0)"; cat "$SERVER2B_OUT"; exit 1
fi
grep -q '^nvdb: recovering .*replaying [1-9][0-9]* journaled batches' "$SERVER2B_OUT" \
  || { echo "recovery leg: journal was not replayed"; cat "$SERVER2B_OUT"; exit 1; }
for key in 'state digest' 'pmem crc'; do
  FIRST="$(grep "^$key " "$SERVER2_OUT" || true)"
  SECOND="$(grep "^$key " "$SERVER2B_OUT" || true)"
  if [ -z "$FIRST" ] || [ "$FIRST" != "$SECOND" ]; then
    echo "recovery leg: '$key' differs after --recover"; echo "first:  $FIRST"; echo "second: $SECOND"; exit 1
  fi
done

echo "serve-check OK: --recover replayed the journal to the same state digest and pmem crc"

# --- Third leg: a 3-shard routed cluster serves the same clients. ---
# The router spawns three engine shard processes, routes epochs over
# the wire-v3 shard plane (Route/Fence), and must drain to a clean
# exit with zero protocol errors, leaving a router journal plus one
# journal per shard behind.
SOCK3="${TMPDIR:-/tmp}/nvdb-serve-cluster-$$.sock"
JOURNAL3="${TMPDIR:-/tmp}/nvdb-serve-cluster-$$.journal"
SERVER3_OUT="$(mktemp)"
CLIENT3_OUT="$(mktemp)"
trap 'kill $SERVER_PID $SERVER2_PID $SERVER3_PID 2>/dev/null || true; rm -f "$SOCK" "$SERVER_OUT" "$CLIENT_OUT" "$STATS_OUT" "$STATS_JSONL" "$SOCK2" "$JOURNAL2" "$JOURNAL2.ckpt" "$SERVER2_OUT" "$CLIENT2_OUT" "$SOCK3" "$SOCK3".shard* "$JOURNAL3" "$JOURNAL3".shard* "$SERVER3_OUT" "$CLIENT3_OUT"' EXIT

"$NVDB" serve --workload ycsb --listen "$SOCK3" --shards 3 \
  --batch-target 64 --deadline-ticks 4 --capacity 20000 \
  --journal "$JOURNAL3" \
  >"$SERVER3_OUT" 2>&1 &
SERVER3_PID=$!

for _ in $(seq 1 600); do
  [ -S "$SOCK3" ] && break
  kill -0 "$SERVER3_PID" 2>/dev/null || { echo "cluster router died before binding"; cat "$SERVER3_OUT"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK3" ] || { echo "cluster router never bound $SOCK3"; cat "$SERVER3_OUT"; exit 1; }

"$NVDB" loadgen --workload ycsb --listen "$SOCK3" \
  --clients 8 --txns 25 --window 4 --shutdown \
  >"$CLIENT3_OUT" 2>&1 || { echo "loadgen (cluster leg) failed"; cat "$CLIENT3_OUT"; exit 1; }

SERVER3_RC=0
wait "$SERVER3_PID" || SERVER3_RC=$?
if [ "$SERVER3_RC" -ne 0 ]; then
  echo "cluster router exited with $SERVER3_RC (want 0)"; cat "$SERVER3_OUT"; exit 1
fi
grep -q '^protocol errors *0$' "$CLIENT3_OUT" || { echo "cluster leg: client-side protocol errors"; cat "$CLIENT3_OUT"; exit 1; }
grep -q '^protocol errors *0$' "$SERVER3_OUT" || { echo "cluster leg: router-side protocol errors"; cat "$SERVER3_OUT"; exit 1; }
grep -q '^admitted *200$' "$SERVER3_OUT" || { echo "cluster leg: router did not admit all 200 txns"; cat "$SERVER3_OUT"; exit 1; }
grep -q '^shard respawns *0$' "$SERVER3_OUT" || { echo "cluster leg: unexpected shard respawns"; cat "$SERVER3_OUT"; exit 1; }
[ -S "$SOCK3" ] && { echo "cluster router left its socket behind"; exit 1; }
[ -f "$JOURNAL3" ] || { echo "cluster leg: router journal missing"; exit 1; }
for i in 0 1 2; do
  [ -f "$JOURNAL3.shard$i" ] || { echo "cluster leg: shard $i journal missing"; exit 1; }
done

echo "serve-check OK: 3-shard cluster drained 8 clients x 25 txns to a clean exit"
