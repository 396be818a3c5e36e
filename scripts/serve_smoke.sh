#!/usr/bin/env bash
# End-to-end loopback smoke of the nucached simulation server: boot
# on an ephemeral port (with --trace-out armed), probe health, run a
# mix twice (the repeat must come back from the result cache), stream
# a telemetry run, drive the concurrent pipelined load bench, scrape
# and validate the metrics op (JSON + Prometheus + nucache_top), and
# shut down gracefully — checking the Chrome trace the server wrote.
# The client exits non-zero on any error response or dropped
# connection, and this script forwards it.
# Usage: scripts/serve_smoke.sh [build_dir]
#   MIN_RPS=<n>  optionally gate the pipelined bench on a throughput
#                floor (leave unset on noisy or sanitizer-built
#                runners).
#   SHARDS=<n>   engine shards to boot with (default 1).
#   ATTACK=1     also drive hostile attack:* traces and malformed
#                attack/defense specs through run_mix (all must be
#                answered, never fatal).
set -euo pipefail

build="${1-build}"
nucached="$build/tools/nucached"
client="$build/tools/nucache_client"
top="$build/tools/nucache_top"
report="$build/tools/nucache_report"
[ -x "$nucached" ] && [ -x "$client" ] || {
    echo "serve smoke: build tools/nucached and tools/nucache_client" \
        "first" >&2
    exit 1
}

workdir="$(mktemp -d)"
port_file="$workdir/port"
log="$workdir/nucached.log"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

shards="${SHARDS-1}"
trace_file="$workdir/trace.json"
"$nucached" --port=0 --port-file="$port_file" --records=10000 \
    --serve-shards="$shards" --trace-out="$trace_file" \
    --jobs="$(nproc 2>/dev/null || echo 2)" >"$log" 2>&1 &
server_pid=$!

# Bounded readiness wait: 10 s of polling the port file, bailing out
# early (with the server log) if the process already died.
ready_wait_secs=10
for _ in $(seq 1 $((ready_wait_secs * 10))); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve smoke: nucached exited before becoming ready" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$port_file" ] || {
    echo "serve smoke: no port file after ${ready_wait_secs}s —" \
        "server never became ready" >&2
    cat "$log" >&2
    exit 1
}
port="$(cat "$port_file")"
echo "== nucached up on port $port (shards=$shards)"

echo "== health"
"$client" --port="$port" --op=health --compact

echo "== run_mix (cold, then cached repeat)"
"$client" --port="$port" --op=run_mix --mix=mix2_01 \
    --records=10000 --repeat=2 --compact >/dev/null

echo "== streamed telemetry run"
"$client" --port="$port" --op=run_mix --mix=mix2_01 \
    --records=10000 --telemetry=2000 --stream --compact >/dev/null

echo "== hostile input keeps the server alive"
if "$client" --port="$port" --raw='this is not json' --compact; then
    echo "serve smoke: garbage line should answer an error" >&2
    exit 1
fi
# Specs outside the grammar: a SHiP table size the policy would exit
# on, and a key NUcache does not have.
for policy in 'ship:shct=0' 'nucache:foo=1'; do
    if "$client" --port="$port" \
        --raw="{\"op\":\"run_mix\",\"params\":{\"mix\":\"mix2_01\",\"records\":10000,\"policy\":\"$policy\"}}" \
        --compact; then
        echo "serve smoke: policy '$policy' should answer an error" >&2
        exit 1
    fi
done
"$client" --port="$port" --op=health --compact

echo "== concurrent pipelined load bench"
bench_out="$workdir/bench.txt"
"$client" --port="$port" --op=run_mix --mix=mix2_01 \
    --records=10000 --bench=8 --requests=50 --pipeline=8 \
    | tee "$bench_out"
if [ -n "${MIN_RPS-}" ]; then
    awk -v floor="$MIN_RPS" '/^throughput:/ {
        if ($2 + 0 < floor + 0) {
            printf "serve smoke: %s req/s below floor %s\n", $2, floor
            exit 1
        }
    }' "$bench_out"
fi

if [ -n "${ESTIMATE-}" ]; then
    echo "== estimate tier fast path"
    est_out="$workdir/estimate.txt"
    "$client" --port="$port" --op=run_mix --mix=mix2_01 \
        --records=10000 --mode=estimate --bench=8 --requests=50 \
        --pipeline=8 | tee "$est_out"
    # The warm estimate phase must answer inline on the loop thread:
    # gate its median at EST_P50_MS milliseconds (default 1 ms).
    awk -v floor="${EST_P50_MS-1.0}" '/^estimate phase:/ {
        if ($8 + 0 > floor + 0) {
            printf "serve smoke: estimate p50 %s ms above %s ms\n", \
                $8, floor
            exit 1
        }
        found = 1
    } END {
        if (!found) {
            print "serve smoke: no estimate phase in bench output"
            exit 1
        }
    }' "$est_out"
fi

if [ -n "${ATTACK-}" ]; then
    echo "== adversarial traffic is an ordinary workload"
    # A hostile trace (eviction-set attacker next to a benign victim)
    # through run_mix with the randomized-index defense raised on the
    # shared LLC: must answer ok like any other workload.
    "$client" --port="$port" --raw='{"op":"run_mix","params":{"workloads":["attack:evset","zipf_hot"],"records":10000,"llc_defense":"rand-dynamic:key=7,period=5000"}}' \
        --compact >/dev/null
    # A storm without the defense, plain flags.
    "$client" --port="$port" --op=run_mix \
        --workloads=attack:storm,zipf_hot --records=10000 \
        --compact >/dev/null
    # Malformed attack names and defense specs must answer
    # bad_request — never take the server down.
    if "$client" --port="$port" \
        --raw='{"op":"run_mix","params":{"workloads":["attack:rowhammer"],"records":10000}}' \
        --compact; then
        echo "serve smoke: malformed attack name should answer an" \
            "error" >&2
        exit 1
    fi
    if "$client" --port="$port" \
        --raw='{"op":"run_mix","params":{"workloads":["zipf_hot"],"records":10000,"llc_defense":"rand:period=1"}}' \
        --compact; then
        echo "serve smoke: malformed defense spec should answer an" \
            "error" >&2
        exit 1
    fi
    # The server must still be healthy after the hostile batch.
    "$client" --port="$port" --op=health --compact
fi

echo "== metrics scrape (JSON + Prometheus + nucache_top)"
metrics_file="$workdir/metrics.json"
"$client" --port="$port" --metrics --compact >"$metrics_file"
if [ -x "$report" ]; then
    "$report" --check "$metrics_file"
fi
# Core series must exist and be nonzero after the traffic above.
python3 - "$metrics_file" "$shards" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
shards = int(sys.argv[2])
assert m["schema"] == "nucache-metrics/v1", m.get("schema")
srv = m["server"]
assert srv["requests"] > 0, "no requests counted"
assert srv["responses"] > 0, "no responses counted"
assert srv["outbound_hwm_bytes"] > 0, "outbound high-water never moved"
assert len(m["shards"]) == shards, "wrong shard count"
assert sum(s["dispatched"] for s in m["shards"]) > 0, "nothing dispatched"
classes = {k: v["count"] for k, v in m["requests"].items()}
assert classes.get("cache_hit", 0) > 0, f"no cache_hit samples: {classes}"
assert classes.get("exact", 0) > 0, f"no exact samples: {classes}"
assert m["phases"]["flush"]["count"] > 0, "no flush phase samples"
assert m["cache"]["result_hits"] > 0, "no result-cache hits aggregated"
assert len(m["slow_requests"]) > 0, "slow-request log empty"
print("metrics document: core series present and nonzero")
EOF
prom_file="$workdir/metrics.prom"
"$client" --port="$port" --metrics --format=prometheus >"$prom_file"
grep -q '^nucache_requests_total [1-9]' "$prom_file" || {
    echo "serve smoke: prometheus exposition lacks a nonzero" \
        "nucache_requests_total" >&2
    exit 1
}
grep -q '^nucache_request_duration_us_bucket' "$prom_file" || {
    echo "serve smoke: prometheus exposition lacks histograms" >&2
    exit 1
}
if [ -x "$top" ]; then
    "$top" --port="$port" --once
fi

echo "== graceful shutdown drains"
"$client" --port="$port" --raw='{"op":"shutdown"}' --compact
# Bounded shutdown wait: the drain must finish within 30 s.
shutdown_wait_secs=30
for _ in $(seq 1 $((shutdown_wait_secs * 10))); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "serve smoke: server still running ${shutdown_wait_secs}s" \
        "after shutdown was acknowledged" >&2
    cat "$log" >&2
    exit 1
fi
wait "$server_pid" || true
server_pid=""
grep -q "drained and stopped" "$log" || {
    echo "serve smoke: server did not report a clean drain" >&2
    cat "$log" >&2
    exit 1
}
# The armed tracer must have written a Chrome trace of the traffic.
[ -s "$trace_file" ] || {
    echo "serve smoke: no trace written to $trace_file" >&2
    cat "$log" >&2
    exit 1
}
python3 - "$trace_file" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
names = [e["name"] for e in t["traceEvents"]]
assert any(n.startswith("req ") for n in names), \
    f"no per-request spans in trace ({len(names)} events)"
assert "flush" in names, "no flush phase spans in trace"
print(f"server trace: {len(names)} events with per-request spans")
EOF
echo "serve smoke OK"
