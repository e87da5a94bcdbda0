#!/usr/bin/env bash
# bench.sh — regenerate BENCH_core.json, the repo's performance
# trajectory record (ROADMAP item 2): the epoch hot-path cost in both
# telemetry states (ns/epoch, allocs/epoch), the sweep engine's
# scenario throughput (scenarios/sec), the fleet tier's request
# throughput (requests/sec and ns/request at 8 and 32 nodes), and the
# kernel-scale throughput section (simulated threads per wall second on
# 256/1024-core machines), plus the frozen pre-refactor baselines each
# contract was introduced against. Future PRs diff their numbers
# against the committed file.
#
# Usage: scripts/bench.sh [benchtime] [scale]
#   benchtime  -benchtime for the epoch pair (default 20x)
#   scale      also re-measure the kernel-scale section (minutes);
#              without it the committed scale section is carried
#              forward unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-20x}"
mode="${2:-}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Hot-epoch pair: one replayed sense→predict→balance iteration.
go test -run '^$' -bench '^(BenchmarkEpochHot|BenchmarkEpochHotTelemetry|BenchmarkEpochHotContended)$' \
    -benchmem -benchtime "$benchtime" . >"$tmp/epoch.out"

# Sweep throughput: BenchmarkReplicateParallel replicates 4 seeds of F6
# per op on the full worker pool.
go test -run '^$' -bench '^BenchmarkReplicateParallel$' \
    -benchtime 2x . >"$tmp/sweep.out"

# Fleet throughput: full-kernel nodes behind the dispatcher on the
# canned bursty scenario, at the 8- and 32-node points.
go test -run '^$' -bench '^BenchmarkFleet$' \
    -benchtime 3x ./internal/fleet >"$tmp/fleet.out"

awk '
function field(line, n,   parts) { split(line, parts, /[ \t]+/); return parts[n] }
/^BenchmarkEpochHot-|^BenchmarkEpochHot / {
    ns_off = field($0, 3); allocs_off = field($0, 7)
}
/^BenchmarkEpochHotTelemetry/ {
    ns_on = field($0, 3); allocs_on = field($0, 7)
}
/^BenchmarkEpochHotContended/ {
    ns_cont = field($0, 3); allocs_cont = field($0, 7)
}
END {
    if (ns_off == "" || ns_on == "" || ns_cont == "") { print "bench.sh: missing epoch benchmark output" > "/dev/stderr"; exit 1 }
    printf "%s %s %s %s %s %s\n", ns_off, allocs_off, ns_on, allocs_on, ns_cont, allocs_cont
}' "$tmp/epoch.out" >"$tmp/epoch.vals"

awk '
/^BenchmarkReplicateParallel/ {
    ns = $3
}
END {
    if (ns == "") { print "bench.sh: missing sweep benchmark output" > "/dev/stderr"; exit 1 }
    # 4 scenarios (seeds) per benchmark op.
    printf "%.3f\n", 4.0 / (ns * 1e-9)
}' "$tmp/sweep.out" >"$tmp/sweep.vals"

# fleetmetric POINT UNIT: the value labelled UNIT on BenchmarkFleet/POINT.
fleetmetric() {
    awk -v point="BenchmarkFleet/$1" -v unit="$2" '
    index($1, point "-") == 1 || $1 == point {
        for (i = 1; i <= NF; i++) if ($i == unit) print $(i - 1)
    }' "$tmp/fleet.out"
}
fleet_n8_rps=$(fleetmetric n8 "req/s")
fleet_n8_ns=$(fleetmetric n8 "ns/request")
fleet_n32_rps=$(fleetmetric n32 "req/s")
fleet_n32_ns=$(fleetmetric n32 "ns/request")
for v in "$fleet_n8_rps" "$fleet_n8_ns" "$fleet_n32_rps" "$fleet_n32_ns"; do
    if [ -z "$v" ]; then
        echo "bench.sh: missing fleet benchmark output" >&2
        exit 1
    fi
done

read -r ns_off allocs_off ns_on allocs_on ns_cont allocs_cont <"$tmp/epoch.vals"
read -r scen_per_sec <"$tmp/sweep.vals"

# Kernel-scale section. The baseline block is frozen: it records the
# pre-refactor substrate (binary-heap event queue + map-based counter
# bank + linear runqueue scans, commit 4fa3716) measured with the
# identical benchmark harness on the same machine, and must not be
# regenerated — it is the denominator of the gated speedup.
scale_points="c256_t2560 c1024_t10240 c1024_t16384 c1024_t32768 c1024_t49152 c1024_t65536"

# median: newline-separated numbers on stdin -> median on stdout.
median() {
    sort -n | awk '{ a[NR] = $1 }
END {
    if (NR == 0) { print "bench.sh: no samples for median" > "/dev/stderr"; exit 1 }
    if (NR % 2) print a[(NR + 1) / 2]
    else printf "%.0f\n", (a[NR / 2] + a[NR / 2 + 1]) / 2
}'
}

# metric BENCH point FILE: extract the simthreads/s samples of one
# benchmark's sub-point from go test -bench output.
metric() {
    awk -v bench="$1/$2" '$1 == bench {
        for (i = 1; i <= NF; i++) if ($i == "simthreads/s") print $(i - 1)
    }' "$3"
}

if [ "$mode" = "scale" ]; then
    # Three runs of every point; the recorded value is the median, which
    # is the only defensible statistic on a noisy shared machine.
    go test -run '^$' -bench 'BenchmarkKernelScale' -benchtime 3x -count 3 . >"$tmp/scale.out"
    {
        echo '  "scale": {'
        echo '    "simthreads_per_sec": {'
        sep=""
        for p in $scale_points; do
            v=$(metric BenchmarkKernelScale "$p" "$tmp/scale.out" | median)
            printf '%s      "%s": %s' "$sep" "$p" "$v"
            sep=$',\n'
        done
        printf '\n    },\n'
        cur=$(metric BenchmarkKernelScale c1024_t65536 "$tmp/scale.out" | median)
        base=34861
        awk -v c="$cur" -v b="$base" 'BEGIN { printf "    \"speedup_1024\": %.2f,\n", c / b }'
        cat <<'BASE'
    "baseline_pre_scale": {
      "commit": "4fa3716",
      "note": "heap event queue + map counter bank + linear runqueue scans; identical harness and machine, medians of 3 runs",
      "simthreads_per_sec": {
        "c256_t2560": 19238,
        "c1024_t10240": 17228,
        "c1024_t16384": 16953,
        "c1024_t32768": 24945,
        "c1024_t49152": 31356,
        "c1024_t65536": 34861
      }
    }
  },
BASE
    } >"$tmp/scale.json"
else
    # Carry the committed scale section forward verbatim: the block from
    # the '"scale": {' line through its two-space closing brace.
    if [ ! -f BENCH_core.json ] ||
        ! sed -n '/^  "scale": {$/,/^  },$/p' BENCH_core.json >"$tmp/scale.json" ||
        [ ! -s "$tmp/scale.json" ]; then
        echo "bench.sh: BENCH_core.json has no scale section; run scripts/bench.sh $benchtime scale" >&2
        exit 1
    fi
fi

{
    cat <<EOF
{
  "schema": "sbbench-v1",
  "epoch": {
    "ns_per_epoch": $ns_off,
    "allocs_per_epoch": $allocs_off,
    "ns_per_epoch_telemetry": $ns_on,
    "allocs_per_epoch_telemetry": $allocs_on
  },
  "contention": {
    "ns_per_epoch_contended": $ns_cont,
    "allocs_per_epoch_contended": $allocs_cont
  },
  "sweep": {
    "scenarios_per_sec": $scen_per_sec
  },
  "fleet": {
    "n8_requests_per_sec": $fleet_n8_rps,
    "n8_ns_per_request": $fleet_n8_ns,
    "n32_requests_per_sec": $fleet_n32_rps,
    "n32_ns_per_request": $fleet_n32_ns
  },
EOF
    cat "$tmp/scale.json"
    cat <<'EOF'
  "baseline_pre_hotpath": {
    "ns_per_epoch": 729051,
    "allocs_per_epoch": 10774,
    "ns_per_epoch_telemetry": 969274,
    "allocs_per_epoch_telemetry": 10785
  }
}
EOF
} >BENCH_core.json

echo "ok: wrote BENCH_core.json"
cat BENCH_core.json
