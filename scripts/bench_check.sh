#!/usr/bin/env bash
# Compare a CRITERION_JSON bench run against a checked-in baseline, or gate the provenance
# overhead inside one run.
#
# Usage: scripts/bench_check.sh <new-run.json> <baseline.json> [tolerance]
#        scripts/bench_check.sh --ratio <run.json> [max-ratio]
#
# Both files are JSON-lines in the format the vendored criterion shim emits when
# CRITERION_JSON is set: {"name":...,"median_ns":...,...} per benchmark. The check fails
# (exit 1) when any benchmark present in both files has a new median more than
# `tolerance` times the baseline median (default 1.50 — CI runners are shared and
# single-query medians routinely swing +-15-20%, so the gate is meant to catch
# step-function regressions, not noise). Benchmarks missing from either side are
# reported but never fail the check, so adding or retiring benchmarks does not require
# touching the gate.
#
# `--ratio` asks the paper's fig10 question of one run: it pairs every
# `fig10_tpch_execution/provenance/N` with `fig10_tpch_execution/normal/N` and fails when a
# provenance median is more than `max-ratio` times its normal median (default 10). Both
# medians come from the same runner, so its speed cancels out. A provenance row without its
# normal row fails too, and so does a run with no provenance row at all.
set -euo pipefail

if [ "${1:-}" = "--ratio" ]; then
    if [ "$#" -lt 2 ]; then
        echo "usage: $0 --ratio <run.json> [max-ratio]" >&2
        exit 2
    fi
    RUN=$2 MAX_RATIO=${3:-10} exec python3 - <<'EOF'
import json
import os
import sys

PROVENANCE = "fig10_tpch_execution/provenance/"
NORMAL = "fig10_tpch_execution/normal/"

medians = {}
with open(os.environ["RUN"]) as f:
    for line in f:
        line = line.strip()
        if line:
            record = json.loads(line)
            medians[record["name"]] = record["median_ns"]
max_ratio = float(os.environ["MAX_RATIO"])

queries = sorted(
    (name[len(PROVENANCE):] for name in medians if name.startswith(PROVENANCE)),
    key=lambda q: (len(q), q),
)
if not queries:
    print(f"no {PROVENANCE}N rows in {os.environ['RUN']}", file=sys.stderr)
    sys.exit(1)
failures = []
for query in queries:
    provenance = medians[PROVENANCE + query]
    normal = medians.get(NORMAL + query)
    if normal is None:
        print(f"FAIL Q{query}: no {NORMAL}{query} in this run")
        failures.append(query)
        continue
    ratio = provenance / normal
    status = "FAIL" if ratio > max_ratio else "ok"
    print(
        f"{status:4s} Q{query}: provenance {provenance / 1e6:.3f} ms / "
        f"normal {normal / 1e6:.3f} ms = {ratio:.1f}x"
    )
    if ratio > max_ratio:
        failures.append(query)

if failures:
    print(
        f"\n{len(failures)} query(ies) cost more than {max_ratio:g}x their normal run "
        "with provenance",
        file=sys.stderr,
    )
    sys.exit(1)
print(f"\nall {len(queries)} provenance/normal ratios within {max_ratio:g}x")
EOF
fi

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <new-run.json> <baseline.json> [tolerance]" >&2
    echo "       $0 --ratio <run.json> [max-ratio]" >&2
    exit 2
fi

NEW_RUN=$1 BASELINE=$2 TOLERANCE=${3:-1.50} python3 - <<'EOF'
import json
import os
import sys

def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            rows[record["name"]] = record["median_ns"]
    return rows

new_run = load(os.environ["NEW_RUN"])
baseline = load(os.environ["BASELINE"])
tolerance = float(os.environ["TOLERANCE"])

failures = []
for name in sorted(baseline):
    if name not in new_run:
        print(f"SKIP {name}: missing from new run")
        continue
    ratio = new_run[name] / baseline[name]
    status = "FAIL" if ratio > tolerance else "ok"
    print(
        f"{status:4s} {name}: {baseline[name] / 1e6:.3f} ms -> "
        f"{new_run[name] / 1e6:.3f} ms ({ratio:.2f}x)"
    )
    if ratio > tolerance:
        failures.append(name)
for name in sorted(set(new_run) - set(baseline)):
    print(f"NEW  {name}: {new_run[name] / 1e6:.3f} ms (no baseline)")

if failures:
    print(
        f"\n{len(failures)} benchmark(s) regressed beyond {tolerance:.2f}x the baseline",
        file=sys.stderr,
    )
    sys.exit(1)
print(f"\nall {len(baseline)} baselined benchmarks within {tolerance:.2f}x")
EOF
