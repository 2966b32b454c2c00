#!/usr/bin/env bash
# Pre-merge gate: everything a change must pass before it lands, runnable
# locally in one command. Mirrors the CI release leg:
#
#   1. configure + build (Release unless BUILD_DIR is already configured)
#   2. the full ctest tier-1 suite
#   3. the alc_compare golden-manifest gates (node_failover + smoke +
#      cluster_routing_flash + paper_closed): fresh runs of the checked-in
#      specs must match the committed manifests bit-for-bit on the
#      comparable sections (paper_closed also exports its decisions and
#      a Chrome trace), plus an end-to-end run of the closed-loop elasticity
#      spec (heartbeat detector + autoscaler over the standby pool) and
#      of the smoke spec with a mid-surge crash under retraction, the
#      shed ladder and bounded retry (re-submissions and dead letters must
#      reach its manifest). alc_run exits 1 when a spec's [expect] row
#      fails, so each run also checks its spec's rows, variants included
#      (elasticity: detection window, provisioning lag, beats the fixed
#      fleet on the surge)
#   4. the fault_storm spec end to end: the [fault] injector, phi/quorum
#      detection, bounded retry, and the degradation ladder must all
#      leave their marks in the manifest and decision audit, and its
#      [expect] rows (fewer false declarations than consecutive misses,
#      surge-window throughput against no retry or shedding) must pass; a
#      deliberately failing [expect] row must exit 1 naming the row
#   5. perf_suite --check, smoke and full spans (~7 s): the allocation
#      pins (event engine, session source, cluster pools, histogram
#      windows) must hold
#   6. bad input (tools/bad_input.sh, which CI runs too): each malformed
#      or out-of-range spec line, override and [expect] row must exit 1
#      with an error line, never die by a signal, and alc_compare must
#      report a changed multi-line spec text, fleet-sized too, as a line
#      diff of the changed lines
#
#   $ tools/premerge.sh            # uses ./build
#   $ BUILD_DIR=build-rel tools/premerge.sh
#
# If a golden gate fails because the spec or engine changed *on purpose*,
# re-mint the manifest from the fresh run it printed
# (cp <out>/run.json specs/golden/<name>.run.json) and say so in the PR.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

echo "== configure + build (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j

echo "== tier-1 tests"
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

echo "== golden gate: node_failover"
"./$BUILD_DIR/tools/alc_run" specs/node_failover.spec \
  --out "$OUT_DIR/failover" >/dev/null
"./$BUILD_DIR/tools/alc_compare" \
  specs/golden/node_failover.run.json "$OUT_DIR/failover/run.json"

echo "== golden gate: smoke"
"./$BUILD_DIR/tools/alc_run" specs/smoke.spec \
  --out "$OUT_DIR/smoke" >/dev/null
"./$BUILD_DIR/tools/alc_compare" \
  specs/golden/smoke.run.json "$OUT_DIR/smoke/run.json"

echo "== placed crash + retraction + retry: smoke with a mid-surge crash"
"./$BUILD_DIR/tools/alc_run" specs/smoke.spec \
  --set 'node0.availability=avail(up; 15:down, 25:up)' \
  --set 'arrival_rate=steps(600; 12:1400, 30:600)' \
  --set retraction=true --set retraction_queue_factor=3 \
  --set degrade.enabled=true --set retry.enabled=true \
  --out "$OUT_DIR/smoke-retry" >/dev/null
grep -q '"cluster.retries":[1-9]' "$OUT_DIR/smoke-retry/run.json"
grep -q '"cluster.dead_letters":[1-9]' "$OUT_DIR/smoke-retry/run.json"

echo "== golden gate: cluster_routing_flash"
"./$BUILD_DIR/tools/alc_run" specs/cluster_routing_flash.spec \
  --out "$OUT_DIR/flash" >/dev/null
"./$BUILD_DIR/tools/alc_compare" \
  specs/golden/cluster_routing_flash.run.json "$OUT_DIR/flash/run.json"

echo "== golden gate: paper_closed (single node, decisions and trace)"
"./$BUILD_DIR/tools/alc_run" specs/paper_closed.spec --out "$OUT_DIR/paper" \
  --decisions "$OUT_DIR/paper/decisions.csv" \
  --trace "$OUT_DIR/paper-trace.json" >/dev/null
test -s "$OUT_DIR/paper/trajectory.csv"
test -s "$OUT_DIR/paper/decisions.csv"
python3 -m json.tool "$OUT_DIR/paper-trace.json" >/dev/null
"./$BUILD_DIR/tools/alc_compare" \
  specs/golden/paper_closed.run.json "$OUT_DIR/paper/run.json"

echo "== elasticity: closed-loop flash crowd"
"./$BUILD_DIR/tools/alc_run" specs/elasticity_flash.spec \
  --out "$OUT_DIR/elasticity" \
  --decisions "$OUT_DIR/elasticity/decisions.csv" >/dev/null
grep -q 'heartbeat-detector' "$OUT_DIR/elasticity/decisions.csv"

echo "== fault storm: injector + hardened detection/response"
"./$BUILD_DIR/tools/alc_run" specs/fault_storm.spec \
  --out "$OUT_DIR/fault-storm" \
  --decisions "$OUT_DIR/fault-storm/decisions.csv" >/dev/null
grep -q 'fault-injector' "$OUT_DIR/fault-storm/decisions.csv"
grep -q 'degrade-ladder' "$OUT_DIR/fault-storm/decisions.csv"

echo "== a failing [expect] row fails the run and is named"
printf '[experiment]\nduration = 5\nwarmup = 1\n[node]\n[expect]\nimpossible = summary.commits < 0\n' \
  >"$OUT_DIR/failing_row.spec"
status=0
"./$BUILD_DIR/tools/alc_run" "$OUT_DIR/failing_row.spec" \
  >"$OUT_DIR/failing_row.out" 2>&1 || status=$?
if [ "$status" -ne 1 ] ||
  ! grep -q '^expect impossible: FAIL' "$OUT_DIR/failing_row.out"; then
  echo "premerge: a failing [expect] row exited $status:" >&2
  cat "$OUT_DIR/failing_row.out" >&2
  exit 1
fi

echo "== perf allocation pins (smoke, then full spans)"
"./$BUILD_DIR/bench/perf_suite" --smoke --check \
  --out "$OUT_DIR/BENCH_perf.json" >/dev/null
"./$BUILD_DIR/bench/perf_suite" --check \
  --out "$OUT_DIR/BENCH_perf_full.json" >/dev/null

echo "== bad input is an error, not a crash"
tools/bad_input.sh "$BUILD_DIR"

echo "premerge: all gates passed"
