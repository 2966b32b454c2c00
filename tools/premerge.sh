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
#      fails, so each run also checks its spec's rows
#      alc_compare itself must report a changed multi-line spec text as
#      a line diff of the changed lines
#   4. the fault_storm spec end to end: the [fault] injector, phi/quorum
#      detection, bounded retry, and the degradation ladder must all
#      leave their marks in the manifest ([expect] rows) and decision
#      audit, and a deliberately failing [expect] row must exit 1 naming
#      the row
#   5. perf_suite --check, smoke and full spans (~7 s): the allocation
#      pins (event engine, session source, cluster pools, histogram
#      windows) must hold
#   6. bad input: a run window with warmup >= duration, a malformed
#      controller param in a spec file and one in a --set override, an
#      out-of-range value, an overflowing db_size, malformed routing and
#      autoscaler params, a sweep grid point whose axis values are
#      valid alone, non-positive service-time means, an empty database,
#      inverted or negative PA/IS/GS/Iyer controller bounds, a non-positive
#      Tay threshold, a Tay-rule k(t) reaching 0, an outer tuner on a
#      multi-node cluster, and PA estimator, threshold and power-of-d router
#      and hysteresis and PI autoscaler params their constructors reject
#      and [expect] rows with an unknown leaf, a variant key that is unknown
#      or cluster-only on a single-node spec, an inverted `in` range or a
#      non-numeric bound must each exit 1 with an error line, never die by
#      a signal
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

echo "== alc_compare reports a changed spec text as a line diff"
# The golden's spec text with one line changed and two appended: the report
# names those three lines, not both 263-line texts.
python3 - specs/golden/node_failover.run.json "$OUT_DIR/respec.json" <<'PY'
import json, sys
manifest = json.load(open(sys.argv[1]))
manifest["spec"] = manifest["spec"].replace("seed = 42", "seed = 43", 1)
manifest["spec"] += "\n# appended one\n# appended two"
json.dump(manifest, open(sys.argv[2], "w"))
PY
status=0
"./$BUILD_DIR/tools/alc_compare" specs/golden/node_failover.run.json \
  "$OUT_DIR/respec.json" >"$OUT_DIR/respec.out" 2>&1 || status=$?
if [ "$status" -ne 1 ] || [ "$(wc -l <"$OUT_DIR/respec.out")" -gt 8 ] ||
  ! grep -q '^  - seed = 42$' "$OUT_DIR/respec.out" ||
  ! grep -q '^  + seed = 43$' "$OUT_DIR/respec.out" ||
  ! grep -q '^  + # appended two$' "$OUT_DIR/respec.out"; then
  echo "premerge: alc_compare's spec-text report (exit $status):" >&2
  cat "$OUT_DIR/respec.out" >&2
  exit 1
fi

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
# Runs alc_run with arguments that must be rejected: exit status exactly 1
# (a signal death is 128 + signo) and a message on stderr.
expect_input_error() {
  local status=0
  "./$BUILD_DIR/tools/alc_run" "$@" >/dev/null 2>"$OUT_DIR/bad_input.err" ||
    status=$?
  if [ "$status" -ne 1 ] || ! grep -q 'alc_run: ' "$OUT_DIR/bad_input.err"; then
    echo "premerge: alc_run $* exited $status; expected 1 with an error:" >&2
    cat "$OUT_DIR/bad_input.err" >&2
    exit 1
  fi
}
printf '[node]\ncontrol.controller = parabola-approximation\ncontrol.pa.index = bogus\n' \
  >"$OUT_DIR/bad_index.spec"
expect_input_error perfbench/workloads/single.spec --set warmup=300
expect_input_error "$OUT_DIR/bad_index.spec"
expect_input_error perfbench/workloads/single.spec \
  --set node.control.pa.dither=abc
expect_input_error perfbench/workloads/fleet.spec --set duration=2 \
  --set warmup=1 --set node.physical.num_cpus=0
expect_input_error perfbench/workloads/fleet.spec --set duration=2 \
  --set warmup=1 --set node.logical.db_size=4294967297
expect_input_error specs/cluster_routing_flash.spec --set routing=power-of-d \
  --set routing.power-of-d.d=x
expect_input_error specs/elasticity_flash.spec --set elasticity.scaler=pi \
  --set elasticity.scaler.pi.kp=abc
expect_input_error specs/smoke.spec --set warmup=1 --set duration=6 \
  --sweep warmup=1,5 --sweep duration=3,10
for bad in node.physical.cpu_access_mean=-0.001 \
  node.physical.restart_delay_mean=-1 node.logical.db_size=0 \
  node.control.pa.min_bound=300 node.control.pa.dither=-5 \
  node.control.outer_tuner=true; do
  expect_input_error specs/node_failover.spec --set "$bad"
done
# Each entry: an [expect] row the parser must reject at its line.
for row in 'bad = summary.bogus > 0' \
  'bad = summary.commits[no_such_key=1] > 0' \
  'bad = summary.commits[retraction=false] > 0' \
  'bad = summary.throughput in [2, 1]' \
  'bad = summary.throughput > many'; do
  printf '[experiment]\ncluster = false\n[node]\n[expect]\n%s\n' "$row" \
    >"$OUT_DIR/bad_row.spec"
  expect_input_error "$OUT_DIR/bad_row.spec"
  if ! grep -q "line 5: expect row 'bad'" "$OUT_DIR/bad_input.err"; then
    echo "premerge: '$row' was not rejected at its line:" >&2
    cat "$OUT_DIR/bad_input.err" >&2
    exit 1
  fi
done
# Each entry: a controller, a colon, and an override that controller's
# constructor or Update would abort on.
for bad in incremental-steps:node.control.is.beta=0 \
  incremental-steps:node.control.is.min_bound=5000 \
  golden-section:node.control.gs.samples_per_probe=0 \
  golden-section:node.control.gs.min_bound=5000 \
  iyer-rule:node.control.iyer.gain=-1 \
  iyer-rule:node.control.iyer.min_bound=5000 \
  tay-rule:node.control.tay.threshold=0 \
  'tay-rule:node.dynamics.k=steps(8;2:0)'; do
  expect_input_error specs/node_failover.spec --set duration=5 \
    --set warmup=1 --set "node.control.controller=${bad%%:*}" \
    --set "${bad#*:}"
done

# Each entry: a spec, a colon, and comma-separated overrides with a value a
# policy constructor would abort on (the PA controller's RLS estimator, the
# threshold and power-of-d routers, the hysteresis and PI autoscalers).
for bad in specs/smoke.spec:node.control.pa.forgetting=1.5 \
  specs/smoke.spec:node.control.pa.initial_covariance=0 \
  specs/smoke.spec:routing=power-of-d,routing.power-of-d.d=0 \
  specs/smoke.spec:routing=threshold,routing.threshold.min_threshold=0.5 \
  specs/elasticity_flash.spec:elasticity.scaler.hysteresis.hold_ticks=0 \
  specs/elasticity_flash.spec:elasticity.scaler.hysteresis.up_queue_factor=0.1 \
  specs/elasticity_flash.spec:elasticity.scaler=pi,elasticity.scaler.pi.integral_clamp=0 \
  specs/elasticity_flash.spec:elasticity.scaler=pi,elasticity.scaler.pi.cooldown=-1; do
  sets=()
  IFS=, read -ra overrides <<< "${bad#*:}"
  for override in "${overrides[@]}"; do sets+=(--set "$override"); done
  expect_input_error "${bad%%:*}" --set duration=2 --set warmup=0 \
    "${sets[@]}"
done

echo "premerge: all gates passed"
