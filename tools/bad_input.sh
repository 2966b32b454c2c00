#!/usr/bin/env bash
# Bad input is an error, not a crash: every repro below (malformed or
# out-of-range spec lines, overrides, policy params and [expect] rows) must
# make alc_run exit exactly 1 with an `alc_run: ...` line on stderr. A
# signal death (128 + signo) means an ALC_CHECK abort in a factory, a
# constructor or a random draw slipped through. Last, alc_compare must
# report a changed multi-line spec text as a line diff of the changed
# lines, a fleet-sized one too. tools/premerge.sh and every CI leg run
# this one list.
#
#   $ tools/bad_input.sh build
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: tools/bad_input.sh <build-dir>}"
ALC_RUN="./$BUILD_DIR/tools/alc_run"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

fail() {
  echo "bad_input: $1" >&2
  cat "$2" >&2
  exit 1
}

# Runs alc_run with arguments that must be rejected.
expect_input_error() {
  local status=0
  "$ALC_RUN" "$@" >/dev/null 2>"$OUT_DIR/bad_input.err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -q 'alc_run: ' "$OUT_DIR/bad_input.err"; then
    fail "alc_run $* exited $status; expected 1 with an error:" \
      "$OUT_DIR/bad_input.err"
  fi
}

printf '[node]\ncontrol.controller = parabola-approximation\ncontrol.pa.index = bogus\n' \
  >"$OUT_DIR/bad_index.spec"
expect_input_error perfbench/workloads/single.spec --set warmup=300
expect_input_error "$OUT_DIR/bad_index.spec"
expect_input_error perfbench/workloads/single.spec \
  --set node.control.pa.dither=abc
expect_input_error perfbench/workloads/single.spec \
  --set node.logical.accesses_per_txn=abc
expect_input_error specs/smoke.spec --set placement.workload.query_fraction=x
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
    fail "'$row' was not rejected at its line:" "$OUT_DIR/bad_input.err"
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

# The golden's spec text with one line changed and two appended: the report
# names those three lines, not both full texts.
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
  fail "alc_compare's spec-text report (exit $status):" "$OUT_DIR/respec.out"
fi

# A fleet-sized spec text: diurnal_1m printed (256 [node] sections, about
# 10k lines) with three lines more in every [node] section on one side and
# three lines appended on the other. The report holds exactly those lines,
# one header per run of them, and its first and last line.
"$ALC_RUN" specs/diurnal_1m.spec --print >"$OUT_DIR/fleet.spec"
removed=$(python3 - "$OUT_DIR/fleet.spec" "$OUT_DIR/fleet_a.json" \
  "$OUT_DIR/fleet_b.json" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().split("\n")
extra = ["logical.accesses_per_txn = 8", "logical.query_fraction = 0.3",
         "logical.write_fraction = 0.4"]
longer = []
for line in lines:
    longer.append(line)
    if line == "[node]":
        longer += extra
appended = ["# appended one", "# appended two", "# appended three"]
json.dump({"spec": "\n".join(longer)}, open(sys.argv[2], "w"))
json.dump({"spec": "\n".join(lines + appended)}, open(sys.argv[3], "w"))
print(len(longer) - len(lines))
PY
)
status=0
"./$BUILD_DIR/tools/alc_compare" "$OUT_DIR/fleet_a.json" \
  "$OUT_DIR/fleet_b.json" >"$OUT_DIR/fleet.out" 2>&1 || status=$?
if [ "$status" -ne 1 ] || [ "$removed" -lt 700 ] ||
  [ "$(grep -c '^  - ' "$OUT_DIR/fleet.out")" -ne "$removed" ] ||
  [ "$(grep -c '^  + ' "$OUT_DIR/fleet.out")" -ne 3 ] ||
  [ "$(wc -l <"$OUT_DIR/fleet.out")" -gt $((removed + 3 + removed / 3 + 3)) ]
then
  head -c 4000 "$OUT_DIR/fleet.out" >"$OUT_DIR/fleet.head"
  fail "alc_compare's fleet-sized spec-text report (exit $status, $(wc -l \
    <"$OUT_DIR/fleet.out") lines; first 4000 bytes):" "$OUT_DIR/fleet.head"
fi

echo "bad_input: every repro rejected cleanly"
