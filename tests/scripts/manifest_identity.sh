#!/usr/bin/env bash
# Cross-build output identity: two vstack_cli binaries must write the same
# campaign manifest bytes (wall_seconds masked -- it is real time) and
# print the same contingency and figure reports.
#
# Runs `campaign --trials=4 --jobs=4 --timeout=0` with each binary at two
# grid sizes, one per transient step path:
#
#   --grid=16  8 layers x 16x16: above the direct-solver node limit, so every
#              step matrix goes to the iterative la::Solver rung;
#   --grid=8   8 layers x 8x8: below it, so steps use the RCM-reordered
#              skyline Cholesky.
#
# Each binary also runs the --grid=8 campaign as a 4-worker shard fleet
# (`--shards=4 --chunk=1 --job-dir=...`): its merged.jsonl must equal the
# other binary's and the serial --grid=8 manifest.
#
# Then the spool service, once per binary (shard::make_campaign builds the
# campaign of the CLI, of the service and of every shard worker):
# `serve --max-requests=6 --idle-exit=1` answers a campaign request
# (4 layers, 8x8, 4 trials, seed 7), an N-1 contingency, a ride-through and
# figure-5a, 5b and 6 sweeps; `serve --shard-workers=2` answers the same
# campaign request on a worker fleet.  A sweep response's data_hash is an
# FNV-1a over the bits of every figure cell, so equal responses mean
# bit-equal figures 5a, 5b and 6.  The service's manifests/c1.jsonl, the fleet's
# jobs/c1/merged.jsonl and a serial `campaign --layers=4 --grid=8
# --trials=4 --seed=7` manifest must be equal within each binary and
# across the two.  Both responses.jsonl files must equal the other
# binary's with the run-dependent fields masked: wall_seconds, attempts,
# resumed and evaluated (docs/service_mode.md section 5).
#
# Then compares stdout and exit code of the campaign table routes:
# `campaign --compare` (stacked vs regular-3D) and `campaign
# --converters=4` (a resolved config the job spec cannot carry).
#
# Then compares stdout and exit code of `contingency` on both routes of the
# shared contingency engine: a synthesized 4-layer 12x12 stack (N-1 top-8
# and a seeded Monte Carlo campaign) and an exhaustive N-1 sweep of each
# imported pgio fixture.  Monte Carlo on imported grids (`--netlist ...
# --mc`) is left out on purpose: it moved onto core's sampler, so its draws
# differ from builds before that change.
#
# Then compares stdout and exit code of the transient routes directly.
# `ride-through --grid=8 --verbose` (recovered, 2 supervisor actions, exit 0)
# and `--keep=4 --verbose` (all four actions: rebalance, retarget, bypass,
# shutdown; exit 3) run the one adaptive PDN step loop; with --verbose their
# stdout carries the engine summary (step counts, dt range) and the event
# trail.  `ride-through --netlist=...` on each pgio fixture runs the
# imported-grid backward-Euler load step.  The two `spice` lines below run
# the circuit engine's fixed grid (`.tran 0.3125n 2u`) and its adaptive
# loop (`.tran 0.3125n 2u ADAPTIVE`, the loop of Fig. 3's SC testbench).
#
# Then compares stdout and exit code of `sweep --figure=F --jobs=4` for
# each figure and of `report --jobs=4`, which prints the same tables
# (Figs. 5a, 5b, 6, 7, 8), EM array lifetimes included.  The tables print
# three significant digits, so an equal report does not prove equal bits;
# for figures 5a, 5b and 6 the spool leg's data_hash does.  The bitwise
# contract on array lifetimes is also held by the ArrayMttfBitIdentity
# tests (tests/em/array_mttf_test.cpp) and by the bench/e2e `results`,
# which must equal the parent commit's exactly.
#
# Then the text front ends (common/text_input.h): `import --solve` and
# `validate` on each pgio fixture (netlist and .solution readers), `config`
# (the stackup-config writer, whose bytes the campaign config hash covers)
# and `spice` on the examples/spice_runner demo netlist, which this script
# writes into its work directory, once per stepping mode.
#
# Last, the single-scenario routes on an 8-layer stack: `noise
# --imbalance=0.65 --map` (one PDN DC solve and its droop map), `em
# --topology=regular` (per-conductor EM lifetimes), `efficiency
# --converters=8` (the power-efficiency breakdown) and `thermal` (the
# thermal grid, a one-shot la::Solver solve with default iteration
# options).
#
# A change that claims identical outputs runs this with the parent commit's
# binary as BASE_CLI and its own as HEAD_CLI.
#
# Usage: manifest_identity.sh BASE_CLI HEAD_CLI
set -euo pipefail

BASE_CLI=$(readlink -f "${1:?usage: manifest_identity.sh BASE_CLI HEAD_CLI}")
HEAD_CLI=$(readlink -f "${2:?usage: manifest_identity.sh BASE_CLI HEAD_CLI}")
ROOT=$(cd "$(dirname "$0")/../.." && pwd)
WORK=$(mktemp -d "${TMPDIR:-/tmp}/vstack_manifest_identity.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# compare_masked LABEL A B FIELD...: fail unless the JSONL files A and B are
# equal with the named fields' values masked.
compare_masked() {
  python3 - "$@" <<'EOF'
import re, sys

label, a_path, b_path, *fields = sys.argv[1:]
def mask(path):
    text = open(path).read()
    for field in fields:
        text = re.sub(r'("%s":)[^,}]*' % field, r'\1X', text)
    return text
a, b = mask(a_path), mask(b_path)
if a != b:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            print(f"FAIL {label}: files differ at line {i + 1}\n"
                  f"  {a_path}: {x}\n  {b_path}: {y}")
            break
    else:
        print(f"FAIL {label}: files differ in length")
    sys.exit(1)
lines = len(a.splitlines())
print(f"{label}: identical ({lines} lines, {', '.join(fields)} masked)")
EOF
}

# compare_manifests LABEL A B: campaign manifests, wall_seconds masked.
compare_manifests() {
  compare_masked "$1" "$2" "$3" wall_seconds
}

for grid in 16 8; do
  for side in base head; do
    cli=$BASE_CLI
    [ "$side" = head ] && cli=$HEAD_CLI
    echo "== $side: campaign --grid=$grid =="
    "$cli" campaign --grid="$grid" --trials=4 --jobs=4 --timeout=0 \
        --manifest="$WORK/$side-$grid.jsonl" >/dev/null
  done
  compare_manifests "grid=$grid" "$WORK/base-$grid.jsonl" \
      "$WORK/head-$grid.jsonl"
done

for side in base head; do
  cli=$BASE_CLI
  [ "$side" = head ] && cli=$HEAD_CLI
  echo "== $side: campaign --grid=8 --shards=4 =="
  "$cli" campaign --grid=8 --trials=4 --timeout=0 --shards=4 --chunk=1 \
      --job-dir="$WORK/$side-job" >/dev/null
  compare_manifests "$side: grid=8 sharded vs serial" \
      "$WORK/$side-job/merged.jsonl" "$WORK/$side-8.jsonl"
done
compare_manifests "grid=8 sharded" "$WORK/base-job/merged.jsonl" \
    "$WORK/head-job/merged.jsonl"

# submit SPOOL ID KIND [KEY=VALUE...]: queue one request on a 4-layer 8x8
# stack.
submit() {
  local spool=$1 id=$2 kind=$3
  shift 3
  mkdir -p "$spool/incoming"
  printf 'kind = %s\nlayers = 4\ngrid = 8\n' "$kind" >"$spool/req.tmp"
  for kv in "$@"; do printf '%s\n' "${kv/=/ = }" >>"$spool/req.tmp"; done
  mv "$spool/req.tmp" "$spool/incoming/$id.req"
}
campaign_request=(trials=4 seed=7)
for side in base head; do
  cli=$BASE_CLI
  [ "$side" = head ] && cli=$HEAD_CLI
  echo "== $side: serve (campaign, contingency, ride-through, 3 sweeps) =="
  spool="$WORK/$side-spool"
  submit "$spool" c1 campaign "${campaign_request[@]}"
  submit "$spool" n1 contingency mode=n-1
  submit "$spool" r1 ride-through
  submit "$spool" s1 sweep figure=6
  submit "$spool" s2 sweep figure=5a
  submit "$spool" s3 sweep figure=5b
  "$cli" serve --spool="$spool" --max-requests=6 --idle-exit=1 >/dev/null
  echo "== $side: serve --shard-workers=2 (campaign) =="
  fleet="$WORK/$side-fleet"
  submit "$fleet" c1 campaign "${campaign_request[@]}"
  "$cli" serve --spool="$fleet" --max-requests=1 --idle-exit=1 \
      --shard-workers=2 >/dev/null
  echo "== $side: campaign --layers=4 --grid=8 --trials=4 --seed=7 =="
  "$cli" campaign --layers=4 --grid=8 --trials=4 --seed=7 --timeout=0 \
      --jobs=4 --manifest="$WORK/$side-c1.jsonl" >/dev/null
  compare_manifests "$side: serve manifest vs campaign" \
      "$spool/manifests/c1.jsonl" "$WORK/$side-c1.jsonl"
  compare_manifests "$side: serve --shard-workers merged vs campaign" \
      "$fleet/jobs/c1/merged.jsonl" "$WORK/$side-c1.jsonl"
done
compare_manifests "serve manifest" "$WORK/base-spool/manifests/c1.jsonl" \
    "$WORK/head-spool/manifests/c1.jsonl"
compare_manifests "serve --shard-workers merged" \
    "$WORK/base-fleet/jobs/c1/merged.jsonl" \
    "$WORK/head-fleet/jobs/c1/merged.jsonl"
compare_manifests "campaign --layers=4 --seed=7" "$WORK/base-c1.jsonl" \
    "$WORK/head-c1.jsonl"
for spool in spool fleet; do
  compare_masked "serve $spool responses" \
      "$WORK/base-$spool/results/responses.jsonl" \
      "$WORK/head-$spool/results/responses.jsonl" \
      wall_seconds attempts resumed evaluated
done

pgio="$ROOT/tests/data/pgio"
# The built-in demo netlist of examples/spice_runner.cpp.
cat >"$WORK/spice_runner_demo.sp" <<'EOF'
.title built-in 2:1 SC halver demo
* One push-pull cell: C1/C2 swap between the upper and lower positions.
V1 vtop 0 2.0
C1 c1t c1b 2n IC=1.0
C2 c2t c2b 2n IC=1.0
Cout vout 0 1n IC=1.0
S1 c1t vtop 0.45 1g PHASE=0.0 DUTY=0.48
S2 c1b vout 0.45 1g PHASE=0.0 DUTY=0.48
S3 c2t vout 0.45 1g PHASE=0.0 DUTY=0.48
S4 c2b 0    0.45 1g PHASE=0.0 DUTY=0.48
S5 c1t vout 0.45 1g PHASE=0.5 DUTY=0.48
S6 c1b 0    0.45 1g PHASE=0.5 DUTY=0.48
S7 c2t vtop 0.45 1g PHASE=0.5 DUTY=0.48
S8 c2b vout 0.45 1g PHASE=0.5 DUTY=0.48
Iload vout 0 50m
.clock 20n
.tran 0.3125n 2u
.end
EOF
sed 's/^\.tran 0\.3125n 2u$/& ADAPTIVE/' "$WORK/spice_runner_demo.sp" \
    >"$WORK/spice_runner_demo_adaptive.sp"
status=0
while read -r args; do
  for side in base head; do
    cli=$BASE_CLI
    [ "$side" = head ] && cli=$HEAD_CLI
    code=0
    # shellcheck disable=SC2086  # $args is a subcommand and its flags
    "$cli" $args </dev/null >"$WORK/$side.out" 2>&1 || code=$?
    echo "exit $code" >>"$WORK/$side.out"
  done
  if cmp -s "$WORK/base.out" "$WORK/head.out"; then
    echo "$args: output identical ($(tail -n 1 "$WORK/head.out"))"
  else
    echo "FAIL $args: output differs"
    diff "$WORK/base.out" "$WORK/head.out" | head -n 20
    status=1
  fi
done <<EOF
campaign --grid=8 --trials=2 --timeout=0 --compare --jobs=4
campaign --grid=8 --trials=2 --timeout=0 --converters=4 --jobs=4
contingency --layers=4 --grid=12 --top=8
contingency --layers=4 --grid=12 --mc --trials=12 --faults=3 --seed=7
contingency --netlist=$pgio/ladder4.spice --exhaustive
contingency --netlist=$pgio/mesh3x3.spice --exhaustive
contingency --netlist=$pgio/twonet_vias.spice --exhaustive
ride-through --grid=8 --verbose
ride-through --grid=8 --keep=4 --verbose
ride-through --netlist=$pgio/ladder4.spice
ride-through --netlist=$pgio/mesh3x3.spice
ride-through --netlist=$pgio/twonet_vias.spice
sweep --figure=5a --jobs=4
sweep --figure=5b --jobs=4
sweep --figure=6 --jobs=4
sweep --figure=7 --jobs=4
sweep --figure=8 --jobs=4
report --jobs=4
import $pgio/ladder4.spice --solve
import $pgio/mesh3x3.spice --solve
import $pgio/twonet_vias.spice --solve
validate $pgio/ladder4.spice
validate $pgio/mesh3x3.spice
validate $pgio/twonet_vias.spice
config
spice $WORK/spice_runner_demo.sp
spice $WORK/spice_runner_demo_adaptive.sp
noise --layers=8 --imbalance=0.65 --map
em --topology=regular --layers=8
efficiency --layers=8 --converters=8
thermal --layers=8
EOF
exit $status
