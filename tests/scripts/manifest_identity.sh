#!/usr/bin/env bash
# Cross-build manifest identity: two vstack_cli binaries must write the same
# campaign manifest bytes (wall_seconds masked -- it is real time).
#
# Runs `campaign --trials=4 --jobs=4 --timeout=0` with each binary at two
# grid sizes, one per transient step path:
#
#   --grid=16  8 layers x 16x16: above the direct-solver node limit, so every
#              step matrix goes to the iterative la::Solver rung;
#   --grid=8   8 layers x 8x8: below it, so steps use the RCM-reordered
#              skyline Cholesky.
#
# A performance change that claims identical outputs runs this with the
# parent commit's binary as BASE_CLI and its own as HEAD_CLI.
#
# Usage: manifest_identity.sh BASE_CLI HEAD_CLI
set -euo pipefail

BASE_CLI=$(readlink -f "${1:?usage: manifest_identity.sh BASE_CLI HEAD_CLI}")
HEAD_CLI=$(readlink -f "${2:?usage: manifest_identity.sh BASE_CLI HEAD_CLI}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/vstack_manifest_identity.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

for grid in 16 8; do
  for side in base head; do
    cli=$BASE_CLI
    [ "$side" = head ] && cli=$HEAD_CLI
    echo "== $side: campaign --grid=$grid =="
    "$cli" campaign --grid="$grid" --trials=4 --jobs=4 --timeout=0 \
        --manifest="$WORK/$side-$grid.jsonl" >/dev/null
  done
  python3 - "$WORK/base-$grid.jsonl" "$WORK/head-$grid.jsonl" "$grid" <<'EOF'
import re, sys

base_path, head_path, grid = sys.argv[1], sys.argv[2], sys.argv[3]
mask = lambda p: re.sub(r'("wall_seconds":)[^,}]*', r'\1X', open(p).read())
base, head = mask(base_path), mask(head_path)
if base != head:
    for i, (b, h) in enumerate(zip(base.splitlines(), head.splitlines())):
        if b != h:
            print(f"FAIL grid={grid}: manifests differ at line {i + 1}\n"
                  f"  base: {b}\n  head: {h}")
            break
    else:
        print(f"FAIL grid={grid}: manifests differ in length")
    sys.exit(1)
lines = len(base.splitlines())
print(f"grid={grid}: manifests identical ({lines} lines, wall_seconds masked)")
EOF
done
