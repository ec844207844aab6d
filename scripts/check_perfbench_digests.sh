#!/usr/bin/env bash
# Pins perfbench's output digests: decoded bits must not move.
#
#   scripts/check_perfbench_digests.sh
#
# Runs a one-second untraced perfbench run of `stream` and `epoch16` at
# seeds 1 and 2 and compares each run's record digest with the constant
# below. The digest hashes only discrete outputs of the serial reference
# decode (stream bits, frame CRC verdicts, fallback stage), so it is the
# same on any host, core count and run length. A change that moves a
# decoded bit on purpose re-records the constants and says why in
# CHANGES.md. Run from anywhere; exits non-zero on the first mismatch.
set -euo pipefail

cd "$(dirname "$0")/.."

EXPECTED=(
  "epoch16 1 5f94e54d6f76473a"
  "epoch16 2 4852e2d85e90aa9c"
  "stream 1 226f974354270618"
  "stream 2 a8bb160c369826df"
)

for entry in "${EXPECTED[@]}"; do
  read -r workload seed want <<<"$entry"
  if ! out=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds 1 --trace 0); then
    echo "digests: FAIL: $workload seed $seed: perfbench exited non-zero" >&2
    exit 1
  fi
  got=$(printf '%s\n' "$out" | python3 -c '
import json, sys
records = [l for l in sys.stdin if l.startswith("{\"record\"")]
print(json.loads(records[-1])["record"]["digest"] if records else "")')
  if [[ "$got" != "$want" ]]; then
    echo "digests: FAIL: $workload seed $seed: digest ${got:-missing}," \
         "expected $want" >&2
    exit 1
  fi
  echo "digests: $workload seed $seed ok ($got)"
done
echo "digests: all ok"
