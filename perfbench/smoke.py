#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs a tiny run (--seconds 1) of every workload, plain and traced, and
asserts that each run exits 0 and that its output parses: the summary line
carries exactly the metrics BENCHMARK.json lists, each with its unit, and
the record line carries the host fingerprint, the seed, the output digest
and the workload's own named metrics. Exits non-zero on the first failure.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

# Named metrics each workload's record must carry besides the gated ones.
DETAIL = {
    "stream": ["serial_msps", "decode_msps", "shard_msps",
               "window_latency_p50_ms", "window_latency_p90_ms",
               "frame_recovery", "failed_frac"],
    "epoch16": ["serial_msps", "decode_msps", "shard_msps",
                "epoch_latency_p50_ms", "epoch_latency_p90_ms",
                "frame_recovery", "failed_frac"],
    "fanout": ["fanout_kfps", "burst_kfps", "delivery_latency_p50_ms",
               "delivery_latency_p90_ms", "delivery_latency_p99_ms",
               "generator_late_ms_p99", "frame_recovery", "failed_frac"],
}


def fail(msg: str) -> None:
    sys.stderr.write(f"smoke: FAIL: {msg}\n")
    sys.exit(1)


def check(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        fail(f"{tag} exited {proc.returncode}\n{proc.stdout[-3000:]}"
             f"\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: summary keys {sorted(summary)}")
    if summary["correct"] is not True:
        fail(f"{tag}: correct is {summary['correct']}")
    if not (isinstance(summary["attempted"], int) and summary["attempted"] >= 1
            and isinstance(summary["failed"], int)):
        fail(f"{tag}: attempted/failed malformed")
    want = spec["per_layer" if trace else "end_to_end"]
    got = summary["metrics"]
    if list(got) != [m["name"] for m in want]:
        fail(f"{tag}: metrics {list(got)} != {[m['name'] for m in want]}")
    for m in want:
        entry = got[m["name"]]
        if set(entry) != {"value", "unit"} or entry["unit"] != m["unit"]:
            fail(f"{tag}: {m['name']} is {entry}, unit should be {m['unit']}")
        if not isinstance(entry["value"], (int, float)):
            fail(f"{tag}: {m['name']} value is not a number")
        if not trace and entry["value"] <= 0:
            fail(f"{tag}: end-to-end {m['name']} reads {entry['value']}")

    record_lines = [l for l in lines if l.startswith('{"record"')]
    if len(record_lines) != 1:
        fail(f"{tag}: expected one record line")
    record = json.loads(record_lines[0])["record"]
    if record["workload"] != workload or record["seed"] != SEED:
        fail(f"{tag}: record workload/seed {record['workload']}/"
             f"{record['seed']}")
    if set(record["host"]) != {"cpu", "nproc", "build_type", "compiler"}:
        fail(f"{tag}: host fingerprint {record['host']}")
    if not re.fullmatch(r"[0-9a-f]{16}", record["digest"]):
        fail(f"{tag}: digest {record['digest']!r}")
    for name in DETAIL[workload]:
        if name not in record["metrics"]:
            fail(f"{tag}: record lacks {name}")
    if trace and workload == "fanout" and got["decode_spans"]["value"] != 0:
        fail(f"{tag}: fanout recorded decode spans")
    print(f"smoke: {tag} ok ({summary['attempted']} attempted, "
          f"{summary['failed']} failed)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check(workload, trace, spec)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
