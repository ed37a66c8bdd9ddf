#!/usr/bin/env python3
"""bench_smoke_pipeline: every workload of BENCHMARK.json at smoke size,
untraced and traced (serve_wire over a real socket). Each run must exit
0, pass its correctness checks, and print exactly the metrics — names
and units — that BENCHMARK.json declares.

    python3 smoke_test.py --bench build/lfsc_bench --spec BENCHMARK.json
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--spec", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                command = [args.bench, "--workload", workload, "--smoke",
                           "--seed", "3", "--workdir", tmp]
                if trace:
                    command += ["--trace", os.path.join(tmp, "spans.jsonl")]
                out = subprocess.run(command, capture_output=True, text=True,
                                     timeout=300)
                label = f"{workload} trace={trace}"
                lines = out.stdout.strip().splitlines()
                if out.returncode != 0 or not lines:
                    failures.append(f"{label}: exit {out.returncode}\n"
                                    f"{out.stdout[-3000:]}{out.stderr[-3000:]}")
                    continue
                result = json.loads(lines[-1])
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"] or result["attempted"] < 1:
                    failures.append(f"{label}: incorrect result "
                                    f"{lines[-1][:400]}")
                if printed != declared[trace]:
                    failures.append(
                        f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared[trace]) - set(printed))}"
                        f", extra {sorted(set(printed) - set(declared[trace]))}"
                        f", units {printed}")
                print(f"{label}: ok ({len(printed)} metrics)")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
