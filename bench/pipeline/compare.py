#!/usr/bin/env python3
"""Parent-versus-change evaluation of lfsc_bench results.

Run the benchmark at least ten times on each commit, alternating which
side goes first, with `lfsc_bench --all --seed S --json FILE` (or one
workload at a time). Then:

    python3 bench/pipeline/compare.py --spec BENCHMARK.json \
        --parent p01.json ... p10.json --change c01.json ... c10.json \
        [--claim paper:slots_per_s]

Pair i is (parent[i], change[i]). The rules:

* The claimed metric on the claimed workload is a gain only when the
  change wins at least 9 of every 10 pairs (ties count for neither side),
  its median beats the parent's by more than the distance between the
  parent's quartiles, and no more operations fail than at the parent.
* Every other end-to-end metric must not be worse than the parent's
  median by more than its bound in BENCHMARK.json. When the run-to-run
  spread (quartile distance over median, either side) is wider than the
  bound, the metric is "unresolved" unless every change run beats every
  parent run.

Prints one row per workload. Exits 1 when a claim is not met or a metric
regressed, 2 on unusable input.
"""
import argparse
import json
import statistics
import sys

MIN_PAIRS = 10


def load_runs(paths):
    """Each file: lfsc_bench --json output ({workload: result})."""
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def worse_share(change, parent, direction):
    """How much worse change is than parent, as a share of parent."""
    if parent == 0:
        return 0.0
    gap = (parent - change) if direction == "higher" else (change - parent)
    return gap / abs(parent)


def evaluate(spec, parent_runs, change_runs, claim=None):
    """Returns (rows, ok): rows = [(workload, verdict, details)]."""
    if len(parent_runs) != len(change_runs):
        raise ValueError("parent and change need the same number of runs")
    if len(parent_runs) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, got "
                         f"{len(parent_runs)}")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claim_workload, claim_metric = claim if claim else (None, None)
    if claim_metric is not None and claim_metric not in metrics:
        raise ValueError(f"claimed metric {claim_metric} is not end-to-end")
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    ok = True
    for workload in workloads:
        pairs = [(p.get(workload), c.get(workload))
                 for p, c in zip(parent_runs, change_runs)]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        if len(pairs) < MIN_PAIRS:
            raise ValueError(f"{workload}: only {len(pairs)} pairs")
        details = []
        verdict = "ok"
        failed_p = sum(p["failed"] for p, _ in pairs)
        failed_c = sum(c["failed"] for _, c in pairs)
        if not all(c["correct"] for _, c in pairs):
            verdict = "incorrect"
            details.append("a change run failed its correctness checks")
        for name, m in metrics.items():
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            direction, bound = m["better"], m["bound"]
            p1, pmed, p3 = quartiles(pv)
            c1, cmed, c3 = quartiles(cv)
            if name == claim_metric and workload == claim_workload:
                wins = sum(better(c, p, direction) for p, c in zip(pv, cv))
                gap = (cmed - pmed) if direction == "higher" else (pmed - cmed)
                met = (wins >= 0.9 * len(pairs) and gap > (p3 - p1)
                       and failed_c <= failed_p)
                details.append(
                    f"CLAIM {name}: {pmed:.6g} -> {cmed:.6g}, won "
                    f"{wins}/{len(pairs)}, gap {gap:.6g} vs parent IQR "
                    f"{p3 - p1:.6g}, failed {failed_p} -> {failed_c}: "
                    + ("met" if met else "NOT MET"))
                if not met:
                    verdict = "claim not met"
                    ok = False
                continue
            spread = max((p3 - p1) / abs(pmed) if pmed else 0.0,
                         (c3 - c1) / abs(cmed) if cmed else 0.0)
            worse = worse_share(cmed, pmed, direction)
            all_better = all(better(c, p, direction)
                             for c in cv for p in pv)
            if spread > bound and not all_better:
                details.append(f"{name} unresolved (spread {spread:.1%} > "
                               f"bound {bound:.0%})")
                if verdict == "ok":
                    verdict = "unresolved"
            elif worse > bound:
                details.append(f"{name} REGRESSED {worse:+.1%} "
                               f"(bound {bound:.0%})")
                verdict = "regressed"
                ok = False
            else:
                details.append(f"{name} {-worse:+.1%}")
        rows.append((workload, verdict, "; ".join(details)))
    return rows, ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spec", required=True, help="BENCHMARK.json")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", help="workload:metric the change claims")
    args = parser.parse_args(argv)
    claim = None
    if args.claim:
        if ":" not in args.claim:
            parser.error("--claim takes workload:metric")
        claim = tuple(args.claim.split(":", 1))
    try:
        with open(args.spec) as f:
            spec = json.load(f)
        rows, ok = evaluate(spec, load_runs(args.parent),
                            load_runs(args.change), claim)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    width = max(len(w) for w, _, _ in rows) if rows else 8
    for workload, verdict, details in rows:
        print(f"{workload:<{width}}  {verdict:<13}  {details}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
