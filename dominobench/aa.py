"""A/A check: two sets of benchmark runs of the same code must agree.

Usage::

    python3 dominobench/aa.py [--runs 10] [--sets 2] [--workload NAME ...]
                              [--out results.json]

Runs the command from BENCHMARK.json ``--runs`` times per workload and
set, each run with another seed (0, 1, ...; every set reuses the same
seeds), untraced.  For every workload x end-to-end metric it prints
each set's median, quartiles (``statistics.quantiles`` with n=4) and
spread (quartile distance over median), and checks:

* every run reported ``correct`` with no failed operation;
* each spread is within the metric's bound;
* each later set's median differs from the first set's, either way, by
  no more than the bound.

It also prints the spread of the unscaled timed values each run
reports on stderr (see "Host-speed scale" in README.md), for
comparison only.  ``--out`` writes every run's values, the unscaled
ones and the printed summary as JSON.
Exit status 0 when every check holds, 1 otherwise.  Run from the root
of the checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


RAW_LINE = re.compile(r"host speed scale ([\d.]+) .*raw: (.*)$", re.M)


def run_once(command: List[str], workload: str, seed: int,
             seconds: int) -> tuple:
    """(result, unscaled timed values with the scale) of one run."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    raw_line = RAW_LINE.search(done.stderr)
    raw = {"scale": float(raw_line.group(1))}
    for part in raw_line.group(2).split(", "):
        name, value = part.split()
        raw[name] = float(value)
    return json.loads(done.stdout.strip().splitlines()[-1]), raw


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv: List[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values: Dict[str, Dict[str, List[List[float]]]] = {}
    unscaled: Dict[str, Dict[str, List[List[float]]]] = {}
    ok = True
    for set_index in range(args.sets):
        for workload in args.workload or names:
            per_metric = values.setdefault(workload, {})
            per_raw = unscaled.setdefault(workload, {})
            for i in range(args.runs):
                result, raw = run_once(spec["command"], workload, i,
                                       spec["run_seconds"])
                for name, value in raw.items():
                    sets = per_raw.setdefault(name, [])
                    while len(sets) <= set_index:
                        sets.append([])
                    sets[set_index].append(value)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{workload} seed {i}: "
                          f"{result['failed']} of {result['attempted']} "
                          "operations failed", file=sys.stderr)
                for name, metric in result["metrics"].items():
                    sets = per_metric.setdefault(name, [])
                    while len(sets) <= set_index:
                        sets.append([])
                    sets[set_index].append(metric["value"])
                print(f"set {set_index} {workload} seed {i} "
                      "done", file=sys.stderr, flush=True)

    print(f"{'workload':14s} {'metric':16s} set {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    summary = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload, per_metric in values.items():
            first = None
            for set_index, sample in enumerate(per_metric[name]):
                s = summarize(sample)
                failures, notes = [], []
                if s["spread"] > bound:
                    failures.append("SPREAD")
                elif s["spread"] > bound / 3:
                    notes.append("spread>bound/3")
                if first is None:
                    first = s["median"]
                elif abs(s["median"] - first) > bound * first:
                    failures.append("DISAGREE")
                ok = ok and not failures
                verdict = " ".join(failures + notes) or "ok"
                summary.append({"workload": workload, "metric": name,
                                "set": set_index, "bound": bound, **s,
                                "verdict": verdict})
                print(f"{workload:14s} {name:16s} {set_index:3d} "
                      f"{s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                      f"{s['spread']:7.3f} {bound:6.2f}  {verdict}")
    print("unscaled, for comparison:")
    for workload, per_raw in unscaled.items():
        for name, sets in per_raw.items():
            print(f"{workload:14s} {name:16s} spreads " + " ".join(
                f"{summarize(sample)['spread']:.3f}" for sample in sets))
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"values": values, "unscaled": unscaled, "summary": summary,
             "agree": ok}, indent=1))
    print("A/A agree" if ok else "A/A FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
