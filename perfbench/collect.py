"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 --out .bench_out/set-a.json
    python3 perfbench/collect.py --summary .bench_out/set-a.json [.bench_out/set-b.json]

The first form runs ``run.py`` once per workload of ``BENCHMARK.json`` and
seed (in that order, workload by workload), each for the benchmark's
``run_seconds``, and saves every result line.  The second prints, per
workload and end-to-end metric, the median, the quartiles of the runs as
``statistics.quantiles(values, n=4)`` gives them, and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound.  Given a second file it also prints how far its median moved
from the first, counted positive in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCHMARK, HERE

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(seeds, trace: int, out: Path) -> None:
    results = []
    for workload in WORKLOADS:
        for seed in seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append({"workload": workload, "seed": seed, "trace": trace, "report": report})
            print(f"{workload} seed={seed}: {json.dumps(report['metrics'])}", flush=True)
            out.write_text(json.dumps(results, indent=1) + "\n")


def _medians(results) -> dict:
    values: dict = {}
    for r in results:
        for name, m in r["report"]["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values


def summary(first: Path, second: Path | None) -> None:
    a = _medians(json.loads(first.read_text()))
    b = _medians(json.loads(second.read_text())) if second else {}
    for workload in WORKLOADS:
        print(workload)
        for m in BENCHMARK["end_to_end"]:
            name, unit, better, bound = m["name"], m["unit"], m["better"], m["bound"]
            vals = a.get((workload, name))
            if not vals:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            line = (
                f"  {name:22s} median {med:10.5g} {unit:6s} q1 {q1:10.5g} q3 {q3:10.5g} "
                f"spread {spread:6.3f} (bound {bound}, {spread / bound:4.2f} of it) n={len(vals)}"
            )
            if (workload, name) in b:
                med_b = statistics.median(b[(workload, name)])
                worse = (med_b - med) / med * (1 if better == "lower" else -1)
                line += f"  second set {med_b:.5g}, worse by {worse:+.3f}"
            print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summary", type=Path, nargs="+")
    args = parser.parse_args()
    if args.summary:
        summary(args.summary[0], args.summary[1] if len(args.summary) > 1 else None)
        return 0
    if args.out is None:
        parser.error("--out is required when collecting")
    collect(_seeds(args.seeds), args.trace, args.out)
    summary(args.out, None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
