"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-manufactured --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The solver is imported from the
checkout's ``src`` in fresh worker processes (``worker.py``), never from an
installed copy.  With ``--trace 0`` the run reports the end-to-end metrics:
set-up is measured in ``SETUP_RUNS`` fresh processes and reported as their
median; one of them, in the middle, also runs the closed loop.  Times are reported at a
fixed reference speed (see ``CAL_REF_MS``); the raw wall-clock figures are
printed beside them.  With ``--trace 1`` one process makes a traced pass
over the workload's menu and the run reports the per-layer metrics; a layer
the program no longer has is reported as absent (null), not as zero.  Human-readable lines come first; the last line of
standard output is the JSON result.  Raw records go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".bench_out"
# Workload and metric names, units and bounds.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_RUNS = 9
# Op and set-up times are reported at a fixed reference speed: each is
# multiplied by CAL_REF_MS over the time of a calibration kernel measured
# next to it in the same process (``worker.calibrate``).  The machines this
# benchmark runs on are shared, and other tenants slow every op by 20-50%
# for tens of seconds at a time; the calibration slows with them, so the
# ratio stays steady where raw wall time does not.  CAL_REF_MS is a fixed
# scale, the kernel's time on the baseline machine (BASELINE.md) in its
# slower phases, so values read as milliseconds at that speed.
CAL_REF_MS = 6.5
# One BLAS thread (never more than nproc): a single client solving systems
# of at most 193 unknowns gains nothing from more, and extra threads on a
# shared machine add noise.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_worker(args, extra: list[str]) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _at_reference_speed(ms: float, cal_ms: float) -> float:
    return ms * CAL_REF_MS / cal_ms


def end_to_end(result: dict, setups: list[dict]) -> dict:
    records = result["records"]
    ms = [_at_reference_speed(r["ms"], r["cal_ms"]) for r in records]
    values = {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": _quantile(ms, 90),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "setup_s": statistics.median(
            _at_reference_speed(s["setup_s"], s["setup_cal_ms"]) for s in setups
        ),
        "peak_rss_mb": result["peak_rss_mb"],
        "accuracy_digits.min": result["accuracy_digits_min"],
    }
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCHMARK["end_to_end"]
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    return {
        m["name"]: {"value": layers.get(m["name"]), "unit": m["unit"]} for m in BENCHMARK["per_layer"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "muntzvide" / "__init__.py").is_file():
        print(f"perfbench: no solver sources at {ROOT / 'src' / 'muntzvide'}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)

    if args.trace:
        result = _run_worker(args, ["--trace"])
        metrics = per_layer(result)
    else:
        # Half the set-up processes run before the loop and half after it, so
        # that their median samples the machine over the whole run rather than
        # in one burst of a few seconds.
        before = SETUP_RUNS // 2
        setups = [_run_worker(args, ["--setup-only"]) for _ in range(before)]
        result = _run_worker(args, [])
        setups.append(result)
        setups += [_run_worker(args, ["--setup-only"]) for _ in range(SETUP_RUNS - 1 - before)]
        metrics = end_to_end(result, setups)

    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(records)} ops, closed loop, one client"
    )
    for name, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        if not args.trace:
            samples = {"setup_s": SETUP_RUNS, "peak_rss_mb": 1}.get(name, len(records))
            shown += f" (n={samples})"
        print(f"  {name:40s} {shown}")
    print(f"  {'failed_ratio':40s} {len(failed) / len(records):.6g} ({len(failed)}/{len(records)})")
    if not args.trace:
        wall = [r["ms"] for r in records]
        cal = statistics.median(r["cal_ms"] for r in records)
        print(
            f"  wall clock, not calibrated: op_ms.p50 {statistics.median(wall):.6g} ms, "
            f"op_ms.p90 {_quantile(wall, 90):.6g} ms, calibration median {cal:.4g} ms "
            f"(reference {CAL_REF_MS} ms), {len(records)} ops"
        )
    for r in failed[:5]:
        print(f"  FAILED {r['item']}: {r['message']}")
    if result.get("absent"):
        print(f"  absent layers: {', '.join(result['absent'])}")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")

    report = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    record_path = OUTDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"args": vars(args), "report": report, "worker": result}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
