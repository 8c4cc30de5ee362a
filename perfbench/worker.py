"""One benchmark process: set up, run one workload, check every op.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH`` and the BLAS thread count fixed in the environment.  Set-up
time is measured from the first line of this file, so it covers importing
numpy, scipy and the solver, building the workload's problems and the
warm-up ops.  The last line of standard output is one JSON object.

Modes:

* ``--setup-only``: report the set-up time and exit.
* untraced (default): a closed loop with one client; ops are dealt from the
  seeded deck, each timed alone, in whole passes over the menu until
  ``--seconds`` have passed.
* ``--trace``: one pass over the menu in seeded order; each item runs once
  untraced and once traced, so the traced/untraced ratio compares the same
  inputs.  The pass always covers the whole menu, so call counts depend
  only on the program, not on the seed or the machine's speed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import muntzvide  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".bench_out"


def _timed_op(op, state, item):
    """(output, seconds, error message) for one op."""
    start = time.perf_counter()
    try:
        out = op(state, item)
    except Exception as exc:  # a failing op is counted, not fatal
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, ""


def _record(workload, state, expected, item_id, out, seconds, error):
    if error:
        verdict = wl.Verdict(False, math.nan, error)
    else:
        verdict = workload.check(state, workload.menu[item_id], out, expected[item_id])
    return {
        "item": item_id,
        "ms": seconds * 1e3,
        "ok": verdict.ok,
        "error": verdict.error,
        "message": verdict.message,
    }


_CAL_X = np.linspace(0.0, 1.0, 96)


def calibrate() -> float:
    """Seconds taken by a fixed kernel that uses no solver code.

    It mixes small numpy array operations with scalar ``math`` calls, as the
    solver does, so it slows down with the machine when other tenants
    contend for the same cores and caches.  Timed just before every op, it
    lets ``run.py`` express op times at a fixed reference speed.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        d = _CAL_X[:, None] - 0.5 * _CAL_X[None, :]
        acc += float((np.exp(-d * d) / (1.0 + d * d)).sum())
    for i in range(20000):
        acc += math.sin(i * 1e-3) * math.exp(-i * 1e-5)
    return time.perf_counter() - start


def run_loop(workload, state, expected, seed, seconds):
    """Whole passes over the menu until ``seconds`` have passed.

    Stopping only at the end of a pass keeps the mix of items identical in
    every run, so percentiles of op time do not depend on where a partial
    pass happened to stop.  Each op is preceded by one calibration, outside
    its timed region.
    """
    records = []
    items = wl.op_sequence(workload.menu, seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in workload.menu:
            item_id = next(items)
            cal_s = calibrate()
            out, dt, error = _timed_op(workload.op, state, workload.menu[item_id])
            rec = _record(workload, state, expected, item_id, out, dt, error)
            rec["cal_ms"] = cal_s * 1e3
            records.append(rec)
    return records


def run_traced(workload, state, expected, seed, workdir):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced_state = workload.setup(workdir)
    finally:
        tracer.uninstall()
    tracer.clear()
    traced_op = tracer.wrap("bench.op", workload.op)

    plain, traced = [], []
    items = wl.op_sequence(workload.menu, seed)
    order = [next(items) for _ in workload.menu]
    for op_id, item_id in enumerate(order):
        item = workload.menu[item_id]
        out, dt, error = _timed_op(workload.op, state, item)
        plain.append(_record(workload, state, expected, item_id, out, dt, error))

        tracer.op_id = op_id
        tracer.install()
        try:
            out, dt, error = _timed_op(traced_op, traced_state, item)
        finally:
            tracer.uninstall()
        traced.append(_record(workload, traced_state, expected, item_id, out, dt, error))

    spans = tracer.arrays()
    np.savez(
        OUTDIR / f"spans-{workload.name}.npz",
        names=np.array(tracer.names),
        ops=np.array(order),
        **spans,
    )
    layers = {}
    for name, total in tracer.layer_totals().items():
        calls, self_s = total if total is not None else (None, None)
        layers[f"{name}.calls"] = calls
        layers[f"{name}.self_s"] = self_s
    rule_calls = layers.get("quadrature.gauss_jacobi.calls")
    if rule_calls is not None:
        layers["quadrature.gauss_jacobi.points"] = tracer.gauss_jacobi_points
        layers["quadrature.rule_repeat_ratio"] = tracer.rule_repeats / rule_calls if rule_calls else 0.0
    if layers.get("muntz_basis.basis_matrix_z.calls") is not None:
        layers["muntz_basis.basis_matrix_z.entries"] = tracer.basis_entries
    layers["trace.overhead_ratio"] = statistics.median(r["ms"] for r in traced) / statistics.median(
        r["ms"] for r in plain
    )
    return plain + traced, layers, tracer.absent


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(muntzvide.__file__).resolve().parents:
        raise SystemExit(f"imported muntzvide from {muntzvide.__file__}, not from {src}")

    workload = wl.WORKLOADS[args.workload]
    expected = wl.load_expected(workload.name)
    workdir = OUTDIR / f"work-{workload.name}-{os.getpid()}"
    try:
        state = workload.setup(workdir)
        for item_id in workload.warmup:
            out, _, error = _timed_op(workload.op, state, workload.menu[item_id])
            rec = _record(workload, state, expected, item_id, out, 0.0, error)
            if not rec["ok"]:
                raise SystemExit(f"warm-up op {item_id} failed: {rec['message']}")
        setup_s = time.perf_counter() - _T0
        cal_ms = statistics.median(calibrate() for _ in range(5)) * 1e3
        result = {"setup_s": setup_s, "setup_cal_ms": cal_ms}
        if not args.setup_only:
            if args.trace:
                records, layers, absent = run_traced(
                    workload, state, expected, args.seed, workdir
                )
                result.update(layers=layers, absent=absent)
            else:
                records = run_loop(workload, state, expected, args.seed, args.seconds)
            checked = [wl.accuracy_digits(r["error"]) for r in records if r["ok"]]
            result.update(
                records=records,
                accuracy_digits_min=min(checked, default=math.nan),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                environment=environment(),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
