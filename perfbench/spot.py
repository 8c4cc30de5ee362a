"""Spot figures from the spans a traced run wrote to ``.bench_out/``.

    python3 perfbench/run.py --workload solve-large-n --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload sweep-manufactured --seed 1 --seconds 30 --trace 1
    python3 perfbench/spot.py

Prints the inclusive duration of single traced calls at fixed inputs: the
65-point rule inside ``build_grid`` at N=64, ``build_grid`` itself,
``assemble`` and ``solve`` for 5.4 at N=64 and N=128, one sup-norm
evaluation, and the sum of the 5.1 sweep items N=4..16.  Traced durations
include the tracer's own cost for every nested span (about 2N^2 kernel
calls inside ``assemble``), so they read higher than untraced timings.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np

OUTDIR = Path(__file__).resolve().parent.parent / ".bench_out"


def _load(workload: str):
    data = np.load(OUTDIR / f"spans-{workload}.npz")
    names = list(data["names"])
    return data, names, list(data["ops"])


def _durations(data, names, name: str, mask=None) -> np.ndarray:
    sel = data["name"] == names.index(name)
    if mask is not None:
        sel &= mask
    return (data["end"] - data["start"])[sel]


def main() -> int:
    rows = []
    data, names, ops = _load("solve-large-n")
    for n in (64, 128):
        in_op = data["op"] == ops.index(f"N={n}")
        for layer in ("muntz_basis.build_grid", "collocation.assemble", "collocation.solve"):
            rows.append((f"{layer}, 5.4, N={n}", _durations(data, names, layer, in_op)[0]))
        if n == 64:
            grid_span = np.flatnonzero(in_op & (data["name"] == names.index("muntz_basis.build_grid")))[0]
            rule = _durations(data, names, "quadrature.gauss_jacobi", data["parent"] == grid_span)
            rows.append(("quadrature.gauss_jacobi, 65 points (in build_grid)", rule[0]))

    data, names, ops = _load("sweep-manufactured")
    rows.append((
        "analysis.linf_error, one channel, median call",
        statistics.median(_durations(data, names, "analysis.linf_error")),
    ))
    sweep_ops = [ops.index(f"5.1/eps=0.5/N={n}") for n in range(4, 17, 2)]
    in_sweep = np.isin(data["op"], sweep_ops)
    rows.append((
        "convergence_sweep, 5.1, N=4..16 step 2 (sum of 7 ops)",
        float(_durations(data, names, "analysis.convergence_sweep", in_sweep).sum()),
    ))
    for label, seconds in rows:
        print(f"{label:55s} {seconds * 1e3:9.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
