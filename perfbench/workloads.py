"""The benchmark's workloads: seeded op menus, the ops, and their checks.

An *op* is one user-level call into the solver's public API.  Each workload
has a finite menu of op inputs whose expected outputs are stored in
``expected.json`` (written by ``make_expected.py`` from the seed commit).
The seed only orders the menu: ops are dealt from a deck that is reshuffled
after every pass, and runs stop only at the end of a pass, so every run
holds the same mix of items and the same seed yields the same sequence.
Menu sizes are odd and 0.9 times the size is far from a whole number (15,
17, 35): with k whole passes over m items, the median and the 90th
percentile of op time then fall inside one item's group of k samples rather
than between two items' groups, which keeps them steady.

Every op is checked against its stored expectation outside the timed
region.  Checks read plain attributes of the results and evaluate the
discrete solution with the benchmark's own barycentric formula, so they call
none of the solver functions the tracer counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Relative and absolute tolerance on stored error norms.  Errors that reach
# rounding level (~1e-15) may move when a later change reorders arithmetic;
# the absolute part absorbs that, the relative part catches real changes.
ERR_RTOL = 1e-3
ERR_ATOL = 1e-12
# Absolute tolerance on 5.4 probe values (of order 1) against the stored
# converged reference.
PROBE_TOL = 1e-10
# accuracy digits are -log10(max(error, ERR_FLOOR))
ERR_FLOOR = 1e-16

ERROR_CHANNELS = ("l2_e", "linf_e", "l2_estar", "linf_estar")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    error: float  # the op's checked error; nan when the op failed outright
    message: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    menu: dict[str, tuple]  # item id -> op parameters
    warmup: tuple[str, ...]  # item ids run during set-up
    setup: Callable[[Path], object]
    op: Callable[[object, tuple], object]
    check: Callable[[object, tuple, object, dict], Verdict]


def op_sequence(menu_ids, seed: int) -> Iterator[str]:
    """Endless seeded sequence of item ids: shuffled passes over the menu."""
    rng = random.Random(seed)
    ids = sorted(menu_ids)
    while True:
        deck = list(ids)
        rng.shuffle(deck)
        yield from deck


def accuracy_digits(error: float) -> float:
    return -math.log10(max(error, ERR_FLOOR))


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= ERR_RTOL * abs(want) + ERR_ATOL


def barycentric(points, lam: float, values, theta) -> np.ndarray:
    """Interpolant through (points, values) in z = theta^lam, at theta.

    Independent of the solver's own evaluation path: weights are formed in
    log space so they neither overflow nor underflow for N up to a few
    hundred.
    """
    z = np.asarray(points, dtype=float) ** lam
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    log_w = -np.log(np.abs(diff)).sum(axis=1)
    w = np.prod(np.sign(diff), axis=1) * np.exp(log_w - log_w.max())
    terms = w / (np.asarray(theta, dtype=float)[:, None] ** lam - z[None, :])
    return (terms @ np.asarray(values, dtype=float)) / terms.sum(axis=1)


# ---------------------------------------------------------------------------
# sweep-manufactured: one convergence_sweep per op on 5.1-5.3
# ---------------------------------------------------------------------------

SWEEP_PROBLEMS = (("5.1", 0.25), ("5.1", 0.5), ("5.1", 0.75), ("5.2", None), ("5.3", None))
SWEEP_NS = tuple(range(4, 17, 2))


def _sweep_id(key: str, eps, n: int) -> str:
    return f"{key}/eps={eps}/N={n}" if eps is not None else f"{key}/N={n}"


def _sweep_setup(workdir: Path):
    import muntzvide.analysis
    import muntzvide.problem

    problems = {
        (key, eps): muntzvide.problem.make_example(key, eps=eps) for key, eps in SWEEP_PROBLEMS
    }
    return problems, muntzvide.analysis.SolverConfig()


def _sweep_op(state, item):
    import muntzvide.analysis

    problems, config = state
    key, eps, n = item
    return muntzvide.analysis.convergence_sweep(problems[(key, eps)], config, [n])


def _sweep_check(state, item, table, expected: dict) -> Verdict:
    if len(table.rows) != 1:
        return Verdict(False, math.nan, f"expected one row, got {len(table.rows)}")
    row = table.rows[0]
    if row.failed or not row.runtime_ms > 0.0:
        return Verdict(False, math.nan, f"row failed: {row.message or 'runtime_ms is 0'}")
    if row.n != item[2]:
        return Verdict(False, math.nan, f"row has N={row.n}, expected {item[2]}")
    for channel in ERROR_CHANNELS:
        got, want = float(getattr(row, channel)), expected[channel]
        if not _close(got, want):
            return Verdict(False, got, f"{channel}={got!r}, stored {want!r}")
    return Verdict(True, float(row.linf_e))


SWEEP = Workload(
    name="sweep-manufactured",
    menu={
        _sweep_id(key, eps, n): (key, eps, n) for key, eps in SWEEP_PROBLEMS for n in SWEEP_NS
    },
    warmup=tuple(_sweep_id(key, eps, SWEEP_NS[0]) for key, eps in SWEEP_PROBLEMS),
    setup=_sweep_setup,
    op=_sweep_op,
    check=_sweep_check,
)


# ---------------------------------------------------------------------------
# solve-large-n: one solve_once per op on 5.4
# ---------------------------------------------------------------------------

SOLVE_NS = tuple(range(64, 193, 8))
# 5.4 converges to rounding level well below N=64, so one reference serves
# every N in the menu
SOLVE_REF_N = 48
PROBES = (0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0)


def _solve_setup(workdir: Path):
    import muntzvide.analysis
    import muntzvide.problem

    return muntzvide.problem.make_example("5.4"), muntzvide.analysis.SolverConfig()


def _solve_op(state, item):
    import muntzvide.analysis

    problem, config = state
    return muntzvide.analysis.solve_once(problem, item[0], config)


def probe_values(grid, sol) -> tuple[np.ndarray, np.ndarray]:
    """(phi_N, phi*_N) at the fixed probe points."""
    theta = np.asarray(PROBES)
    return (
        barycentric(grid.points, grid.lam, sol.u, theta),
        barycentric(grid.points, grid.lam, sol.u_star, theta),
    )


def _solve_check(state, item, result, expected: dict) -> Verdict:
    grid, sol, runtime_ms = result
    n1 = item[0] + 1
    if np.shape(sol.u) != (n1,) or np.shape(sol.u_star) != (n1,):
        return Verdict(False, math.nan, f"expected {n1} nodal values")
    if not (math.isfinite(runtime_ms) and runtime_ms > 0.0):
        return Verdict(False, math.nan, f"runtime_ms={runtime_ms!r}")
    u, u_star = probe_values(grid, sol)
    err = max(
        float(np.max(np.abs(u - expected["u"]))),
        float(np.max(np.abs(u_star - expected["u_star"]))),
    )
    if not err <= PROBE_TOL:
        return Verdict(False, err, f"probe error {err!r} exceeds {PROBE_TOL}")
    return Verdict(True, err)


SOLVE = Workload(
    name="solve-large-n",
    menu={f"N={n}": (n,) for n in SOLVE_NS},
    warmup=(f"N={SOLVE_NS[0]}",),
    setup=_solve_setup,
    op=_solve_op,
    check=_solve_check,
)


# ---------------------------------------------------------------------------
# cli-compare: one in-process `muntzvide compare` per op on 5.4
# ---------------------------------------------------------------------------

# The evaluation grids are set below the CLI defaults (2001 / 200) so that an
# op lasts ~0.15 s and a run holds over a hundred ops; the reference is still
# evaluated one point per call.
CLI_CONFIG = "problem = 5.4\nN = 4\nlinf_grid = 401\nl2_quad = 100\n"
CLI_REF_NS = (24, 32, 40)
CLI_RANGES = ("4:8:4", "5:10:5", "6:12:6", "7:14:7", "8:16:8")


def _cli_setup(workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "compare.cfg"
    config.write_text(CLI_CONFIG)
    return config, workdir / "results.csv"


def _cli_op(state, item):
    import muntzvide.cli

    config, output = state
    ref_n, n_range = item
    argv = [
        "compare",
        "--config", str(config),
        "--set", f"ref_N={ref_n}",
        "--set", f"N={n_range}",
        "--set", f"output={output}",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return muntzvide.cli.main(argv)


def parse_csv(text: str) -> tuple[str, list[list[float]]]:
    lines = text.splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def _cli_check(state, item, status, expected: dict) -> Verdict:
    _, output = state
    if status != 0:
        return Verdict(False, math.nan, f"exit status {status}")
    try:
        header, rows = parse_csv(output.read_text())
        output.unlink()
    except (OSError, ValueError, IndexError) as exc:
        return Verdict(False, math.nan, f"unreadable results: {exc}")
    if header != expected["header"] or len(rows) != len(expected["rows"]):
        return Verdict(False, math.nan, f"header or row count differs: {header!r}, {len(rows)}")
    worst = 0.0
    for row, want in zip(rows, expected["rows"]):
        if row[0] != want[0] or row[-1] != want[-1]:
            return Verdict(False, math.nan, f"row {row} differs from stored {want}")
        for got, ref in zip(row[1:-1], want[1:-1]):
            if not _close(got, ref):
                return Verdict(False, got, f"row N={row[0]:g}: {got!r}, stored {ref!r}")
        worst = max(worst, row[2])  # linf_e
    return Verdict(True, worst)


CLI = Workload(
    name="cli-compare",
    menu={
        f"ref_N={ref_n}/N={n_range}": (ref_n, n_range)
        for ref_n in CLI_REF_NS
        for n_range in CLI_RANGES
    },
    warmup=(f"ref_N={CLI_REF_NS[0]}/N={CLI_RANGES[0]}",),
    setup=_cli_setup,
    op=_cli_op,
    check=_cli_check,
)


WORKLOADS = {w.name: w for w in (SWEEP, SOLVE, CLI)}


def load_expected(workload: str) -> dict:
    """item id -> the stored output that item must reproduce."""
    return json.loads(EXPECTED_PATH.read_text())[workload]
