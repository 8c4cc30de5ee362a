"""Run sixteen fixed CLI configs and 34 fixed solves in process and write their outputs to a tree.

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR

Each CLI run gets the directory OUTDIR/<name>, holding the files the run
wrote (``results.csv`` and its ``.plot.dat`` or ``.nodes.csv``), its
``stdout`` and ``stderr`` with the run directory written as ``<run>``, and
its exit status in ``exit_status``.  The CSVs have the runtime column zeroed.
Each solve gets the directory OUTDIR/solver/<case>, holding its system
(a, b, C, D, E, H, fvec, u0) and solution (u, u_star, v) as ``.npy`` files
and its condition estimate in ``cond.txt`` to 11 significant digits, which
hides the last-ulp wobble ``cond`` can show between processes.  So two trees
made from the same code are identical, and two trees made from two versions
differ exactly where the default CLI outputs or the solver's bits do: run the
script once with PYTHONPATH pointing at each version's ``src`` and compare
the trees with ``diff -r``.  It uses numpy, the standard library and
``muntzvide`` only.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from muntzvide import assemble, build_grid, cli, default_lambda, make_example, scale_to_unit, solve

SWEEP_N = "N = 4:16:2"

# name -> (mode, config text); every run but the last six exits 0.  Five
# exit 1: at alpha = 400 every row fails at its 200-point L2 rule, and at
# lambda = 1e-6 every row's grid collapses, so neither writes plot data; at
# lambda = 1/128 the grid collapses from N = 14 on, so rows 4-12 are plotted;
# at lambda = 1e-6 the solve's grid and the compare's reference grid collapse,
# so each prints one error line and writes no file.  The last exits 2 before
# any solve (lambda = 1.5 is outside (0, 1]).
RUNS = {
    "sweep-5.1": ("sweep", f"problem = 5.1\n{SWEEP_N}\n"),
    "sweep-5.2": ("sweep", f"problem = 5.2\n{SWEEP_N}\n"),
    "sweep-5.3": ("sweep", f"problem = 5.3\n{SWEEP_N}\n"),
    "sweep-5.2-printed": ("sweep", f"problem = 5.2\n{SWEEP_N}\nforcing = printed\n"),
    "compare-5.4": ("compare", f"problem = 5.4\n{SWEEP_N}\nref_N = 40\n"),
    "solve-5.1": ("solve", "problem = 5.1\nN = 8\n"),
    "sweep-5.1-mu0.25": ("sweep", f"problem = 5.1\n{SWEEP_N}\nmu = 0.25\n"),
    "compare-5.4-mu0.75": ("compare", f"problem = 5.4\n{SWEEP_N}\nmu = 0.75\nref_N = 48\n"),
    # the evaluation sizes of the benchmark's cli-compare workload
    "compare-5.4-bench": ("compare", "problem = 5.4\nN = 8:16:8\nl2_quad = 100\nlinf_grid = 401\nref_N = 24\n"),
    "solve-5.4": ("solve", "problem = 5.4\nN = 8\n"),
    "sweep-5.1-alpha400": ("sweep", f"problem = 5.1\n{SWEEP_N}\nalpha = 400\n"),
    "sweep-5.1-lambda1e-6": ("sweep", f"problem = 5.1\n{SWEEP_N}\nlambda = 1e-6\n"),
    "sweep-5.1-lambda1over128": ("sweep", f"problem = 5.1\n{SWEEP_N}\nlambda = 0.0078125\n"),
    "solve-5.1-lambda1e-6": ("solve", "problem = 5.1\nN = 8\nlambda = 1e-6\n"),
    "compare-5.4-lambda1e-6": ("compare", "problem = 5.4\nN = 4:8:2\nref_N = 16\nlambda = 1e-6\n"),
    "sweep-5.1-lambda1.5": ("sweep", f"problem = 5.1\n{SWEEP_N}\nlambda = 1.5\n"),
}

# case -> (example, overrides, N, lam), on the default grid exponents
# alpha = beta = -0.5; lam None is default_lambda(mu) (1/2 for 5.1, 5.3 and
# 5.4, 1/3 for 5.2).  N = 49 is the largest one-tile dilation table.
SOLVES = {
    **{f"{key}-N{n}": (key, {}, n, None) for key in ("5.1", "5.2", "5.3", "5.4") for n in (8, 16, 49, 64, 128, 192)},
    "5.4-T5-N128": ("5.4", {"T": 5.0}, 128, None),
    "5.4-eps1e-3-N32": ("5.4", {"eps": 1e-3}, 32, None),
    "5.4-eps0.999-N32": ("5.4", {"eps": 0.999}, 32, None),
    "5.3-eps0.25-N96": ("5.3", {"eps": 0.25}, 96, None),
    "5.1-printed-N8": ("5.1", {"forcing": "printed"}, 8, None),
    "5.2-mu0.25-N16": ("5.2", {"mu": 0.25}, 16, None),
    "5.1-lam1-N16": ("5.1", {}, 16, 1.0),
    "5.4-lam1-N64": ("5.4", {}, 64, 1.0),
    "5.3-lam1over3-N32": ("5.3", {}, 32, 1.0 / 3.0),
    "5.4-lam1over3-N128": ("5.4", {}, 128, 1.0 / 3.0),
}
SYSTEM_FIELDS = ("a", "b", "C", "D", "E", "H", "fvec", "u0")
SOLUTION_FIELDS = ("u", "u_star", "v")


def solver_snapshot(outdir) -> None:
    """Write every solve of ``SOLVES`` under ``outdir``, one directory per case."""
    for name, (key, overrides, n, lam) in SOLVES.items():
        problem = make_example(key, **overrides)
        grid = build_grid(n, -0.5, -0.5, default_lambda(problem.mu) if lam is None else lam)
        sysm = assemble(scale_to_unit(problem), grid)
        sol = solve(sysm)
        case_dir = Path(outdir) / name
        case_dir.mkdir(parents=True)
        for source, fields in ((sysm, SYSTEM_FIELDS), (sol, SOLUTION_FIELDS)):
            for field in fields:
                np.save(case_dir / f"{field}.npy", np.ascontiguousarray(getattr(source, field)))
        (case_dir / "cond.txt").write_text(f"{sol.cond:.10e}\n")


def snapshot(outdir) -> dict[str, int]:
    """Write every run of ``RUNS`` and, under ``solver``, every solve of ``SOLVES``.

    Returns each CLI run's exit status.
    """
    outdir = Path(outdir)
    statuses = {}
    with tempfile.TemporaryDirectory() as configs:
        for name, (mode, text) in RUNS.items():
            run_dir = outdir / name
            run_dir.mkdir(parents=True)
            config = Path(configs) / f"{name}.cfg"
            config.write_text(text)
            argv = [mode, "--config", str(config), "--set", f"output={run_dir / 'results.csv'}"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                statuses[name] = cli.main(argv)
            for stream, buffer in (("stdout", out), ("stderr", err)):
                (run_dir / stream).write_text(buffer.getvalue().replace(str(run_dir), "<run>"))
            (run_dir / "exit_status").write_text(f"{statuses[name]}\n")
    solver_snapshot(outdir / "solver")
    return statuses


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: cli_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    statuses = snapshot(args[0])
    print(
        f"{len(statuses)} runs and {len(SOLVES)} solves of muntzvide from "
        f"{Path(cli.__file__).parent} written to {args[0]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
