"""Run thirteen fixed CLI configs in process and write each run's outputs to a tree.

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR

Each run gets the directory OUTDIR/<name>, holding the files the run wrote
(``results.csv`` and its ``.plot.dat`` or ``.nodes.csv``), its ``stdout``
and ``stderr`` with the run directory written as ``<run>``, and its exit
status in ``exit_status``.  The CSVs have the runtime column zeroed, so two
trees made from the same code are identical, and two trees made from two
versions differ exactly where the default CLI outputs do: run the script once
with PYTHONPATH pointing at each version's ``src`` and compare the trees with
``diff -r``.  It uses the standard library and ``muntzvide`` only.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from muntzvide import cli

SWEEP_N = "N = 4:16:2"

# name -> (mode, config text); every run but the last four exits 0.  Three
# exit 1: at alpha = 400 every row fails at its 200-point L2 rule, and at
# lambda = 1e-6 every row's grid collapses, so neither writes plot data; at
# lambda = 1/128 the grid collapses from N = 14 on, so rows 4-12 are plotted.
# The last exits 2 before any solve (lambda = 1.5 is outside (0, 1]).
RUNS = {
    "sweep-5.1": ("sweep", f"problem = 5.1\n{SWEEP_N}\n"),
    "sweep-5.2": ("sweep", f"problem = 5.2\n{SWEEP_N}\n"),
    "sweep-5.3": ("sweep", f"problem = 5.3\n{SWEEP_N}\n"),
    "sweep-5.2-printed": ("sweep", f"problem = 5.2\n{SWEEP_N}\nforcing = printed\n"),
    "compare-5.4": ("compare", f"problem = 5.4\n{SWEEP_N}\nref_N = 40\n"),
    "solve-5.1": ("solve", "problem = 5.1\nN = 8\n"),
    "sweep-5.1-mu0.25": ("sweep", f"problem = 5.1\n{SWEEP_N}\nmu = 0.25\n"),
    "compare-5.4-mu0.75": ("compare", f"problem = 5.4\n{SWEEP_N}\nmu = 0.75\nref_N = 48\n"),
    "solve-5.4": ("solve", "problem = 5.4\nN = 8\n"),
    "sweep-5.1-alpha400": ("sweep", f"problem = 5.1\n{SWEEP_N}\nalpha = 400\n"),
    "sweep-5.1-lambda1e-6": ("sweep", f"problem = 5.1\n{SWEEP_N}\nlambda = 1e-6\n"),
    "sweep-5.1-lambda1over128": ("sweep", f"problem = 5.1\n{SWEEP_N}\nlambda = 0.0078125\n"),
    "sweep-5.1-lambda1.5": ("sweep", f"problem = 5.1\n{SWEEP_N}\nlambda = 1.5\n"),
}


def snapshot(outdir) -> dict[str, int]:
    """Write every run of ``RUNS`` under ``outdir``; returns each run's exit status."""
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
    return statuses


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: cli_snapshot.py OUTDIR", file=sys.stderr)
        return 2
    statuses = snapshot(args[0])
    print(f"{len(statuses)} runs of muntzvide from {Path(cli.__file__).parent} written to {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
