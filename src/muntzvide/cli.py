"""Config-driven command line front end.

Configs are flat ``key = value`` UTF-8 files, a leading byte-order mark
skipped, with ``#`` comments; the last occurrence of a key wins, so
``--set key=value`` overrides, read after the file, win over it.  Three modes:

    solve    one run at a single N; writes the results CSV plus a nodal dump
    sweep    one run per N in a range, measured against the exact solution;
             writes the results CSV plus plot data
    compare  like sweep, but errors are measured against a high-N reference
             solve at key ``ref_N``, also on a problem with a closed form

The results CSV has the header ``CSV_HEADER``: N, the ``ERROR_CHANNELS`` and
runtime_ms, with errors in scientific notation at 6 significant digits.  By
default the runtime column is written as zero so identical configs produce
byte-identical files; set ``timing = on`` for wall-clock values.  Beside the
CSV, solve writes a nodal dump (``.nodes.csv``), sweep and compare plot data
(``.plot.dat``).  Once the checks below pass, a run removes all three, whatever
its mode, so no earlier run's file outlives a solver error or another mode.

Each config key is declared once, on its ``RunSpec`` field, with its parser
(text to value, syntax only) and any choices.  A frozen ``RunSpec`` checks
every value when it is built, from a config or by hand, and names the key in
the ``ConfigError``: ``lambda``, ``alpha``, ``beta``, ``linf_grid`` and
``l2_quad`` by ``SolverConfig``'s rules, ``mu``, ``eps``, ``T`` and ``y0`` by
``VideProblem``'s, and ``ref_N`` is taken in compare mode only.

Exit status: 0 when every row succeeded, 1 when a sweep row failed or a
``solve`` or ``compare`` solve raised a ``SolverError`` (one ``error:`` line,
no CSV), 2 for a configuration error or an output file that cannot be written.
A missing or unwritable output directory, or a directory at any of the
three names, is reported before any solve.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .analysis import (
    ERROR_CHANNELS,
    ConvergenceTable,
    SolverConfig,
    SweepRow,
    convergence_sweep,
    error_row,
    reference_solution,
    solve_once,
)
from .problem import EXAMPLE_KEYS, _validate_parameters, exact_phi_pair, make_example
from .quadrature import SolverError

__all__ = [
    "ConfigError",
    "RunSpec",
    "parse_config",
    "run",
    "main",
]

CSV_HEADER = ",".join(("N", *ERROR_CHANNELS, "runtime_ms"))

MODES = ("solve", "sweep", "compare")

class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


def _parse_n_values(text: str) -> tuple[int, ...]:
    if ":" not in text:
        return (int(text),)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("ranges are start:stop:step")
    start, stop, step = (int(p) for p in parts)
    if step <= 0:
        raise ValueError("range step must be positive")
    return tuple(range(start, stop + 1, step))


def _key(name: str, parse, default=MISSING, choices: Iterable[str] = ()):
    """A RunSpec field read from config key ``name`` by ``parse``, within any ``choices``; no default means required."""
    metadata = {"key": name, "parse": parse, "choices": tuple(choices)}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunSpec:
    """One run, checked when it is built, from a config or by hand.

    ``ref_n`` must be None (its key not given) outside compare mode.
    ``n_values`` must be non-empty and strictly increasing, with each N >= 2.
    """

    mode: str = _key("mode", str, choices=MODES)
    problem: str = _key("problem", str, choices=EXAMPLE_KEYS)
    n_values: tuple[int, ...] = _key("N", _parse_n_values)
    lam: Optional[float] = _key("lambda", float, None)
    alpha: float = _key("alpha", float, SolverConfig.alpha)
    beta: float = _key("beta", float, SolverConfig.beta)
    output: str = _key("output", str, "results.csv")
    linf_points: int = _key("linf_grid", int, SolverConfig.linf_points)
    l2_points: Optional[int] = _key("l2_quad", int, None)
    ref_n: Optional[int] = _key("ref_N", int, None)
    eps: Optional[float] = _key("eps", float, None)
    mu: Optional[float] = _key("mu", float, None)
    horizon: Optional[float] = _key("T", float, None)
    y0: Optional[float] = _key("y0", float, None)
    timing: str = _key("timing", str, "off", choices=("on", "off"))

    def __post_init__(self):
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"invalid value for key {_KEY[name]!r}: must be one of {choices}, got {value!r}")
        n = self.n_values
        if not (n and all(isinstance(k, numbers.Integral) and k >= 2 for k in n) and list(n) == sorted(set(n))):
            raise ConfigError(f"invalid value for key 'N': every N must be an integer >= 2, in increasing order, got {tuple(n)}")
        # each value alone, so a failure names its own key: by SolverConfig's
        # rules for its fields, by VideProblem's for the problem parameters given
        for name in (*_SOLVER_FIELDS, "mu", "eps", "horizon", "y0"):
            value = getattr(self, name)
            try:
                if name in _SOLVER_FIELDS:
                    SolverConfig(**{name: value})
                elif value is not None:
                    _validate_parameters(**{_KEY[name]: value})
            except ValueError as exc:
                raise ConfigError(f"invalid value for key {_KEY[name]!r}: {exc}") from exc
        if self.mode == "compare":
            if self.ref_n is None:
                raise ConfigError("compare mode requires key 'ref_N'")
            if not (isinstance(self.ref_n, numbers.Integral) and self.ref_n > max(n)):
                raise ConfigError(f"key 'ref_N' must be an integer above the largest N ({max(n)}), got {self.ref_n!r}")
        elif self.ref_n is not None:
            raise ConfigError("key 'ref_N' is only valid with mode = compare")
        if self.mode == "solve" and len(n) != 1:
            raise ConfigError("solve mode takes a single N, not a range")


# built once per module: field name -> key, key -> field
_KEY = {f.name: f.metadata["key"] for f in fields(RunSpec)}
_FIELD = {f.metadata["key"]: f for f in fields(RunSpec)}
_CHOICES = {f.name: f.metadata["choices"] for f in fields(RunSpec) if f.metadata["choices"]}
# the RunSpec fields handed to SolverConfig by name
_SOLVER_FIELDS = tuple(f.name for f in fields(SolverConfig))


def parse_config(text: str, overrides: Sequence[str] = ()) -> RunSpec:
    """Parse a flat key = value configuration into a checked ``RunSpec``.

    ``overrides`` are ``key=value`` items read after the text, as ``--set``
    gives them; an error in one names the item, not a line.
    """
    raw: dict[str, str] = {}
    lines = [(f"line {n}", line) for n, line in enumerate(text.splitlines(), start=1)]
    for where, line in lines + [(f"--set {item}", item) for item in overrides]:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{where}: empty value for key {key!r}")
        raw[key] = value  # last occurrence wins

    missing = [k for k, f in _FIELD.items() if f.default is MISSING and k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    kwargs = {}
    for key, value in raw.items():
        f = _FIELD[key]
        try:
            kwargs[f.name] = f.metadata["parse"](value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for key {key!r}: {exc}") from exc
    return RunSpec(**kwargs)


def _fmt_err(x: float) -> str:
    return f"{x:.5e}"


def _write_csv(table: ConvergenceTable, path: Path, timing: bool) -> None:
    lines = [CSV_HEADER]
    for r in table.rows:
        ms = f"{r.runtime_ms:.3f}" if timing else "0.000"
        lines.append(",".join([str(r.n), *(_fmt_err(getattr(r, c)) for c in ERROR_CHANNELS), ms]))
    path.write_text("\n".join(lines) + "\n")


def _write_plot_data(table: ConvergenceTable, path: Path) -> None:
    """Plot-ready columns: N and log10 of each error channel, -inf for a zero error and nan for a NaN one."""
    rows = [r for r in table.rows if not r.failed]

    def log10(x: float) -> str:
        return f"{math.log10(x):.6f}" if x > 0 else "-inf" if x == 0 else "nan"

    lines = [" ".join([str(r.n), *(log10(getattr(r, c)) for c in ERROR_CHANNELS)]) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_nodal_dump(sol, path: Path) -> None:
    lines = ["theta,phi,phi_star"]
    for theta, phi, phi_star in zip(sol.grid.points, sol.u, sol.u_star):
        # shortest round-trip decimal form, full precision
        lines.append(f"{float(theta)!r},{float(phi)!r},{float(phi_star)!r}")
    path.write_text("\n".join(lines) + "\n")


def run(spec: RunSpec) -> int:
    """Execute a run spec; returns the process exit status."""
    out = Path(spec.output)
    nodes, plot = (out.parent / (out.stem + suffix) for suffix in (".nodes.csv", ".plot.dat"))
    # one output set whatever the mode, checked before any solve: an unwritable output costs no run
    for path in (out, nodes, plot):
        if path.is_dir():
            raise ConfigError(f"cannot write output {str(path)!r}: it is a directory")
    if not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        raise ConfigError(
            f"cannot write output {spec.output!r}: {str(out.parent)!r} is not a writable directory"
        )
    problem = make_example(spec.problem, mu=spec.mu, eps=spec.eps, T=spec.horizon, y0=spec.y0)
    if spec.mode == "sweep" and exact_phi_pair(problem) is None:
        raise ConfigError(
            f"problem {spec.problem} has no exact solution to sweep against; "
            "use compare mode, which measures errors against a reference solve at key 'ref_N'"
        )
    config = SolverConfig(**{name: getattr(spec, name) for name in _SOLVER_FIELDS})
    # the checks have passed: no earlier run's results outlive a failed solve
    for path in (out, nodes, plot):
        path.unlink(missing_ok=True)

    if spec.mode == "solve":
        _, sol, runtime_ms = solve_once(problem, spec.n_values[0], config)
        if exact_phi_pair(problem) is not None:
            row = error_row(problem, sol, config, None, runtime_ms)
        else:
            # no exact solution to measure against in solve mode
            row = SweepRow(sol.grid.n, runtime_ms=runtime_ms)
        table = ConvergenceTable(rows=[row])
        _write_nodal_dump(sol, nodes)
    else:
        ref = reference_solution(problem, config, spec.ref_n) if spec.mode == "compare" else None
        table = convergence_sweep(problem, config, spec.n_values, reference=ref)

    _write_csv(table, out, spec.timing == "on")
    if spec.mode != "solve" and not all(r.failed for r in table.rows):
        _write_plot_data(table, plot)
    for r in table.rows:
        status = f"FAILED: {r.message}" if r.failed else "ok"
        errors = (f"{c.replace('star', '*')}={_fmt_err(getattr(r, c))}" for c in ERROR_CHANNELS)
        print("  ".join([f"N={r.n:3d}", *errors, f"[{status}]"]))
    return 0 if not any(r.failed for r in table.rows) else 1


# built once per process: parse_args leaves it unchanged
_PARSER = argparse.ArgumentParser(
    prog="muntzvide",
    description="Spectral collocation runs for delay Volterra integro-differential equations",
)
# usage and error messages call the positional "command"; it sets the mode key
_PARSER.add_argument("command", choices=MODES, help="run mode")
_PARSER.add_argument("--config", required=True, help="path to a key = value config file")
_PARSER.add_argument(
    "--set", action="append", default=[], metavar="KEY=VALUE",
    help="override a config key (repeatable)",
)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        # the positional mode comes last, so it wins over --set mode=...
        spec = parse_config(text, [*args.set, f"mode={args.command}"])
        return run(spec)
    except (ValueError, OSError, SolverError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SolverError) else 2


if __name__ == "__main__":
    sys.exit(main())
