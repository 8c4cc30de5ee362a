import importlib.util
import math
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from muntzvide.analysis import (
    ERROR_CHANNELS,
    ConvergenceTable,
    SolverConfig,
    SweepRow,
    convergence_sweep,
    reference_solution,
)
from muntzvide.cli import (
    _write_csv,
    CSV_HEADER,
    MODES,
    ConfigError,
    RunSpec,
    _write_plot_data,
    main,
    parse_config,
    run,
)
from muntzvide.collocation import SingularSystemError
from muntzvide.problem import make_example

SWEEP_52 = "problem = 5.2\nlambda = 0.333333333333\nN = 5:13:2\nmode = sweep\n"


# --- parsing --------------------------------------------------------------------


def test_parse_sweep_config():
    spec = parse_config(SWEEP_52)
    assert spec.mode == "sweep"
    assert spec.problem == "5.2"
    assert spec.lam == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert spec.n_values == (5, 7, 9, 11, 13)
    with pytest.raises(FrozenInstanceError):
        spec.lam = 1.5


def test_parse_empty_text_lists_missing_keys():
    with pytest.raises(ConfigError) as info:
        parse_config("")
    message = str(info.value)
    for key in ("mode", "problem", "N"):
        assert key in message


def test_parse_rejects_lambda_above_one():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config("mode = solve\nproblem = 5.1\nN = 8\nlambda = 1.5\n")


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("mode = solve\nwhat = 3\nproblem = 5.1\nN = 8\n")


def test_parse_rejects_small_n_and_bad_ranges():
    with pytest.raises(ConfigError, match="N"):
        parse_config("mode = solve\nproblem = 5.1\nN = 1\n")
    with pytest.raises(ConfigError, match="N"):
        parse_config("mode = sweep\nproblem = 5.1\nN = 4:12:0\n")
    with pytest.raises(ConfigError, match="N"):
        parse_config("mode = sweep\nproblem = 5.1\nN = 8:4:2\n")  # an empty range
    with pytest.raises(ConfigError, match="'N': ranges are start:stop:step"):
        parse_config("mode = sweep\nproblem = 5.1\nN = 4:8\n")


def test_parse_compare_requires_larger_ref():
    text = "mode = compare\nproblem = 5.4\nN = 6:10:2\n"
    with pytest.raises(ConfigError, match="ref_N"):
        parse_config(text)
    with pytest.raises(ConfigError, match="ref_N"):
        parse_config(text + "ref_N = 10\n")
    spec = parse_config(text + "ref_N = 14\n")
    assert spec.ref_n == 14


def test_parse_comments_and_last_key_wins():
    text = "# a comment\nmode = solve\nproblem = 5.1\nN = 8  # trailing\nN = 10\n"
    assert parse_config(text).n_values == (10,)


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"mode": "compare", "problem": "5.4"}, "ref_N"),
        ({"mode": "compare", "problem": "5.4", "ref_n": 6}, "ref_N"),
        ({"n_values": (4, 6)}, "N"),
        ({"problem": "custom"}, "problem"),
        ({"lam": 1.5}, "lambda"),
        ({"linf_points": 1}, "linf_grid"),
        ({"l2_points": 0}, "l2_quad"),
        ({"l2_points": 1.5}, "l2_quad"),
        ({"mode": "bogus"}, "mode"),
        ({"problem": "5.9"}, "problem"),
        ({"timing": "yes"}, "timing"),
        ({"timing": True}, "timing"),
        ({"n_values": (1,)}, "N"),
        ({"mode": "sweep", "n_values": ()}, "N"),
        ({"mode": "sweep", "n_values": (8, 6)}, "N"),
        ({"alpha": -1.5}, "alpha"),
        ({"beta": math.nan}, "beta"),
        ({"mu": 1.5}, "mu"),
        ({"eps": 0.0}, "eps"),
        ({"horizon": -1.0}, "T"),
        ({"y0": math.nan}, "y0"),
        ({"mode": "sweep", "ref_n": 8}, "ref_N"),
        ({"mode": "compare", "problem": "5.4", "n_values": (4, 6), "ref_n": 40.5}, "ref_N"),
        ({"alpha": -1.5, "beta": 0.5}, "alpha"),
    ],
    ids=["compare-no-ref", "ref-too-small", "solve-two-n", "problem-custom",
         "lambda", "linf_grid", "l2_quad", "l2_quad-not-int", "mode", "problem", "timing", "timing-not-str",
         "n-below-2", "n-empty", "n-decreasing", "alpha", "beta", "mu", "eps", "T", "y0",
         "ref-outside-compare", "ref-not-int", "alpha-beside-beta"],
)
def test_hand_built_spec_is_checked_before_any_solve(tmp_path, monkeypatch, changes, key):
    import muntzvide.analysis as analysis
    import muntzvide.cli as cli

    calls, original = [], analysis.solve_once
    counted = lambda *args: calls.append(args[1]) or original(*args)  # noqa: E731
    monkeypatch.setattr(cli, "solve_once", counted)
    monkeypatch.setattr(analysis, "solve_once", counted)
    kwargs = {"mode": "solve", "problem": "5.1", "n_values": (6,), "output": str(tmp_path / "x.csv")}
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        run(RunSpec(**{**kwargs, **changes}))
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_every_solver_key_reaches_the_config(tmp_path, monkeypatch):
    import muntzvide.cli as cli

    seen = []
    row = SweepRow(n=4, l2_e=1e-3, linf_e=1e-3, l2_estar=1e-3, linf_estar=1e-3, runtime_ms=0.0)

    def capture(problem, config, n_values, reference=None):
        seen.append(config)
        return ConvergenceTable(rows=[row])

    monkeypatch.setattr(cli, "convergence_sweep", capture)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = 5.1\nN = 4\noutput = {tmp_path / 'x.csv'}\n")
    overrides = ["lambda=0.25", "alpha=0", "beta=0.5", "linf_grid=301", "l2_quad=50"]
    assert main(["sweep", "--config", str(cfg), *[a for o in overrides for a in ("--set", o)]]) == 0
    want = SolverConfig(lam=0.25, alpha=0.0, beta=0.5, l2_points=50, linf_points=301)
    assert seen == [want]
    assert all(getattr(want, f.name) != f.default for f in fields(SolverConfig))


def test_readme_key_table_matches_runspec():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Recognized keys:", 1)[1].split("\n\n", 2)[1]
    documented = set()
    for row in table.splitlines()[2:]:
        documented |= set(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert documented == {f.metadata["key"] for f in fields(RunSpec)}


# --- outputs --------------------------------------------------------------------


def test_run_sweep_writes_csv_and_plot_data(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = parse_config(
        f"mode = sweep\nproblem = 5.1\nN = 4:8:2\noutput = {out}\nlinf_grid = 501\n"
    )
    assert run(spec) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert all(line.endswith(",0.000") for line in lines[1:])  # timing off
    plot = (tmp_path / "sweep.plot.dat").read_text().splitlines()
    assert len(plot) == 3
    # log10 columns decrease for this spectrally convergent run
    col = [float(line.split()[2]) for line in plot]
    assert col[0] > col[1] > col[2]


def test_timing_on_writes_runtimes(tmp_path):
    out = tmp_path / "timed.csv"
    text = f"mode = sweep\nproblem = 5.1\nN = 4:8:2\noutput = {out}\n"
    assert run(parse_config(text + "timing = on\n")) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 3 and all(float(line.split(",")[-1]) > 0.0 for line in lines)
    # exactly on or off, like every key with choices: no other spelling of a switch
    for value in ("maybe", "true", "1", "false", "0", "yes"):
        with pytest.raises(ConfigError, match=rf"^invalid value for key 'timing': must be one of \('on', 'off'\), got '{value}'$"):
            parse_config(f"{text}timing = {value}\n")


def test_hand_built_timing_off_writes_zero_runtimes(tmp_path):
    out = tmp_path / "hand.csv"
    assert run(RunSpec(mode="sweep", problem="5.1", n_values=(4, 6), output=str(out), timing="off")) == 0
    assert [line.split(",")[-1] for line in out.read_text().splitlines()] == ["runtime_ms", "0.000", "0.000"]


def test_run_solve_writes_nodal_dump(tmp_path):
    out = tmp_path / "single.csv"
    spec = parse_config(f"mode = solve\nproblem = 5.1\nN = 8\noutput = {out}\n")
    assert run(spec) == 0
    assert len(out.read_text().splitlines()) == 2
    nodes = (tmp_path / "single.nodes.csv").read_text().splitlines()
    assert nodes[0] == "theta,phi,phi_star"
    assert len(nodes) == 10
    first = nodes[1].split(",")
    assert len(first) == 3
    assert all(float(v) == float(v) for v in first)  # plain parseable floats


def test_run_solve_solves_once(tmp_path, monkeypatch):
    import muntzvide.analysis
    import muntzvide.cli

    calls = []
    original = muntzvide.analysis.solve_once

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(muntzvide.cli, "solve_once", counted)
    monkeypatch.setattr(muntzvide.analysis, "solve_once", counted)
    out = tmp_path / "once.csv"
    spec = parse_config(f"mode = solve\nproblem = 5.1\nN = 8\noutput = {out}\n")
    assert run(spec) == 0
    assert calls == [8]
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "8" and all(0.0 < float(v) < 1e-6 for v in row[1:5])


def test_run_solve_without_exact_reports_nan(tmp_path):
    out = tmp_path / "ref.csv"
    spec = parse_config(f"mode = solve\nproblem = 5.4\nN = 6\noutput = {out}\n")
    assert run(spec) == 0
    row = out.read_text().splitlines()[1]
    assert "nan" in row


def test_run_compare_mode(tmp_path):
    out = tmp_path / "cmp.csv"
    spec = parse_config(
        f"mode = compare\nproblem = 5.4\nN = 4:6:2\nref_N = 9\noutput = {out}\nlinf_grid = 301\n"
    )
    assert run(spec) == 0
    assert len(out.read_text().splitlines()) == 3


def test_compare_on_a_closed_form_problem_measures_against_the_reference(tmp_path):
    text = "problem = 5.1\nN = 4:6:2\nlinf_grid = 301\n"
    cmp_out, sweep_out = tmp_path / "cmp.csv", tmp_path / "sweep.csv"
    assert run(parse_config(f"mode = compare\n{text}ref_N = 10\noutput = {cmp_out}\n")) == 0
    assert run(parse_config(f"mode = sweep\n{text}output = {sweep_out}\n")) == 0
    config = SolverConfig(linf_points=301)
    p = make_example("5.1")
    table = convergence_sweep(p, config, [4, 6], reference=reference_solution(p, config, 10))
    _write_csv(table, tmp_path / "want.csv", timing=False)
    assert cmp_out.read_bytes() == (tmp_path / "want.csv").read_bytes()
    # the sweep measures the same solves against the exact solution
    assert [line.split(",")[0] for line in sweep_out.read_text().splitlines()] == ["N", "4", "6"]
    assert sweep_out.read_bytes() != cmp_out.read_bytes()


def test_sweep_with_every_row_failed_removes_stale_plot_data(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "results.csv"
    cfg.write_text(f"problem = 5.1\nN = 4:6:2\nlinf_grid = 301\noutput = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert out.with_suffix(".plot.dat").is_file()
    # the same sweep again, with a grid that collapses at every N
    assert main(["sweep", "--config", str(cfg), "--set", "lambda=1e-6"]) == 1
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 and all("nan" in r for r in rows)
    assert not out.with_suffix(".plot.dat").exists()


def test_run_stopped_by_a_solver_error_leaves_no_earlier_results(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "r.csv"
    for mode, problem, args, side in (
        ("solve", "5.1", [], "r.nodes.csv"),
        # the reference solve collapses
        ("compare", "5.4", ["--set", "N=4:8:2", "--set", "ref_N=16"], "r.plot.dat"),
    ):
        cfg.write_text(f"problem = {problem}\nN = 8\noutput = {out}\n")
        assert main([mode, "--config", str(cfg), *args]) == 0
        assert out.is_file() and (tmp_path / side).is_file()
        assert main([mode, "--config", str(cfg), *args, "--set", "lambda=1e-6"]) == 1
        assert capsys.readouterr().err.startswith("error: grid points collapse")
        assert not out.exists() and not (tmp_path / side).exists()
    # a sweep of 5.4, refused before any solve, keeps the compare's results
    assert main(["compare", "--config", str(cfg), *args]) == 0
    written = out.read_bytes()
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "no exact solution" in capsys.readouterr().err
    assert out.read_bytes() == written and (tmp_path / "r.plot.dat").is_file()


def test_every_mode_clears_the_same_output_set(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = 5.1\nN = 4:8:2\noutput = {tmp_path / 'r.csv'}\n")

    def after(first, then, status=0):
        """The files left by run ``first`` and then run ``then``, which exits with ``status``."""
        assert main([*first, "--config", str(cfg)]) == 0
        assert main([*then, "--config", str(cfg)]) == status
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.iterdir() if p != cfg)
        for name in names:
            (tmp_path / name).unlink()
        return names

    solve = ["solve", "--set", "N=8"]
    # a solve that fails clears the sweep's plot data too
    assert after(["sweep"], [*solve, "--set", "lambda=1e-6"], status=1) == []
    assert after(["sweep"], solve) == ["r.csv", "r.nodes.csv"]
    assert after(solve, ["sweep"]) == ["r.csv", "r.plot.dat"]
    assert after(solve, ["compare", "--set", "ref_N=16"]) == ["r.csv", "r.plot.dat"]


def test_run_returns_nonzero_on_row_failure(tmp_path, monkeypatch):
    failed_table = ConvergenceTable(
        rows=[
            SweepRow(
                n=4, l2_e=math.nan, linf_e=math.nan, l2_estar=math.nan,
                linf_estar=math.nan, runtime_ms=0.0, failed=True, message="boom",
            )
        ]
    )
    monkeypatch.setattr("muntzvide.cli.convergence_sweep", lambda *a, **k: failed_table)
    out = tmp_path / "fail.csv"
    spec = parse_config(f"mode = sweep\nproblem = 5.1\nN = 4:6:2\noutput = {out}\n")
    assert run(spec) == 1
    assert "nan" in out.read_text()


def test_error_channels_are_the_row_fields_and_the_csv_columns():
    assert [f.name for f in fields(SweepRow)] == ["n", *ERROR_CHANNELS, "runtime_ms", "failed", "message"]
    assert CSV_HEADER == "N,l2_e,linf_e,l2_estar,linf_estar,runtime_ms"
    row = SweepRow(4)
    assert all(math.isnan(getattr(row, c)) for c in ERROR_CHANNELS)
    assert row.runtime_ms == 0.0 and row.failed is False and row.message == ""


def test_every_row_rendering_is_pinned(tmp_path, monkeypatch, capsys):
    nan = math.nan
    table = ConvergenceTable(
        rows=[
            SweepRow(n=4, l2_e=1.234567891e-3, linf_e=2e-2, l2_estar=0.0, linf_estar=9.87654321e-10, runtime_ms=12.34567),
            SweepRow(n=6, l2_e=nan, linf_e=nan, l2_estar=nan, linf_estar=nan, runtime_ms=0.0, failed=True, message="boom"),
            SweepRow(n=8, l2_e=nan, linf_e=nan, l2_estar=nan, linf_estar=nan, runtime_ms=3.5),
            SweepRow(n=10, l2_e=0.0, linf_e=0.0, l2_estar=0.0, linf_estar=0.0, runtime_ms=0.25),
        ]
    )
    monkeypatch.setattr("muntzvide.cli.convergence_sweep", lambda *a, **k: table)
    out = tmp_path / "pin.csv"
    rows = [
        "4,1.23457e-03,2.00000e-02,0.00000e+00,9.87654e-10,",
        "6,nan,nan,nan,nan,",
        "8,nan,nan,nan,nan,",
        "10,0.00000e+00,0.00000e+00,0.00000e+00,0.00000e+00,",
    ]
    for timing, runtimes in (("off", ["0.000"] * 4), ("on", ["12.346", "0.000", "3.500", "0.250"])):
        spec = parse_config(f"mode = sweep\nproblem = 5.1\nN = 4:8:2\noutput = {out}\ntiming = {timing}\n")
        assert run(spec) == 1
        expected = [CSV_HEADER] + [row + ms for row, ms in zip(rows, runtimes)]
        assert out.read_text() == "\n".join(expected) + "\n"
        assert capsys.readouterr().out.splitlines() == [
            "N=  4  l2_e=1.23457e-03  linf_e=2.00000e-02  l2_e*=0.00000e+00  linf_e*=9.87654e-10  [ok]",
            "N=  6  l2_e=nan  linf_e=nan  l2_e*=nan  linf_e*=nan  [FAILED: boom]",
            "N=  8  l2_e=nan  linf_e=nan  l2_e*=nan  linf_e*=nan  [ok]",
            "N= 10  l2_e=0.00000e+00  linf_e=0.00000e+00  l2_e*=0.00000e+00  linf_e*=0.00000e+00  [ok]",
        ]
    # an unmeasured (NaN) error is nan, as in the CSV; an exact zero is -inf
    plot = "4 -2.908485 -1.698970 -inf -9.005395\n8 nan nan nan nan\n10 -inf -inf -inf -inf\n"
    assert (tmp_path / "pin.plot.dat").read_text() == plot
    _write_plot_data(table, tmp_path / "direct.dat")
    assert (tmp_path / "direct.dat").read_text() == plot


def test_write_plot_data_edge_cases(tmp_path):
    single = ConvergenceTable(
        rows=[SweepRow(n=4, l2_e=1e-3, linf_e=1e-2, l2_estar=1e-3, linf_estar=1e-2, runtime_ms=1.0)]
    )
    path = tmp_path / "one.dat"
    _write_plot_data(single, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].split()[0] == "4"
    assert float(lines[0].split()[2]) == pytest.approx(-2.0, abs=1e-9)


def test_main_subcommand_and_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "main.csv"
    cfg.write_text(f"problem = 5.1\nN = 4:8:2\noutput = {out}\nlinf_grid = 301\n")
    code = main(["solve", "--config", str(cfg), "--set", "N=6"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2  # single row: override applied
    assert "N=  6" in capsys.readouterr().out


def test_subcommand_wins_over_set_mode(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "main.csv"
    cfg.write_text(f"problem = 5.1\nN = 4:8:2\noutput = {out}\nlinf_grid = 301\n")
    assert main(["sweep", "--config", str(cfg), "--set", "mode=solve"]) == 0
    assert (tmp_path / "main.plot.dat").is_file()
    assert not (tmp_path / "main.nodes.csv").exists()


def test_consecutive_main_calls_do_not_share_overrides(tmp_path, monkeypatch):
    # the parser is built once per process; each call's --set list is its own
    import muntzvide.cli as cli

    specs = []
    monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = 5.1\nN = 4\n")
    assert main(["sweep", "--config", str(cfg), "--set", "N=6", "--set", "alpha=0"]) == 0
    assert main(["sweep", "--config", str(cfg), "--set", "beta=0"]) == 0
    assert main(["compare", "--config", str(cfg), "--set", "ref_N=9"]) == 0
    assert [s.n_values for s in specs] == [(6,), (4,), (4,)]
    assert [(s.alpha, s.beta) for s in specs] == [(0.0, -0.5), (-0.5, 0.0), (-0.5, -0.5)]
    assert [(s.mode, s.ref_n) for s in specs] == [("sweep", None), ("sweep", None), ("compare", 9)]


def test_main_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = 5.1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "missing required keys" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_the_module_runs_as_a_process(tmp_path):
    # ``python -m muntzvide.cli`` exits with main's status; the three runs share the wall clock
    src = Path(main.__code__.co_filename).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = 5.1\nN = 4:8:2\noutput = {tmp_path / 'process.csv'}\n")
    overrides = ([], ["--set", "lambda=1.5"], ["--set", "lambda=1e-6", "--set", f"output={tmp_path / 'small.csv'}"])
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "muntzvide.cli", "sweep", "--config", str(cfg), *extra],
            env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for extra in overrides
    ]
    # (stdout, stderr, status) of each
    ok, refused, collapsed = [(*p.communicate(timeout=60), p.returncode) for p in procs]
    assert ok[2] == 0 and ok[1] == ""
    assert main(["sweep", "--config", str(cfg), "--set", f"output={tmp_path / 'inline.csv'}"]) == 0
    assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()
    assert refused[2] == 2 and len(refused[1].splitlines()) == 1
    assert refused[1].startswith("error: ") and "lambda" in refused[1]
    assert collapsed[2] == 1


def test_config_that_is_not_utf8_is_one_error_line_and_exit_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    out = tmp_path / "none.csv"
    # one Latin-1 byte in a comment
    cfg.write_bytes(f"# caf\xe9\nproblem = 5.1\nN = 4\noutput = {out}\n".encode("latin-1"))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config: ")
    assert not out.exists()


def test_config_with_a_utf8_byte_order_mark_is_read(tmp_path):
    cfg = tmp_path / "bom.cfg"
    out = tmp_path / "bom.csv"
    cfg.write_bytes(b"\xef\xbb\xbf" + f"problem = 5.1\nN = 4\nlinf_grid = 301\noutput = {out}\n".encode())
    assert main(["solve", "--config", str(cfg)]) == 0
    assert out.read_text().splitlines()[1].startswith("4,")


def test_overrides_the_problem_does_not_take_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "none.csv"
    cfg.write_text(f"N = 4\nmu = 0.5\noutput = {out}\n")
    for problem, key in [("5.2", "y0=2"), ("5.1", "y0=2")]:
        argv = ["solve", "--config", str(cfg), "--set", f"problem={problem}", "--set", key]
        assert main(argv) == 2
        assert key.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "item, message",
    [
        ("problem = custom",
         "error: invalid value for key 'problem': must be one of ('5.1', '5.2', '5.3', '5.4'), got 'custom'"),
        *((f"{key} = one", f"error: line 4: unknown key {key!r}") for key in ("a1", "b1", "f1", "K1", "K2")),
        # and the forcing selector: the printed forcings are built in Python,
        # make_example(key, forcing="printed")
        ("forcing = printed", "error: line 4: unknown key 'forcing'"),
        ("--set forcing=printed", "error: --set forcing=printed: unknown key 'forcing'"),
    ],
    ids=["problem-custom", "a1", "b1", "f1", "K1", "K2", "forcing", "set-forcing"],
)
def test_retired_custom_problem_keys_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, item, message):
    import muntzvide.analysis as analysis
    import muntzvide.cli as cli

    calls, original = [], analysis.solve_once
    counted = lambda *args: calls.append(args[1]) or original(*args)  # noqa: E731
    monkeypatch.setattr(cli, "solve_once", counted)
    monkeypatch.setattr(analysis, "solve_once", counted)
    cfg = tmp_path / "run.cfg"
    text = f"problem = 5.1\nN = 4\noutput = {tmp_path / 'x.csv'}\n"
    overrides = item.split(" ", 1) if item.startswith("--set ") else []
    cfg.write_text(text if overrides else f"{text}{item}\n")
    assert main(["solve", "--config", str(cfg), *overrides]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_out_of_range_problem_parameter_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "none.csv"
    cfg.write_text(f"problem = 5.1\nN = 4:8:2\noutput = {out}\n")
    assert main(["sweep", "--config", str(cfg), "--set", "mu=1.5"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: invalid value for key 'mu': mu must lie in [0, 1), got 1.5"]
    assert not out.exists()


def test_non_finite_initial_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "none.csv"
    cfg.write_text(f"problem = 5.4\nN = 4\ny0 = nan\noutput = {out}\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "y0" in capsys.readouterr().err
    assert not out.exists()


def test_unformable_rule_fails_every_sweep_row(tmp_path, capsys):
    # 2^(alpha+beta+1) overflows a float: a QuadratureError, as for a rule
    # with nonpositive weights, not a traceback
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    cfg.write_text(f"problem = 5.1\nN = 4:8:2\nalpha = 1100\noutput = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()
    assert len(rows) == 3 and all("FAILED: rule mass overflows" in r for r in rows)
    assert out.exists() and not out.with_suffix(".plot.dat").exists()


@pytest.mark.parametrize("mode", ["solve", "compare"])
def test_solver_error_is_one_error_line_and_exit_1(tmp_path, capsys, monkeypatch, mode):
    import muntzvide.cli as cli

    def fail(*args, **kwargs):
        raise SingularSystemError("singular collocation matrix", math.inf)

    monkeypatch.setattr(cli, "solve_once", fail)
    monkeypatch.setattr(cli, "reference_solution", fail)
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "none.csv"
    cfg.write_text(f"problem = 5.4\nN = 4\noutput = {out}\n")
    ref = ["--set", "ref_N=8"] if mode == "compare" else []
    assert main([mode, "--config", str(cfg), *ref]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: singular collocation matrix (condition estimate inf)"]
    assert not out.exists()


def test_horizon_too_long_to_rescale_is_one_error_line_and_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "none.csv"
    cfg.write_text(f"problem = 5.4\nN = 4:8:2\nref_N = 12\nT = 1e300\noutput = {out}\n")
    assert main(["compare", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: T=1e+300 is too long to rescale: T^(2-mu) overflows a float at mu=0.5"
    ]
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_unwritable_output_is_one_error_line_and_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "missing" / "x.csv"
    cfg.write_text(f"problem = 5.1\nN = 4\nlinf_grid = 301\noutput = {out}\n")
    for mode in ("solve", "sweep"):
        assert main([mode, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "missing" in err[0]
    assert not out.parent.exists()


def test_unwritable_output_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch):
    import muntzvide.analysis as analysis
    import muntzvide.cli as cli

    calls, original = [], analysis.solve_once
    counted = lambda *args: calls.append(args[1]) or original(*args)  # noqa: E731
    monkeypatch.setattr(cli, "solve_once", counted)
    monkeypatch.setattr(analysis, "solve_once", counted)
    # a directory at the output or at either file of its set refuses every mode
    cfg = tmp_path / "run.cfg"
    for output, taken, reason in (
        ("missing/x.csv", None, "missing"),
        ("taken.csv", "taken.csv", "taken.csv': it is a directory"),
        # a name-less output is refused as a directory, not by how side names are made
        ("/", None, "'/': it is a directory"),
        ("r.csv", "r.plot.dat", "r.plot.dat': it is a directory"),
        ("r.csv", "r.nodes.csv", "r.nodes.csv': it is a directory"),
    ):
        if taken:
            (tmp_path / taken).mkdir()
        cfg.write_text(f"problem = 5.1\nN = 4\noutput = {tmp_path / output}\n")
        for mode in MODES:
            ref = ["--set", "ref_N=8"] if mode == "compare" else []
            assert main([mode, "--config", str(cfg), *ref]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
        if taken:
            assert list((tmp_path / taken).iterdir()) == []
            (tmp_path / taken).rmdir()
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_sweep_without_closed_form_points_to_compare(tmp_path, capsys, monkeypatch):
    import muntzvide.analysis as analysis
    import muntzvide.cli as cli

    calls, original = [], analysis.solve_once
    counted = lambda *args: calls.append(args[1]) or original(*args)  # noqa: E731
    monkeypatch.setattr(cli, "solve_once", counted)
    monkeypatch.setattr(analysis, "solve_once", counted)
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "none.csv"
    cfg.write_text(f"problem = 5.4\nN = 4:8:2\noutput = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "compare" in err[0] and "ref_N" in err[0]
    assert calls == []
    assert not out.exists()


def test_help_lists_the_modes_and_options(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "{solve,sweep,compare}" in out and "--config CONFIG" in out and "--set KEY=VALUE" in out


def test_the_declared_console_script_is_main_and_its_help_exits_0():
    # read by pattern, not tomllib, which Python 3.10 lacks; the package need
    # not be installed, so the entry is run as its generated wrapper would run it
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, func = re.fullmatch(r'\s*muntzvide\s*=\s*"([\w.]+):(\w+)"\s*', scripts).groups()
    assert getattr(importlib.import_module(module), func) is main
    src = Path(main.__code__.co_filename).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())", "--help"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and "{solve,sweep,compare}" in proc.stdout


def test_bad_override_is_named_not_numbered(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = 5.1\nN = 4\n")
    for item, message in [
        ("bogus=1", "error: --set bogus=1: unknown key 'bogus'"),
        ("N", "error: --set N: expected 'key = value', got 'N'"),
        ("N=", "error: --set N=: empty value for key 'N'"),
        # a bad value is checked by RunSpec, which names the key
        ("timing=yes", "error: invalid value for key 'timing': must be one of ('on', 'off'), got 'yes'"),
    ]:
        assert main(["sweep", "--config", str(cfg), "--set", item]) == 2
        assert capsys.readouterr().err.splitlines() == [message]
    # a bad line of the file itself is still reported by its number
    with pytest.raises(ConfigError, match="^line 2: unknown key 'bogus'"):
        parse_config("problem = 5.1\nbogus = 1\n", ["N=4"])


SNAPSHOT_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"


def test_cli_snapshot_trees_are_identical_run_to_run(tmp_path):
    # tools/cli_snapshot.py: fifteen default CLI runs over the three modes
    # and 35 solves' systems and solutions, the byte-identity check between
    # two versions of the code
    spec = importlib.util.spec_from_file_location("cli_snapshot", SNAPSHOT_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    first, second = tool.snapshot(tmp_path / "a"), tool.snapshot(tmp_path / "b")
    assert first == second
    assert sorted(first.values()) == [0] * 9 + [1] * 5 + [2]
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert a == b
    # five files per run; two of the runs that exit 1 write no plot data, two
    # stop on a solver error and, like the run that exits 2, write no results;
    # twelve files per solve; and the tree's one environment file
    assert len(a) == 5 * 15 - 2 - 2 * 2 - 2 + 12 * 35 + 1
    assert a["environment"] == tool.environment_text().encode()
    assert not any(str(tmp_path).encode() in data for data in a.values())


@pytest.mark.parametrize("run_name, want", [("cli_snapshot", None), ("__main__", "1")])
def test_cli_snapshot_pins_one_blas_thread_only_as_a_script(monkeypatch, capsys, run_name, want):
    # run as a script, the tool defaults each BLAS thread variable to 1 before
    # numpy loads; imported, it leaves the environment alone
    import os
    import runpy
    import sys

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    environ = {k: v for k, v in os.environ.items() if k not in names}
    environ["MKL_NUM_THREADS"] = "2"  # a caller's setting is kept
    monkeypatch.setattr(os, "environ", environ)
    monkeypatch.setattr(sys, "argv", [str(SNAPSHOT_TOOL)])  # no OUTDIR: usage, exit 2
    if run_name == "__main__":
        with pytest.raises(SystemExit) as stop:
            runpy.run_path(str(SNAPSHOT_TOOL), run_name=run_name)
        assert stop.value.code == 2 and capsys.readouterr().err == "usage: cli_snapshot.py OUTDIR\n"
    else:
        runpy.run_path(str(SNAPSHOT_TOOL), run_name=run_name)
    assert [environ.get(k) for k in names] == [want, want, "2"]
