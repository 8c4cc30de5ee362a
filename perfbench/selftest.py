"""Tests of the benchmark itself: span arithmetic, seeding, names and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's ``test_*.py`` pattern, so the solver's
own test run does not collect it; name it on the command line as above.
"""

import itertools
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads as wl
from tracer import Tracer, self_times

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    np.testing.assert_allclose(self_times(parent, start, end), [4.0, 2.0, 3.0, 1.0])


def test_tracer_nests_spans_and_totals_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    totals = tracer.layer_totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 2
    spans = tracer.arrays()
    assert list(spans["parent"]) == [-1, 0, 0]
    outer_s = spans["end"][0] - spans["start"][0]
    inner_s = float(np.sum(spans["end"][1:] - spans["start"][1:]))
    assert totals["outer"][1] == pytest.approx(outer_s - inner_s, abs=1e-12)


def test_tracer_catches_from_imported_calls_and_restores_them():
    import muntzvide.analysis
    import muntzvide.muntz_basis
    import muntzvide.problem

    original = muntzvide.analysis.build_grid
    tracer = Tracer()
    tracer.install()
    try:
        problem = muntzvide.problem.make_example("5.4")
        muntzvide.analysis.solve_once(problem, 4, muntzvide.analysis.SolverConfig())
    finally:
        tracer.uninstall()
    assert muntzvide.analysis.build_grid is original
    assert muntzvide.muntz_basis.build_grid is original
    totals = tracer.layer_totals()
    for layer in ("muntz_basis.build_grid", "collocation.assemble", "problem.kernel"):
        assert totals[layer][0] > 0, layer
    assert totals["problem.forcing"][0] == 0
    assert tracer.gauss_jacobi_points > 0
    assert tracer.basis_entries > 0


def test_missing_layer_is_absent_not_zero(monkeypatch):
    import muntzvide.muntz_basis

    monkeypatch.delattr(muntzvide.muntz_basis, "interpolate")
    tracer = Tracer()
    assert "muntz_basis.interpolate" in tracer.absent
    assert tracer.layer_totals()["muntz_basis.interpolate"] is None
    layers = run.per_layer({"layers": {"muntz_basis.interpolate.calls": None}})
    assert layers["muntz_basis.interpolate.calls"]["value"] is None


def test_same_seed_gives_same_inputs():
    def first(seed, n):
        return list(itertools.islice(wl.op_sequence(wl.SWEEP.menu, seed), n))

    m = len(wl.SWEEP.menu)
    assert first(7, 3 * m) == first(7, 3 * m)
    assert first(7, m) != first(8, m)
    for k in range(3):  # every pass deals the whole menu once
        assert sorted(first(7, 3 * m)[k * m:(k + 1) * m]) == sorted(wl.SWEEP.menu)


def test_menu_sizes_keep_percentiles_inside_one_item():
    for workload in wl.WORKLOADS.values():
        m = len(workload.menu)
        assert m % 2 == 1 and 0.2 <= (0.9 * m) % 1 <= 0.8, workload.name


def test_metric_names_are_valid_and_workloads_match_benchmark_json():
    bench = run.BENCHMARK
    assert list(wl.WORKLOADS) == [w["name"] for w in bench["workloads"]]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_end_to_end_report_has_every_metric():
    ref = run.CAL_REF_MS
    result = {
        # a machine running at half the reference speed
        "records": [{"ms": 2.0 * (10.0 + i), "cal_ms": 2.0 * ref, "ok": True} for i in range(21)],
        "peak_rss_mb": 60.0,
        "accuracy_digits_min": 9.5,
    }
    setups = [{"setup_s": s, "setup_cal_ms": ref} for s in (0.5, 0.7, 0.6)]
    metrics = run.end_to_end(result, setups)
    assert list(metrics) == [m["name"] for m in run.BENCHMARK["end_to_end"]]
    assert metrics["op_ms.p50"]["value"] == pytest.approx(20.0)
    assert metrics["setup_s"]["value"] == 0.6
    assert all(m["value"] > 0 for m in metrics.values())


def _sweep_table(values, failed=False, runtime_ms=5.0, n=8):
    row = SimpleNamespace(n=n, failed=failed, runtime_ms=runtime_ms, message="", **values)
    return SimpleNamespace(rows=[row])


def test_sweep_check_rejects_perturbed_output():
    item_id = "5.2/N=8"
    item = wl.SWEEP.menu[item_id]
    exp = wl.load_expected(wl.SWEEP.name)[item_id]
    assert wl.SWEEP.check(None, item, _sweep_table(exp), exp).ok
    bad = dict(exp, linf_e=exp["linf_e"] * 1.01)
    assert not wl.SWEEP.check(None, item, _sweep_table(bad), exp).ok
    assert not wl.SWEEP.check(None, item, _sweep_table(exp, failed=True), exp).ok
    # a row that skipped error evaluation must not pass as a fast op
    assert not wl.SWEEP.check(None, item, _sweep_table(exp, runtime_ms=0.0), exp).ok


def test_solve_check_rejects_perturbed_solution():
    item = wl.SOLVE.menu["N=64"]
    exp = wl.load_expected(wl.SOLVE.name)["N=64"]
    state = wl.SOLVE.setup(Path("."))
    grid, sol, ms = wl.SOLVE.op(state, item)
    verdict = wl.SOLVE.check(state, item, (grid, sol, ms), exp)
    assert verdict.ok and verdict.error < 1e-12
    bad = SimpleNamespace(u=sol.u + 1e-6, u_star=sol.u_star)
    assert not wl.SOLVE.check(state, item, (grid, bad, ms), exp).ok


def test_cli_check_rejects_perturbed_csv(tmp_path):
    item_id = "ref_N=24/N=6:12:6"
    item = wl.CLI.menu[item_id]
    exp = wl.load_expected(wl.CLI.name)[item_id]
    state = wl.CLI.setup(tmp_path)

    def write(rows):
        lines = [exp["header"]] + [
            f"{r[0]:g}," + ",".join(f"{x:.5e}" for x in r[1:-1]) + f",{r[-1]:.3f}" for r in rows
        ]
        state[1].write_text("\n".join(lines) + "\n")

    write(exp["rows"])
    assert wl.CLI.check(state, item, 0, exp).ok
    write(exp["rows"])
    assert not wl.CLI.check(state, item, 1, exp).ok
    rows = [list(r) for r in exp["rows"]]
    rows[1][2] *= 1.01
    write(rows)
    assert not wl.CLI.check(state, item, 0, exp).ok
    assert not wl.CLI.check(state, item, 0, exp).ok  # results file consumed or missing


def test_accuracy_digits_floor():
    assert wl.accuracy_digits(0.0) == 16.0
    assert wl.accuracy_digits(1e-3) == pytest.approx(3.0)
    assert math.isfinite(wl.accuracy_digits(1e-300))
