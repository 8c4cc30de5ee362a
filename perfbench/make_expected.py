"""Write ``expected.json``: the stored output of every menu item.

Run from the repository root at the commit whose outputs define
correctness (the seed commit of the benchmark):

    PYTHONPATH=src python3 perfbench/make_expected.py

Later changes are checked against these values with the tolerances in
``workloads.py``; regenerate them only when a change is meant to alter the
solver's numbers, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main() -> int:
    out = {}
    state = wl.SWEEP.setup(Path("."))
    items = {}
    for item_id, item in wl.SWEEP.menu.items():
        row = wl.SWEEP.op(state, item).rows[0]
        if row.failed:
            raise SystemExit(f"{item_id}: {row.message}")
        items[item_id] = {ch: float(getattr(row, ch)) for ch in wl.ERROR_CHANNELS}
    out[wl.SWEEP.name] = items

    state = wl.SOLVE.setup(Path("."))
    grid, sol, _ = wl.SOLVE.op(state, (wl.SOLVE_REF_N,))
    u, u_star = wl.probe_values(grid, sol)
    reference = {"ref_n": wl.SOLVE_REF_N, "u": u.tolist(), "u_star": u_star.tolist()}
    out[wl.SOLVE.name] = {item_id: reference for item_id in wl.SOLVE.menu}

    items = {}
    with tempfile.TemporaryDirectory() as tmp:
        state = wl.CLI.setup(Path(tmp))
        for item_id, item in wl.CLI.menu.items():
            if wl.CLI.op(state, item) != 0:
                raise SystemExit(f"{item_id}: compare run failed")
            header, rows = wl.parse_csv(state[1].read_text())
            items[item_id] = {"header": header, "rows": rows}
    out[wl.CLI.name] = items

    wl.EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
