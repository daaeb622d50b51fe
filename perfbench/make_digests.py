#!/usr/bin/env python3
"""Print the committed output digests from the scalar reference path.

    python3 perfbench/make_digests.py > perfbench/digests.json

Each workload's digest covers its op-0 cells at the default seed, every
cell computed by the scalar ``SlotSimulator``; paper_cli's covers the
in-process Table 2/3 cells.  Regenerate only when a change is meant to
alter simulation results, and say so in that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    from repro.analysis.tables import table2, table3

    out = {"seed": DEFAULT_SEED}
    for name, cls in sorted(WORKLOADS.items()):
        wl = cls(HERE.parent, HERE, DEFAULT_SEED)
        if name == "paper_cli":
            tables = {"table2": table2(), "table3": table3()}
            cells = {
                (t, p): checks.cell_of(r.results[p])
                for t, r in tables.items()
                for p in checks.POLICIES
            }
        else:
            cells = {
                (s, p): checks.cell_of(wl.scalar_cell(s, p))
                for s in wl.op_seeds(0)
                for p in checks.POLICIES
            }
        out[name] = checks.digest(cells)
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
