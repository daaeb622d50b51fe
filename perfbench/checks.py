"""Output checks and order statistics for the benchmark.

Only the standard library: the paper_cli workload parses its children's
output with these helpers without importing the program.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

POLICIES = ("conv-dpm", "asap-dpm", "fc-dpm")

#: Per-cell fields compared across routes and against the committed
#: digest: (fuel, load_charge, bled, deficit, n_sleeps).
CELL_FIELDS = ("fuel", "load_charge", "bled", "deficit", "n_sleeps")

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def cell_of(result) -> tuple[float, ...]:
    """A cell tuple from a ``SimulationResult`` or a metric dict."""
    if isinstance(result, dict):
        return tuple(float(result[k]) for k in CELL_FIELDS)
    return tuple(float(getattr(result, k)) for k in CELL_FIELDS)


def digest(cells: dict) -> str:
    """Order-free digest of ``{(seed, policy): cell}`` at full precision."""
    rows = sorted(
        [seed, policy, [float(v).hex() for v in cell]]
        for (seed, policy), cell in cells.items()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def committed_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def parse_table(stdout: str) -> dict:
    """``{"rows": {policy: (measured, paper)}, "saving": line}`` from
    ``fcdpm table2|table3`` output."""
    rows = {}
    saving = None
    for line in stdout.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[0] in POLICIES:
            rows[parts[0]] = (parts[1], parts[2])
        elif line.startswith("FC-DPM saves"):
            saving = line.strip()
    return {"rows": rows, "saving": saving}


def expected_table(result) -> dict:
    """What ``fcdpm`` prints for an in-process ``TableResult``."""
    rows = {
        key: (f"{100 * result.normalized[key]:.1f}", f"{100 * result.paper[key]:.1f}")
        for key in POLICIES
    }
    saving = (
        f"FC-DPM saves {100 * result.fc_vs_asap_saving:.1f}% fuel vs ASAP-DPM "
        f"(lifetime x{result.fc_vs_asap_lifetime:.2f})"
    )
    return {"rows": rows, "saving": saving}


def paper_err_pp(tables) -> float:
    """Largest |reproduced - paper| normalized fuel, in percentage points,
    at the printed precision, over parsed or expected tables."""
    return round(
        max(
            abs(float(measured) - float(paper))
            for table in tables
            for measured, paper in table["rows"].values()
        ),
        1,
    )


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile of ``samples``
    with at least ten samples above it.

    With ten or fewer samples no such percentile exists and the maximum
    is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(values) -> float:
    return statistics.median(values)
