"""Layer probes: time the program's layers from outside, at their boundaries.

A probe replaces one public name, in the namespace that calls it, with a
timing wrapper (``repro.sim.stacked.plan_slot_arrays``, not
``repro.sim.integrator.plan_slot_arrays``, so the stacked and 1D callers
of the same planner land in different layers).  Nothing inside ``src/``
records a span; everything here is undone when the probe set exits.

The module imports only the standard library, so a child process can
load it without perturbing the import times it measures.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class ProbeError(RuntimeError):
    """A layer boundary is missing, or a layer recorded no calls."""


#: Exit code of a traced child process whose probes failed to install.
PROBE_ERROR_EXIT = 97


@dataclass(frozen=True)
class Layer:
    """One program layer and the boundary names that enter it.

    ``targets`` are ``(module, attribute)`` pairs; the attribute may be
    ``Class.method``.  ``expect`` names the workloads meant to exercise
    the layer: a traced run of one of them fails if the layer records
    no calls there.  Every layer records its calls, its wall time, and
    its self time: the wall time minus that of the probed calls it makes.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    expect: tuple[str, ...]


#: Result assembly sits in the batch and fast drivers, so their self
#: time (minus every probed kernel call) is the assembly layer.
LAYERS: tuple[Layer, ...] = (
    Layer(
        "workload.build_slot_arrays",
        (("repro.scenario.spec", "Scenario.build_slot_arrays"),),
        ("mc_batch",),
    ),
    Layer(
        "workload.build_trace",
        (("repro.scenario.spec", "Scenario.build_trace"),),
        ("narrow_runs",),
    ),
    Layer(
        "plan.stacked",
        (("repro.sim.stacked", "plan_slot_arrays"),),
        ("mc_batch",),
    ),
    Layer(
        "plan.1d",
        (("repro.sim.vectorized", "plan_slot_arrays"),),
        ("narrow_runs",),
    ),
    Layer("stack", (("repro.sim.stacked", "_stack_from_flat"),), ("mc_batch",)),
    Layer(
        "predict.scan_batch",
        (("repro.sim.stacked", "exponential_average_scan_batch"),),
        ("mc_batch",),
    ),
    Layer(
        "predict.scan_1d",
        (
            ("repro.sim.vectorized", "exponential_average_scan"),
            ("repro.dpm.predictive", "exponential_average_scan"),
        ),
        ("narrow_runs",),
    ),
    Layer(
        "solve.array",
        (("repro.sim.stacked", "solve_slot_array"),),
        ("mc_batch",),
    ),
    Layer(
        "solve.memo",
        (
            ("repro.sim.vectorized", "solve_slot_memo"),
            ("repro.core.fc_dpm", "solve_slot_memo"),
        ),
        ("narrow_runs", "paper_cli"),
    ),
    Layer(
        "integrate.clamp_batch",
        (("repro.sim.stacked", "clamped_cumsum_batch"),),
        ("mc_batch",),
    ),
    Layer(
        "integrate.clamp_1d",
        (("repro.sim.vectorized", "clamped_cumsum"),),
        ("narrow_runs",),
    ),
    Layer(
        "sim.batch",
        (
            ("repro.sim.vectorized", "simulate_batch"),
            ("repro.sim.stacked", "simulate_batch_stacked"),
        ),
        ("mc_batch",),
    ),
    Layer(
        "sim.fast",
        (("repro.sim.vectorized", "simulate_fast"),),
        ("narrow_runs",),
    ),
    Layer(
        "scalar.run",
        (("repro.sim.slotsim", "SlotSimulator.run"),),
        ("paper_cli",),
    ),
    Layer(
        "state.save",
        (("repro.exp.state", "ExperimentStore.save"),),
        ("mc_batch",),
    ),
    Layer(
        "cache.store",
        (("repro.runtime.cache", "ResultCache.store"),),
        ("mc_batch",),
    ),
    Layer(
        "cache.verify",
        (("repro.exp.runner", "verified_in_cache"),),
        ("mc_batch",),
    ),
)

#: Layers whose returned ``SimulationResult``s are counted as result
#: rows -- only at the outermost of them, so nested calls count once.
_RESULT_LAYERS = ("sim.batch", "sim.fast", "scalar.run")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    layer: str
    child_s: float = 0.0


@dataclass
class Recorder:
    """Per-phase layer statistics collected by the installed probes."""

    phase: str = "op"
    stats: dict[tuple[str, str], LayerStats] = field(default_factory=dict)
    #: Extra counts gathered at the boundaries (slot rows, bytes).
    counts: dict[tuple[str, str], float] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)

    def layer(self, name: str, phase: str | None = None) -> LayerStats:
        return self.stats.get((phase or self.phase, name), LayerStats())

    def count(self, name: str, phase: str | None = None) -> float:
        return self.counts.get((phase or self.phase, name), 0.0)

    def add_count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def calls(self, name: str) -> int:
        """Calls of one layer summed over every phase."""
        return sum(s.calls for (_, n), s in self.stats.items() if n == name)

    def to_dict(self) -> dict:
        return {
            "stats": [
                [phase, name, s.calls, s.total_s, s.self_s]
                for (phase, name), s in self.stats.items()
            ],
            "counts": [[phase, name, v] for (phase, name), v in self.counts.items()],
        }

    def merge_dict(self, data: dict, phase: str) -> None:
        """Fold a child process's recorder into ``phase``."""
        for _, name, calls, total_s, self_s in data["stats"]:
            s = self.stats.setdefault((phase, name), LayerStats())
            s.calls += calls
            s.total_s += total_s
            s.self_s += self_s
        for _, name, value in data["counts"]:
            key = (phase, name)
            self.counts[key] = self.counts.get(key, 0.0) + value


def _on_return(rec: Recorder, layer: str, outermost: bool, value) -> None:
    if layer == "state.save":
        try:
            rec.add_count("state.bytes_written", os.stat(value).st_size)
        except (OSError, TypeError):
            pass
    elif layer in _RESULT_LAYERS and outermost:
        rec.add_count("result.slot_rows", _slot_rows(value))


def _slot_rows(value) -> int:
    """Slot rows held by a ``SimulationResult`` or a batch result dict."""
    if isinstance(value, dict):
        return sum(_slot_rows(v) for v in value.values())
    slots = getattr(value, "slots", None)
    return len(slots) if slots is not None else 0


def _wrap(fn, layer: Layer, rec: Recorder):
    name = layer.name
    tracks_results = name in _RESULT_LAYERS

    def probe(*args, **kwargs):
        stack = rec._stack
        outermost = tracks_results and not any(
            f.layer in _RESULT_LAYERS for f in stack
        )
        frame = _Frame(name)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1].child_s += dt
            s = rec.stats.setdefault((rec.phase, name), LayerStats())
            s.calls += 1
            s.total_s += dt
            s.self_s += dt - frame.child_s
        _on_return(rec, name, outermost, value)
        return value

    probe.__name__ = getattr(fn, "__name__", name)
    probe.__doc__ = getattr(fn, "__doc__", None)
    probe.__wrapped__ = fn
    return probe


def _resolve(module: str, attr: str):
    """``(owner, attribute name, current value, owned)`` for a target.

    Raises :class:`ProbeError` naming the boundary when the module, the
    class, or the attribute no longer exists.
    """
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise ProbeError(f"probe target module {module} is gone: {exc}") from exc
    *path, leaf = attr.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise ProbeError(f"probe target {module}.{attr}: no {part!r}")
        owner = getattr(owner, part)
    if not hasattr(owner, leaf):
        raise ProbeError(f"probe target {module}.{attr} no longer exists")
    owned = isinstance(owner, type) and leaf in owner.__dict__
    if isinstance(owner, type) and not owned:
        raise ProbeError(f"probe target {module}.{attr} is inherited, not defined there")
    value = owner.__dict__[leaf] if owned else getattr(owner, leaf)
    if not callable(value):
        raise ProbeError(f"probe target {module}.{attr} is not callable")
    return owner, leaf, value


@contextmanager
def installed(rec: Recorder, layers=LAYERS):
    """Wrap every layer boundary for the block; restore them all after.

    Every target resolves before anything is wrapped, so a missing name
    raises :class:`ProbeError` with the program untouched.
    """
    plan = []
    for layer in layers:
        for module, attr in layer.targets:
            owner, leaf, value = _resolve(module, attr)
            plan.append((owner, leaf, value, layer))
    done = []
    try:
        for owner, leaf, value, layer in plan:
            setattr(owner, leaf, _wrap(value, layer, rec))
            done.append((owner, leaf, value))
        yield rec
    finally:
        for owner, leaf, value in reversed(done):
            setattr(owner, leaf, value)


def check_exercised(rec: Recorder, workload: str, layers=LAYERS) -> None:
    """Fail loudly when a layer meant for ``workload`` recorded no calls.

    A renamed boundary must not quietly report 0 s.
    """
    idle = [
        layer.name
        for layer in layers
        if workload in layer.expect and rec.calls(layer.name) == 0
    ]
    if idle:
        raise ProbeError(
            f"layers {', '.join(idle)} recorded no calls on {workload}, "
            "which is meant to exercise them -- was a boundary renamed?"
        )


def parse_importtime(stderr: str) -> dict[str, tuple[float, float, int]]:
    """``{module: (self_s, cumulative_s, depth)}`` from ``-X importtime``.

    A module imported twice keeps its first line (Python imports it once).
    """
    out: dict[str, tuple[float, float, int]] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        out.setdefault(name, (self_us / 1e6, cum_us / 1e6, depth))
    return out


def import_metrics(table: dict[str, tuple[float, float, int]]) -> dict[str, float]:
    """The import layer's metrics from a parsed ``-X importtime`` table."""
    _, repro_s, repro_depth = table.get("repro", (0.0, 0.0, 0))
    _, cli_cum, cli_depth = table.get("repro.cli", (0.0, 0.0, 0))
    # ``import repro.cli`` imports the package inside its own line; an
    # earlier ``import repro`` leaves two sibling lines instead.
    cli_s = cli_cum if repro_depth > cli_depth else repro_s + cli_cum
    scipy = [v for k, v in table.items() if k == "scipy" or k.startswith("scipy.")]
    return {
        "import.repro_s": repro_s,
        "import.cli_s": cli_s,
        "import.scipy_s": sum(v[0] for v in scipy),
        "import.scipy_loaded": 1.0 if scipy else 0.0,
    }
