"""The three benchmark workloads.

Every workload is closed-loop: one client in one process with
``workers=1``; the next op starts when the previous one returns.

Op ``k`` of a run with base seed ``s`` reads trace seeds
``base(s) + k*N .. base(s) + (k+1)*N - 1``; the set-up warm-up op reads
the block just below ``base(s)``.  ``narrow_runs`` ops use the first
seeds of ``mc_batch``'s block, so their op-0 cells are a subset of
``mc_batch``'s op 0 at the same seed.

Importing this module imports nothing from the program; each workload
imports it in :meth:`Workload.setup`, which is what set-up time counts.
"""

from __future__ import annotations

import dataclasses
import os
import random
import resource
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import probes
from checks import (
    POLICIES,
    cell_of,
    digest,
    expected_table,
    median,
    paper_err_pp,
    parse_table,
)

SCENARIO = "exp2-fc-dpm"
#: Seeds per ``simulate_batch`` call of the cross-route check.
BATCH_CHECK_SEEDS = 1000
#: Trace seeds of a traced ``mc_batch`` op that it also commits.
COMMIT_SEEDS = 5


def seed_base(seed: int) -> int:
    """First trace seed of op 0; runs with different seeds never overlap."""
    return 1_000_000 * seed + 100_000


class Workload:
    """One workload: set-up, the op, and output checks."""

    name = ""
    #: Trace seeds per op (each runs every policy in ``POLICIES``).
    seeds_per_op = 0
    in_process = True
    #: Whether each op's cells are compared with ``simulate_batch``'s.
    cross_route = False

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.base = seed_base(seed)

    # -- inputs --------------------------------------------------------------

    def op_seeds(self, k: int) -> list[int]:
        n = self.seeds_per_op
        return list(range(self.base + k * n, self.base + (k + 1) * n))

    def cells_per_op(self) -> int:
        return self.seeds_per_op * len(POLICIES)

    def pick_cell(self, k: int) -> tuple[int, str]:
        """The (seed, policy) cell of op ``k`` re-run on the scalar path."""
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        return rng.choice(self.op_seeds(k)), rng.choice(POLICIES)

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        """Imports, registry lookup and one warm-up op (op index -1)."""
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def reduce(self, k: int, out) -> tuple[str, object]:
        """``(digest, sample)``: the digest of the op's cells and the full
        value of its :meth:`pick_cell` cell, for the scalar comparison.

        Only these are kept per op, so the benchmark's own heap stays
        small and does not slow the program's garbage collections."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def prepare_checks(self) -> None:
        """Build what the output checks compare against."""

    def commit_path(self, k: int, out, phase, recorder) -> list[str]:
        """Traced ops only: program paths the op itself does not take.

        ``phase(name)`` is a context manager that probes one phase.
        Returns the failures of the path's output checks.
        """
        return []

    def check_digest(self, done: list[dict], committed: dict) -> list[str]:
        """At the committed seed, op 0's cells must match the digest."""
        first = next((r for r in done if r["k"] == 0), None)
        if self.seed == committed["seed"] and first is not None:
            if first["digest"] != committed[self.name]:
                first["errors"].append("op 0 cells differ from the committed digest")
        return []

    def paper_err(self, done: list[dict]) -> tuple[float, list[str]]:
        """``paper_err_pp`` from in-process ``table2()``/``table3()``."""
        from repro.analysis.tables import table2, table3

        return paper_err_pp([expected_table(table2()), expected_table(table3())]), []

    def import_metrics(self) -> dict:
        """Import-layer metrics of a fresh ``import repro.cli``."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        return probes.import_metrics(probes.parse_importtime(proc.stderr))

    def payload(self, out):
        """What a cache or a worker pool would ship of an op's output."""
        return out

    @contextmanager
    def tracing(self, recorder, phase: str, registry):
        """Probe the program's layers for one phase of a traced op."""
        from repro.obs import observing

        recorder.phase = phase
        with probes.installed(recorder), observing(metrics=registry):
            yield

    # -- checks (outside the timed region) -----------------------------------

    def scalar_cell(self, seed: int, policy: str):
        """The scalar ``SlotSimulator`` reference run of one cell."""
        from repro.scenario import get_scenario
        from repro.sim.slotsim import SlotSimulator

        scenario = get_scenario(f"exp2-{policy}")
        return SlotSimulator(scenario.build_manager()).run(
            scenario.build_trace(seed)
        )

    def check_sample(self, k: int, sample) -> list[str]:
        """The op's sampled cell tuple against the scalar reference."""
        seed, policy = self.pick_cell(k)
        if cell_of(self.scalar_cell(seed, policy)) != sample:
            return [f"cell ({seed}, {policy}) differs from the scalar SlotSimulator"]
        return []

    def batch_digests(self, ks: list[int]) -> dict[int, str]:
        """Digest of each op's cells through the wide ``simulate_batch``.

        The ops' seeds go through in calls of up to ``BATCH_CHECK_SEEDS``
        seeds, so the check costs a few wide calls, not one per op.
        """
        from repro.sim.vectorized import simulate_batch

        out = {}
        per_call = max(1, BATCH_CHECK_SEEDS // self.seeds_per_op)
        for i in range(0, len(ks), per_call):
            chunk = ks[i:i + per_call]
            res = simulate_batch(
                SCENARIO, [s for k in chunk for s in self.op_seeds(k)], POLICIES
            )
            for k in chunk:
                seeds = self.op_seeds(k)
                out[k] = digest({(s, p): cell_of(res[s][p]) for s in seeds for p in POLICIES})
            res = None
        return out


class McBatch(Workload):
    """``simulate_batch`` over 1000 seeds x 3 policies: the stacked route."""

    name = "mc_batch"
    seeds_per_op = 1000

    def setup(self) -> None:
        from repro.scenario import get_scenario

        get_scenario(SCENARIO)
        self.op(-1)

    def op(self, k: int):
        from repro.sim import vectorized

        # Looked up per call so a traced op reaches the probe.
        return vectorized.simulate_batch(SCENARIO, self.op_seeds(k), POLICIES)

    def reduce(self, k: int, out):
        seed, policy = self.pick_cell(k)
        cells = {(s, p): cell_of(out[s][p]) for s in out for p in out[s]}
        return digest(cells), out[seed][policy]

    def commit_path(self, k: int, out, phase, recorder) -> list[str]:
        """Persist the op's first seeds with ``run_experiment``, then resume.

        This gives the state I/O and cache I/O layers their calls
        (``commit`` and ``resume`` phases), after the op's timing.  There
        is no persisted workload: each task commit renames the state over
        the old file, and on a shared disk the wait for that drifts more
        than any bound (README.md, "Why there is no exp_persisted
        workload").  Both runs' cells must equal the op's.
        """
        from repro.exp.runner import run_experiment
        from repro.exp.spec import scenario_batch_spec
        from repro.exp.state import ExperimentStore
        from repro.runtime.cache import ResultCache

        root = self.work / "commit" / f"op{k}"
        store, cache = ExperimentStore(root / "state"), ResultCache(root / "cache")
        seeds = self.op_seeds(k)[:COMMIT_SEEDS]
        spec = scenario_batch_spec(f"bench-op{k}", SCENARIO, seeds, POLICIES)
        with phase("commit"):
            run = run_experiment(spec, store=store, cache=cache)
        with phase("resume"):
            again = run_experiment(spec.name, store=store, cache=cache)
            files = [f for f in (root / "cache").iterdir() if f.is_file()]
            recorder.add_count("cache.files", len(files))
            recorder.add_count("cache.bytes", sum(f.stat().st_size for f in files))

        want = {(s, p): cell_of(out[s][p]) for s in seeds for p in POLICIES}
        errors = []
        for name, r, executed in (("commit", run, len(want)), ("resume", again, 0)):
            got = {(t.seed, t.policy): cell_of(r.value(t)) for t in spec.expand()}
            if got != want:
                errors.append(f"{name} cells differ from the op's")
            if r.executed != executed or r.executed + r.resumed != len(want) or r.failed:
                errors.append(
                    f"{name} executed {r.executed}, resumed {r.resumed} and "
                    f"failed {r.failed} of {len(want)} tasks"
                )
        return errors

    def check_sample(self, k: int, sample) -> list[str]:
        # The whole SimulationResult, every slot row included, must
        # equal the scalar run; only the name differs (policy spec vs
        # scenario name).
        seed, policy = self.pick_cell(k)
        ref = self.scalar_cell(seed, policy)
        if dataclasses.replace(ref, name=sample.name) != sample:
            return [f"cell ({seed}, {policy}) differs from the scalar SlotSimulator"]
        return []


class NarrowRuns(Workload):
    """``scenario_metrics(fast=True)`` one trace at a time: the width-1 route."""

    name = "narrow_runs"
    seeds_per_op = 100
    cross_route = True

    def setup(self) -> None:
        from repro.scenario import get_scenario

        for policy in POLICIES:
            get_scenario(f"exp2-{policy}")
        self.op(-1)

    def op(self, k: int):
        from repro.sim.montecarlo import scenario_metrics

        return [
            (s, p, scenario_metrics(f"exp2-{p}", s, fast=True))
            for s in self.op_seeds(k)
            for p in POLICIES
        ]

    def reduce(self, k: int, out):
        cells = {(s, p): cell_of(m) for s, p, m in out}
        return digest(cells), cells[self.pick_cell(k)]


class PaperCli(Workload):
    """Fresh ``fcdpm --no-cache table2`` / ``table3`` processes, alternating."""

    name = "paper_cli"
    in_process = False

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["FCDPM_CACHE_DIR"] = str(work / "cache")
        self.env["FCDPM_EXP_DIR"] = str(work / "exp")
        self._trace = None  # (recorder, phase, registry) while tracing
        self.imports: list[dict] = []

    def table(self, k: int) -> str:
        return ("table2", "table3")[(k + self.seed) % 2]

    def cells_per_op(self) -> int:
        return len(POLICIES)

    def setup(self) -> None:
        self.op(-1)

    def op(self, k: int) -> str:
        argv = ["--no-cache", self.table(k)]
        if self._trace is None:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=120,
            )
        else:
            proc = self._traced_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(
                f"fcdpm {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}"
            )
        return proc.stdout

    def _traced_child(self, argv):
        import json

        recorder, phase, registry = self._trace
        fd, out_path = tempfile.mkstemp(dir=self.work, suffix=".json")
        os.close(fd)
        child = Path(__file__).with_name("cli_op.py")
        cmd = [sys.executable, "-X", "importtime", str(child), out_path, *argv]
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=120,
            )
            if proc.returncode == probes.PROBE_ERROR_EXIT:
                raise probes.ProbeError(proc.stderr.strip().splitlines()[-1])
            if proc.returncode == 0:
                data = json.loads(Path(out_path).read_text())
                recorder.merge_dict(data["recorder"], phase)
                registry.merge(data["metrics"])
                recorder.add_count("memo.hits", data["memo"]["hits"])
                recorder.add_count("memo.misses", data["memo"]["misses"])
                if phase == "op":
                    self.imports.append(
                        probes.import_metrics(probes.parse_importtime(proc.stderr))
                    )
        finally:
            os.unlink(out_path)
        # The child's stderr carries the import table, not the CLI's.
        proc.stderr = "\n".join(
            line for line in proc.stderr.splitlines()
            if not line.startswith("import time:")
        )
        return proc

    @contextmanager
    def tracing(self, recorder, phase: str, registry):
        self._trace = (recorder, phase, registry)
        try:
            yield
        finally:
            self._trace = None

    def payload(self, out):
        return None

    def reduce(self, k: int, out: str):
        parsed = parse_table(out)
        return repr(parsed), parsed

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def prepare_checks(self) -> None:
        from repro.analysis.tables import table2, table3

        self.references = {"table2": table2(), "table3": table3()}

    def check_digest(self, done: list[dict], committed: dict) -> list[str]:
        # The tables do not depend on the seed: check at every seed.
        ref = {
            (table, p): cell_of(result.results[p])
            for table, result in self.references.items()
            for p in POLICIES
        }
        if digest(ref) != committed[self.name]:
            return ["in-process table2/table3 cells differ from the committed digest"]
        return []

    def paper_err(self, done: list[dict]) -> tuple[float, list[str]]:
        """Parsed from the CLI's output; must equal the in-process value."""
        in_process = paper_err_pp([expected_table(t) for t in self.references.values()])
        printed = paper_err_pp([r["sample"] for r in done]) if done else float("nan")
        if printed != in_process:
            return printed, [f"paper_err_pp {printed} from fcdpm != {in_process} in-process"]
        return printed, []

    def import_metrics(self) -> dict:
        """Medians over the traced ops' own ``-X importtime`` tables."""
        if not self.imports:
            return super().import_metrics()
        return {key: median([m[key] for m in self.imports]) for key in self.imports[0]}

    def check_sample(self, k: int, sample) -> list[str]:
        want = expected_table(self.references[self.table(k)])
        if sample != want:
            return [f"{self.table(k)} output {sample} != in-process {want}"]
        return []


WORKLOADS = {cls.name: cls for cls in (PaperCli, McBatch, NarrowRuns)}
