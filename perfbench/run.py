#!/usr/bin/env python3
"""End-to-end FC-DPM benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``README.md``) closed-loop
for ``S`` seconds, checks every op's output, and prints the metrics by
name and unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Everything the run writes goes under ``.perfbench_work/``
at the root of the checkout and is removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import host  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The committed digests are of this seed's op 0.
DEFAULT_SEED = 0
#: A tail percentile with ten samples beyond it needs at least eleven.
MIN_OPS = 11
#: Stop adding ops to reach MIN_OPS once a run has measured this long.
MAX_MEASURE_S = 100.0
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5

E2E_UNITS = {
    "setup_s": "s",
    "op_wall_s": "s",
    "op_tail_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "paper_err_pp": "pp",
}

LAYER_UNITS = {
    "import.repro_s": "s",
    "import.cli_s": "s",
    "import.scipy_s": "s",
    "import.scipy_loaded": "bool",
    "workload.build_slot_arrays_s": "s",
    "workload.build_trace_s": "s",
    "workload.build_trace_calls": "count",
    "plan.stacked_s": "s",
    "plan.1d_s": "s",
    "plan.calls": "count",
    "stack.s": "s",
    "stack.padded_fraction": "frac",
    "predict.scan_batch_s": "s",
    "predict.scan_1d_s": "s",
    "solve.array_s": "s",
    "solve.array_calls": "count",
    "solve.memo_s": "s",
    "solve.memo_calls": "count",
    "solve.memo_hit_ratio": "frac",
    "integrate.clamp_batch_s": "s",
    "integrate.clamp_1d_s": "s",
    "sim.batch_self_s": "s",
    "sim.fast_self_s": "s",
    "result.slot_rows": "count",
    "result.pickle_bytes": "bytes",
    "result.pickle_s": "s",
    "scalar.run_s": "s",
    "scalar.run_calls": "count",
    "state.save_s": "s",
    "state.save_calls": "count",
    "state.bytes_written": "bytes",
    "cache.store_s": "s",
    "cache.store_calls": "count",
    "cache.verify_s": "s",
    "cache.files": "count",
    "cache.bytes": "bytes",
    "route.stacked_rows": "count",
    "route.fast": "count",
    "route.scalar": "count",
    "trace_overhead_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up once, print the ready time, exit",
    )
    return parser.parse_args(argv)


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes, from spawn until an op could start."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe",
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        # perf_counter is the system-wide monotonic clock on Linux, so
        # the child's reading is comparable with the parent's.
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def check_origin(src: Path) -> None:
    """The program must be the checkout's own source, not an install."""
    mod = sys.modules.get("repro")
    if mod is not None and not Path(mod.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported repro from {mod.__file__}, not {src}")


def memo_counts() -> tuple[int, int]:
    from repro.runtime.memo import solver_cache_stats

    stats = solver_cache_stats()
    return stats.hits, stats.misses


@contextmanager
def traced_phase(wl, recorder, registries, phase):
    """Probes, telemetry and memo deltas around one phase of a traced op."""
    memo0 = memo_counts() if wl.in_process else None
    with wl.tracing(recorder, phase, registries[phase]):
        yield
    if memo0 is not None:
        hits, misses = memo_counts()
        recorder.add_count("memo.hits", hits - memo0[0])
        recorder.add_count("memo.misses", misses - memo0[1])


def run_op(wl, k, recorder, registries, want_payload) -> dict:
    """One op; failures are recorded, not raised."""
    rec = {"k": k, "traced": recorder is not None, "errors": [], "payload": None}

    def phase(name):
        if recorder is None:
            return nullcontext()
        return traced_phase(wl, recorder, registries, name)

    try:
        # Ops run back to back: the program's garbage from earlier ops is
        # collected whenever its own allocations trigger the collector.
        with phase("op"):
            t0 = time.perf_counter()
            out = wl.op(k)
            rec["time"] = time.perf_counter() - t0
        rec["digest"], rec["sample"] = wl.reduce(k, out)
        if recorder is not None:
            rec["errors"] += wl.commit_path(k, out, phase, recorder)
        payload = wl.payload(out) if want_payload else None
        if payload is not None:
            t0 = time.perf_counter()
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            rec["payload"] = (len(blob), time.perf_counter() - t0)
            del blob, payload
        out = None  # release the op's results before the next op runs
        rec["done"] = True
    except probes.ProbeError:
        raise  # a missing layer boundary fails the run, not the op
    except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
        rec["errors"].append(traceback.format_exc(limit=4))
        rec["raised"] = True
    return rec


def output_checks(wl, ops) -> tuple[float, list[str]]:
    """Checks outside the timed region; per-op failures land on the op.

    Returns ``paper_err_pp`` and the failures that belong to no one op.
    """
    wl.prepare_checks()
    done = [r for r in ops if not r.get("raised")]
    wide = wl.batch_digests([r["k"] for r in done]) if wl.cross_route else {}
    for r in done:
        r["errors"] += wl.check_sample(r["k"], r["sample"])
        if wl.cross_route and wide[r["k"]] != r["digest"]:
            r["errors"].append("cells differ from the same cells of simulate_batch")
    global_errors = wl.check_digest(done, checks.committed_digests())
    paper_err, errors = wl.paper_err(done)
    return paper_err, global_errors + errors


def e2e_metrics(wl, ops, setup_samples, rss_mb, paper_err) -> tuple[dict, dict]:
    timed = [r for r in ops if r.get("done") and not r["traced"]]
    times = [r["time"] for r in timed]
    if not times:
        raise RuntimeError("no op completed; see the failures above")
    value, pct, n = checks.tail(times)
    ok = sum(1 for r in ops if not r["errors"])
    metrics = {
        "setup_s": checks.median(setup_samples),
        "op_wall_s": checks.median(times),
        "op_tail_s": value,
        "cells_per_s": wl.cells_per_op() * len(times) / sum(times),
        "peak_rss_mb": rss_mb,
        "ok_frac": ok / len(ops),
        "paper_err_pp": paper_err,
    }
    info = {
        "op_tail_percentile": pct,
        "op_samples": n,
        "setup_samples": setup_samples,
        "op_times": times,
    }
    return metrics, info


def layer_metrics(wl, recorder, registries, ops, imports) -> dict:
    traced = [r for r in ops if r["traced"] and r.get("done")]
    plain = [r for r in ops if not r["traced"] and r.get("done")]
    n = max(len(traced), 1)

    def per_op(value):
        return value / n

    def layer(name, phase="op"):
        return recorder.layer(name, phase)

    snap = registries["op"].snapshot()

    def counter(key):
        return snap.get(key, {}).get("value", 0.0)

    hits, misses = recorder.count("memo.hits", "op"), recorder.count("memo.misses", "op")
    payload = next((r["payload"] for r in traced if r["payload"]), (0, 0.0))
    batch_routes = [k for k in snap if k.startswith("sim.batch_route{")]
    stacked_only = batch_routes == ["sim.batch_route{path=stacked}"]
    overhead = 0.0
    if traced and plain:
        overhead = (
            checks.median([r["time"] for r in traced])
            / checks.median([r["time"] for r in plain])
            - 1.0
        )
    out = dict(imports)
    out.update({
        "workload.build_slot_arrays_s": per_op(layer("workload.build_slot_arrays").total_s),
        "workload.build_trace_s": per_op(layer("workload.build_trace").total_s),
        "workload.build_trace_calls": per_op(layer("workload.build_trace").calls),
        "plan.stacked_s": per_op(layer("plan.stacked").total_s),
        "plan.1d_s": per_op(layer("plan.1d").total_s),
        "plan.calls": per_op(layer("plan.stacked").calls + layer("plan.1d").calls),
        "stack.s": per_op(layer("stack").total_s),
        "stack.padded_fraction": snap.get("sim.batch_padded_fraction", {}).get("value", 0.0),
        "predict.scan_batch_s": per_op(layer("predict.scan_batch").total_s),
        "predict.scan_1d_s": per_op(layer("predict.scan_1d").total_s),
        "solve.array_s": per_op(layer("solve.array").total_s),
        "solve.array_calls": per_op(layer("solve.array").calls),
        "solve.memo_s": per_op(layer("solve.memo").total_s),
        "solve.memo_calls": per_op(layer("solve.memo").calls),
        "solve.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "integrate.clamp_batch_s": per_op(layer("integrate.clamp_batch").total_s),
        "integrate.clamp_1d_s": per_op(layer("integrate.clamp_1d").total_s),
        "sim.batch_self_s": per_op(layer("sim.batch").self_s),
        "sim.fast_self_s": per_op(layer("sim.fast").self_s),
        "result.slot_rows": per_op(recorder.count("result.slot_rows", "op")),
        "result.pickle_bytes": float(payload[0]),
        "result.pickle_s": payload[1],
        "scalar.run_s": per_op(layer("scalar.run").total_s),
        "scalar.run_calls": per_op(layer("scalar.run").calls),
        "state.save_s": per_op(layer("state.save", "commit").total_s),
        "state.save_calls": per_op(layer("state.save", "commit").calls),
        "state.bytes_written": per_op(recorder.count("state.bytes_written", "commit")),
        "cache.store_s": per_op(layer("cache.store", "commit").total_s),
        "cache.store_calls": per_op(layer("cache.store", "commit").calls),
        "cache.verify_s": per_op(layer("cache.verify", "resume").total_s),
        "cache.files": per_op(recorder.count("cache.files", "resume")),
        "cache.bytes": per_op(recorder.count("cache.bytes", "resume")),
        "route.stacked_rows": per_op(counter("sim.batch_rows_completed")) if stacked_only else 0.0,
        "route.fast": per_op(counter("sim.route{path=fast}")),
        "route.scalar": per_op(counter("sim.route{path=scalar}")),
        "trace_overhead_frac": overhead,
    })
    return out


def run(args, work: Path) -> int:
    load_before = os.getloadavg()
    setup_samples = measure_setup(args)
    wl = WORKLOADS[args.workload](ROOT, work, args.seed)
    wl.setup()
    check_origin(ROOT / "src")

    recorder = registries = None
    if args.trace:
        from repro.obs import MetricsRegistry

        recorder = probes.Recorder()
        registries = {p: MetricsRegistry() for p in ("op", "commit", "resume")}

    ops = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and (len(ops) >= MIN_OPS or elapsed >= MAX_MEASURE_S):
            break
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 1
        ops.append(
            run_op(
                wl, k, recorder if traced else None, registries,
                want_payload=traced and k == 1,
            )
        )
    rss_mb = wl.peak_rss_mb()

    paper_err, global_errors = output_checks(wl, ops)
    for r in ops:
        for err in r["errors"]:
            print(f"op {r['k']} FAILED: {err}", file=sys.stderr)
    for err in global_errors:
        print(f"check FAILED: {err}", file=sys.stderr)

    failed = sum(1 for r in ops if r["errors"])
    e2e, info = e2e_metrics(wl, ops, setup_samples, rss_mb, paper_err)
    layers = None
    if args.trace:
        probes.check_exercised(recorder, wl.name)
        layers = layer_metrics(wl, recorder, registries, ops, wl.import_metrics())

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.stamp(ROOT, work),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "ops": len(ops),
        "failed": failed,
        **info,
        "e2e": e2e,
        "layers": layers,
    }
    print(f"workload {wl.name}  seed {args.seed}  ops {len(ops)}  failed {failed}")
    print(
        f"op_tail_s is p{info['op_tail_percentile']:.0f} of {info['op_samples']} op samples"
    )
    for name, value in e2e.items():
        print(f"  {name:<30} {value:>14.6g} {E2E_UNITS[name]}")
    for name, value in (layers or {}).items():
        print(f"  {name:<30} {value:>14.6g} {LAYER_UNITS[name]}")
    print("record " + json.dumps(record, default=str))

    shown, units = (layers, LAYER_UNITS) if args.trace else (e2e, E2E_UNITS)
    print(json.dumps({
        "correct": not failed and not global_errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in shown.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["FCDPM_CACHE_DIR"] = str(work / "cache")
    os.environ["FCDPM_EXP_DIR"] = str(work / "exp")
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](ROOT, work, args.seed).setup()
            check_origin(src)
            print(f"ready {time.perf_counter()!r}", flush=True)
            return 0
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
