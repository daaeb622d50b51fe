"""One traced ``fcdpm`` process for the paper_cli workload.

Run as ``python -X importtime perfbench/cli_op.py OUT.json [fcdpm args]``:
imports the CLI (timed by ``-X importtime`` on stderr), runs it with the
layer probes and telemetry on, and writes the probe record, the metrics
snapshot and the solver-memo counters to OUT.json.
"""

import json
import sys

import repro.cli  # first, so the import table is the CLI's own

import probes


def main() -> int:
    from repro.obs import MetricsRegistry, observing
    from repro.runtime.memo import solver_cache_stats

    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = probes.Recorder()
    registry = MetricsRegistry()
    try:
        with probes.installed(recorder), observing(metrics=registry):
            code = repro.cli.main(argv)
    except probes.ProbeError as exc:
        print(exc, file=sys.stderr)
        return probes.PROBE_ERROR_EXIT
    memo = solver_cache_stats()
    with open(out_path, "w") as fh:
        json.dump(
            {
                "recorder": recorder.to_dict(),
                "metrics": registry.snapshot(),
                "memo": {"hits": memo.hits, "misses": memo.misses},
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
