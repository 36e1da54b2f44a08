"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload float-dense --seed 42 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  The BLAS thread count is pinned before numpy loads.
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  A readable report goes
to standard error; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")

WORKLOADS = ("int8-mobilenet", "float-branchy", "float-dense", "leaderboard")

END_TO_END = {"latency_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer():
    units = {}
    for kind in ("conv2d_1x1", "conv2d_kxk", "depthwise_conv2d",
                 "fully_connected"):
        units.update({f"kernels.{kind}.ms": "ms", f"kernels.{kind}.calls": "count",
                      f"kernels.{kind}.gmac_s": "GMAC/s"})
    for kind in ("resize_bilinear", "pool", "relu", "add", "concat_channels",
                 "softmax"):
        units.update({f"kernels.{kind}.ms": "ms", f"kernels.{kind}.calls": "count"})
    units.update({"graph.execute_overhead_ms": "ms", "graph.nodes": "count"})
    for t in range(1, 9):
        units.update({f"runner.t{t}.image_ms_p50": "ms",
                      f"runner.t{t}.image_ms_p90": "ms",
                      f"runner.t{t}.images": "count"})
    units.update({
        "runner.protocol_ms": "ms",
        "zoo.build_s": "s",
        "graph.validate_s": "s",
        "workloads.calibrate_s": "s",
        "runner.memory_probe_s": "s",
        "runner.memory_probe_units": "100px",
        "graph.peak_activation_mb": "MB",
        "runner.save_suite_ms": "ms",
        "aggregate.ingest_ms": "ms",
        "aggregate.rank_ms": "ms",
        "aggregate.export_ms": "ms",
        "aggregate.records": "count",
        "trace.latency_ms": "ms",
        "trace.overhead_ms": "ms",
    })
    return units


PER_LAYER = _per_layer()


def machine_record():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")  # numpy >= 1.25
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def run_workload(workload, seed, seconds, trace):
    """(errors, attempted, failed, metrics) of one run of one workload."""
    if workload == "leaderboard":
        import leaderboard

        errors, attempted, failed, values = leaderboard.run(
            seed, seconds, trace, WORKDIR)
    else:
        import inference

        errors, attempted, failed, values = inference.run(
            workload, seed, seconds, trace)
    if trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    return errors, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Before numpy loads: BLAS reads its thread count once, at load time.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "inferbench", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    errors, attempted, failed, metrics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}", file=sys.stderr)
    print(f"machine {json.dumps(machine_record())}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    print(f"attempted {attempted} failed {failed}", file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
