"""Command-line interface: run / score / calibrate / rank / inspect.

Measurement and scoring are deliberately separate commands so a stored
result file can be re-scored against any reference profile.  Exit codes
are a stable contract: 0 success, 1 usage error, 2 I/O error, 3
validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

from .dispatch import OPTIMIZED, QUANTIZED, REFERENCE
from .errors import InferBenchError
from .graph import count_macs, count_other_ops, count_params, peak_activation_bytes
from .runner import SuiteConfig, load_suite, run_suite, save_suite
from .scoring import aggregate_score, calibrate_profile, load_profile, save_profile
from .tensor import DTYPE_WIDTH, FLOAT32
from .workloads import DEFAULT_SEED, instantiate, weight_bytes
from . import aggregate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

PROFILE_ENV = "INFER_BENCH_PROFILE"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_profile_path():
    env = os.environ.get(PROFILE_ENV)
    if env:
        return env
    ref = resources.files("inferbench").joinpath(
        "data", "profiles", "default-profile.json"
    )
    return str(ref)


def _load_profile_arg(path):
    return load_profile(path if path else _default_profile_path())


def _positive(kind, most=None):
    """argparse type: a number of ``kind`` above zero, and at most ``most``."""
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        if most is not None and not value <= most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="inferbench",
                description="nine-test CNN inference benchmark harness")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full nine-test suite")
    run.add_argument("--backend", default="auto",
                     choices=["auto", REFERENCE, OPTIMIZED, QUANTIZED])
    run.add_argument("--threads", type=_positive(int), default=1,
                     help="recorded in the result header")
    run.add_argument("--scale", type=_positive(float, most=1), default=1.0)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--mem-cap", type=_positive(int), default=256 * 2**20,
                     help="memory probe cap in bytes")
    run.add_argument("--budget-scale", type=_positive(float), default=1.0)
    run.add_argument("--out", default="results.jsonl")
    run.add_argument("--profile", default=None,
                     help="reference profile used for the printed score")
    run.add_argument("--device", default="", help="device name for the header")
    run.add_argument("--soc", default="", help="SoC name for the header")
    run.add_argument("--ram-gb", type=float, default=0.0)

    score = sub.add_parser("score", help="score a stored result file")
    score.add_argument("results", help="suite result JSONL file")
    score.add_argument("--profile", default=None)
    score.add_argument("--out", default=None, help="optional JSON score report")

    cal = sub.add_parser("calibrate",
                         help="derive a reference profile from a result file")
    cal.add_argument("results", help="suite result JSONL file")
    cal.add_argument("--total", type=float, default=1000.0,
                     help="score the calibrating machine should get")
    cal.add_argument("--name", default="calibrated")
    cal.add_argument("--out", default="profile.json")

    rank_p = sub.add_parser("rank", help="aggregate result files into a ranking")
    rank_p.add_argument("results", help="JSONL file or directory of JSONL files")
    rank_p.add_argument("--group-by", default="device", choices=["device", "soc"])
    rank_p.add_argument("--format", default="markdown",
                        choices=["markdown", "csv", "json"])
    rank_p.add_argument("--profile", default=None)
    rank_p.add_argument("--out", default=None, help="output file (default stdout)")

    ins = sub.add_parser("inspect", help="print one workload's architecture report")
    ins.add_argument("test_id", type=int)
    ins.add_argument("--scale", type=float, default=1.0)
    ins.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return p


# --- command bodies -------------------------------------------------------


def _print_suite(suite, profile):
    print(f"{'test':>4}  {'backend':<10} {'images':>6} {'avg ms':>10}  pass")
    for m in suite.measurements:
        avg = "-" if m.avg_ms is None else f"{m.avg_ms:.3f}"
        print(f"{m.test_id:>4}  {m.backend_id:<10} {m.images_processed:>6} "
              f"{avg:>10}  {'yes' if m.passed else 'NO'}")
        if m.notes:
            print(f"      note: {m.notes}")
    probe = suite.memory_probe
    if probe is not None:
        print(f"   9  {probe.backend_id:<10} max side {100 * probe.max_resolution_units} px "
              f"({probe.limiting_cause}, {probe.bytes_at_limit} bytes live)")
    if profile is not None:
        report = aggregate_score(suite, profile)
        print(f"AI score: {report.total:.2f} (profile {report.profile_name})")
        if report.failed_tests:
            print(f"failed tests: {report.failed_tests}")


def cmd_run(args) -> int:
    config = SuiteConfig(
        backend=args.backend,
        threads=args.threads,
        scale=args.scale,
        seed=args.seed,
        mem_cap_bytes=args.mem_cap,
        budget_scale=args.budget_scale,
        device_name=args.device,
        soc_name=args.soc,
        ram_gb=args.ram_gb,
    )
    suite = run_suite(config, clock=time.monotonic)
    save_suite(suite, args.out)
    profile = None
    try:
        profile = _load_profile_arg(args.profile)
    except (OSError, InferBenchError):
        print("note: no usable reference profile, skipping score", file=sys.stderr)
    _print_suite(suite, profile)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    suite = load_suite(args.results)
    profile = _load_profile_arg(args.profile)
    report = aggregate_score(suite, profile)
    for t in range(1, 10):
        print(f"test {t}: {report.per_test_points[t - 1]:.2f} points")
    print(f"total: {report.total:.2f} (profile {report.profile_name})")
    if report.failed_tests:
        print(f"failed tests: {report.failed_tests}")
    if args.out:
        doc = {
            "profile": report.profile_name,
            "per_test_points": report.per_test_points,
            "total": report.total,
            "failed_tests": report.failed_tests,
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    suite = load_suite(args.results)
    profile = calibrate_profile(suite, args.total, args.name)
    save_profile(profile, args.out)
    print(f"wrote {args.out} (total {args.total:g} on the calibrating machine)")
    return EXIT_OK


def cmd_rank(args) -> int:
    if os.path.isdir(args.results):
        records = aggregate.ingest_dir(args.results)
    else:
        records = aggregate.ingest(args.results)
    profile = _load_profile_arg(args.profile)
    rows = aggregate.rank(records, args.group_by, profile)
    text = aggregate.export(rows, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_inspect(args) -> int:
    test_id = args.test_id
    graph, spec = instantiate(test_id, args.scale, args.seed)
    h, w = spec.input_resolution
    print(f"test {test_id}: {spec.name} ({spec.architecture}), "
          f"input {h}x{w}x3, dtype {graph.spec.dtype_profile}")
    if test_id == 9:
        print("note: reuses test 4's deblurring network on growing inputs")
    print(f"{'layer':<24} {'op':<18} {'output shape':<20} inputs")
    for node in graph.spec.nodes:
        shape = "x".join(str(d) for d in graph.node_shapes[node.id])
        print(f"{node.id:<24} {node.op_kind:<18} {shape:<20} "
              f"{','.join(node.input_ids)}")
    print(f"layers: {len(graph.spec.nodes)}")
    print(f"parameters: {count_params(graph):,}")
    print(f"multiply-adds per image: {count_macs(graph):,}")
    print(f"other ops per image: {count_other_ops(graph):,}")
    print(f"peak live activation bytes: {peak_activation_bytes(graph):,}")
    # the float network stores every weight and bias element as float32
    fb = DTYPE_WIDTH[FLOAT32] * count_params(graph)
    print(f"weight bytes (float32): {fb:,}")
    if spec.quantized:
        qb = weight_bytes(graph)
        print(f"weight bytes (int8): {qb:,} ({fb / qb:.2f}x smaller)")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "score": cmd_score,
    "calibrate": cmd_calibrate,
    "rank": cmd_rank,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except OSError as e:
        print(f"inferbench: I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as e:
        print(f"inferbench: invalid JSON: {e}", file=sys.stderr)
        return EXIT_IO
    except InferBenchError as e:
        print(f"inferbench: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
