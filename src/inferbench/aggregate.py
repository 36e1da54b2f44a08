"""Leaderboard aggregation: ingest suite files, filter outliers, rank.

Outliers are removed per metric with a modified z-score rule before
averaging, and the aggregate AI score is recomputed from the aggregated
runtimes (never averaged directly) so the score column always agrees with
the runtime columns.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from statistics import median

from .errors import AggregationError
from .runner import SuiteResult, load_suites
from .scoring import ReferenceProfile, score_points, scored_runtimes

MODIFIED_Z_CUTOFF = 3.5
MAX_DROP_FRACTION = 0.3


@dataclass
class DeviceRecord:
    device_name: str
    soc_name: str
    ram_gb: float
    metadata: dict
    suite: SuiteResult


@dataclass
class RankingRow:
    group_key: str
    per_test_ms: list  # tests 1..8; None where nothing passed
    memory_units: float
    ai_score: float
    sample_count: int


def _record(suite, index):
    meta = suite.metadata
    fields = {}
    for key in ("device_name", "soc_name"):
        fields[key] = (meta.get(key) or "").strip()
        if not fields[key]:
            raise AggregationError(
                f"suite {index}: header missing {key}", field=key
            )
    return DeviceRecord(
        **fields, ram_gb=meta.get("ram_gb", 0.0), metadata=meta, suite=suite
    )


def ingest(path):
    """Parse one runner JSONL file into device records.

    A file may hold several concatenated suites; ``runner.load_suites``
    rejects malformed lines with their line number and offending field.
    """
    return [_record(s, i) for i, s in enumerate(load_suites(path), start=1)]


def ingest_dir(path):
    records = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".jsonl"):
            records.extend(ingest(os.path.join(path, name)))
    return records


def remove_outliers(samples):
    """Modified z-score filter with a bounded drop count.

    Drops x where 0.6745 * |x - median| / MAD > 3.5; keeps everything when
    MAD is zero, and never removes more than 30% of the samples (largest
    deviations go first).
    """
    xs = list(samples)
    n = len(xs)
    if n == 0:
        return []
    med = median(xs)
    mad = median(abs(x - med) for x in xs)
    if mad == 0:
        return xs
    flagged = [
        (abs(x - med), i)
        for i, x in enumerate(xs)
        if 0.6745 * abs(x - med) / mad > MODIFIED_Z_CUTOFF
    ]
    flagged.sort(reverse=True)
    drop = {i for _, i in flagged[: math.floor(MAX_DROP_FRACTION * n)]}
    return [x for i, x in enumerate(xs) if i not in drop]


def _filtered_mean(samples):
    kept = remove_outliers(samples)
    if not kept:
        return None
    return sum(kept) / len(kept)


def rank(records, group_by, profile: ReferenceProfile):
    """Aggregate records per device or SoC into sorted ranking rows."""
    if group_by not in ("device", "soc"):
        raise AggregationError(f"group_by must be 'device' or 'soc', got {group_by!r}")
    groups = {}
    for rec in records:
        key = rec.device_name if group_by == "device" else rec.soc_name
        groups.setdefault(key, []).append(rec)
    rows = []
    for key, recs in groups.items():
        samples = [[] for _ in range(8)]
        for rec in recs:
            for runtimes, ms in zip(samples, scored_runtimes(rec.suite)):
                if ms is not None:
                    runtimes.append(ms)
        per_test = [_filtered_mean(runtimes) for runtimes in samples]
        mem_samples = [
            rec.suite.memory_probe.max_resolution_units
            for rec in recs
            if rec.suite.memory_probe is not None
        ]
        mem = _filtered_mean(mem_samples)
        score = sum(score_points(per_test, mem or 0, profile))
        rows.append(
            RankingRow(
                group_key=key,
                per_test_ms=per_test,
                memory_units=mem,
                ai_score=score,
                sample_count=len(recs),
            )
        )
    rows.sort(key=lambda r: (-r.ai_score, r.group_key))
    return rows


# --- export ---------------------------------------------------------------

_HEADER = (
    ["group", *(f"test{t}_ms" for t in range(1, 9)), "test9_100px", "ai_score",
     "samples"]
)


def _cells(row):
    return [
        row.group_key,
        *(("" if v is None else f"{v:.3f}") for v in row.per_test_ms),
        "" if row.memory_units is None else f"{row.memory_units:.2f}",
        f"{row.ai_score:.2f}",
        str(row.sample_count),
    ]


def _csv_field(s):
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def export(rows, fmt) -> str:
    """Render ranking rows as markdown, csv, or json text."""
    if fmt == "csv":
        lines = [",".join(_HEADER)]
        lines += [",".join(_csv_field(c) for c in _cells(r)) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(_HEADER) + " |",
            "|" + "|".join(["---"] * len(_HEADER)) + "|",
        ]
        lines += ["| " + " | ".join(_cells(r)) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        docs = [
            {
                "group": r.group_key,
                **{f"test{t}_ms": r.per_test_ms[t - 1] for t in range(1, 9)},
                "test9_100px": r.memory_units,
                "ai_score": r.ai_score,
                "samples": r.sample_count,
            }
            for r in rows
        ]
        return json.dumps(docs, indent=1) + "\n"
    raise AggregationError(f"unknown export format {fmt!r}")
