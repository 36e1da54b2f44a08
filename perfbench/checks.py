"""Output checks computed apart from the program's fast paths.

Every check returns a list of failure messages; an empty list means the
output is correct.  The checks use the program's public types to read its
outputs but recompute the expected values themselves: MAC counts from node
and weight shapes, the memory probe limit in closed form, and the leaderboard
ranking from the raw samples.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from inferbench.tensor import INT8Q

FLOAT_REL_TOL = 1e-4  # the float gate against the reference backend
SOFTMAX_TOL = 1e-4
MODIFIED_Z_CUTOFF = 3.5
MAX_DROP_FRACTION = 0.3
# Live activation bytes of the SRCNN probe network per input pixel: the
# input (3 channels) is dead by the time the 64-channel conv output and its
# ReLU are both live, so the peak is 2 x 64 channels x 4 bytes.
PROBE_BYTES_PER_PIXEL = 2 * 64 * 4


# --- inference -------------------------------------------------------------


def mac_kind(op_kind, weight_shape):
    """Per-layer op name: conv2d splits by kernel size, others keep theirs."""
    if op_kind == "conv2d":
        return "conv2d_1x1" if tuple(weight_shape[:2]) == (1, 1) else "conv2d_kxk"
    return op_kind


def macs_by_kind(graph):
    """Multiply-accumulates per image for each MAC op kind of the graph."""
    spec = graph.spec
    macs = {}
    for node in spec.nodes:
        if not node.weight_refs:
            continue
        w = spec.weights[node.weight_refs[0]].shape
        n, oh, ow, _ = graph.node_shapes[node.id]
        if node.op_kind == "conv2d":
            count = n * oh * ow * w[0] * w[1] * w[2] * w[3]
        elif node.op_kind == "depthwise_conv2d":
            count = n * oh * ow * w[0] * w[1] * w[2]
        else:  # fully_connected: flattened rows x output columns
            count = n * w[-2] * w[-1]
        kind = mac_kind(node.op_kind, w)
        macs[kind] = macs.get(kind, 0) + count
    return macs


def check_macs(graph, analyzer_macs):
    total = sum(macs_by_kind(graph).values())
    if total != analyzer_macs:
        return [f"{graph.name}: per-op MACs sum to {total}, "
                f"count_macs says {analyzer_macs}"]
    return []


def check_against_reference(graph, fast, ref):
    """int8 bit for bit; float within 1e-4 of max(1, max |ref|)."""
    if fast.data.shape != ref.data.shape:
        return [f"{graph.name}: output shape {fast.data.shape} != reference "
                f"{ref.data.shape}"]
    if graph.dtype_profile == INT8Q:
        if not np.array_equal(fast.data, ref.data):
            diff = np.abs(fast.data.astype(np.int64) - ref.data.astype(np.int64))
            return [f"{graph.name}: int8 output differs from reference by up "
                    f"to {int(diff.max())} codes"]
        return []
    scale = max(1.0, float(np.abs(ref.data).max()))
    rel = float(np.abs(fast.data - ref.data).max()) / scale
    if not rel <= FLOAT_REL_TOL:
        return [f"{graph.name}: relative deviation {rel:.3e} from reference "
                f"exceeds {FLOAT_REL_TOL}"]
    return []


def check_repeatable(graph, first, second):
    if first.data.dtype != second.data.dtype or not np.array_equal(
            first.data, second.data):
        return [f"{graph.name}: the same image gave different bits twice"]
    return []


def check_output_shape(graph, out):
    if tuple(out.shape) != tuple(graph.output_shape):
        return [f"{graph.name}: output shape {out.shape} != graph.output_shape "
                f"{graph.output_shape}"]
    return []


def check_softmax(graph, out):
    """Each pixel's class probabilities sum to one."""
    kinds = {n.id: n.op_kind for n in graph.spec.nodes}
    if kinds[graph.spec.output_id] != "softmax":
        return [f"{graph.name}: output node is not a softmax"]
    sums = out.data.astype(np.float64).sum(axis=3)
    worst = float(np.abs(sums - 1.0).max())
    if not worst <= SOFTMAX_TOL:
        return [f"{graph.name}: softmax sums deviate from 1 by {worst:.3e}"]
    return []


def check_measurement(m):
    """Protocol invariants of one runner.Measurement."""
    errors = []
    times = m.per_image_ms
    if m.images_processed != len(times):
        errors.append(f"test {m.test_id}: images_processed "
                      f"{m.images_processed} != {len(times)} timings")
    kept = times[2:] if len(times) > 2 else times
    expected = sum(kept) / len(kept) if kept else None
    if expected is None or m.avg_ms is None:
        if expected != m.avg_ms:
            errors.append(f"test {m.test_id}: avg_ms {m.avg_ms} != {expected}")
    elif not math.isclose(m.avg_ms, expected, rel_tol=1e-12):
        errors.append(f"test {m.test_id}: avg_ms {m.avg_ms} != mean of "
                      f"images 3.. ({expected})")
    fits = bool(times) and times[0] <= m.budget_s * 1000.0
    if m.passed != fits:
        errors.append(f"test {m.test_id}: passed={m.passed} but first image "
                      f"{'fit' if fits else 'missed'} the budget")
    return errors


def expected_probe(mem_cap_bytes):
    """(units, bytes) of the largest 100 px step whose activations fit."""
    units = 0
    while PROBE_BYTES_PER_PIXEL * (100 * (units + 1)) ** 2 <= mem_cap_bytes:
        units += 1
    return units, PROBE_BYTES_PER_PIXEL * (100 * units) ** 2


def check_probe(result, mem_cap_bytes):
    units, nbytes = expected_probe(mem_cap_bytes)
    got = (result.max_resolution_units, result.bytes_at_limit)
    if got != (units, nbytes):
        return [f"memory probe reached {got[0]} units / {got[1]} bytes, "
                f"expected {units} units / {nbytes} bytes"]
    return []


# --- leaderboard -------------------------------------------------------------


def filtered_mean(samples):
    """Mean after the modified z-score filter with the 30% drop cap."""
    if not samples:
        return None
    med = statistics.median(samples)
    dev = [abs(x - med) for x in samples]
    mad = statistics.median(dev)
    drop = set()
    if mad > 0:
        flagged = [i for i, d in enumerate(dev)
                   if 0.6745 * d / mad > MODIFIED_Z_CUTOFF]
        flagged.sort(key=lambda i: dev[i], reverse=True)
        drop = set(flagged[: int(MAX_DROP_FRACTION * len(samples))])
    kept = [x for i, x in enumerate(samples) if i not in drop]
    return sum(kept) / len(kept)


def expected_ranking(suites, group_by, profile):
    """[(group, per_test_ms, memory_units, score, samples)], best first."""
    groups = {}
    for s in suites:
        key = s.metadata["device_name" if group_by == "device" else "soc_name"]
        groups.setdefault(key.strip(), []).append(s)
    rows = []
    for key, members in groups.items():
        per_test = [
            filtered_mean([m.avg_ms for s in members for m in s.measurements
                           if m.test_id == t and m.passed and m.avg_ms])
            for t in range(1, 9)
        ]
        mem = filtered_mean([s.memory_probe.max_resolution_units
                             for s in members if s.memory_probe is not None])
        score = sum(w * t_ref / ms for w, t_ref, ms
                    in zip(profile.weights, profile.t_ref_ms, per_test)
                    if ms is not None)
        score += profile.weights[8] * (mem or 0) / profile.l_ref_units
        rows.append((key, per_test, mem, score, len(members)))
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows


def _close(a, b):
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9)


def check_ranking(rows, suites, group_by, profile):
    expected = expected_ranking(suites, group_by, profile)
    got_keys = [r.group_key for r in rows]
    want_keys = [r[0] for r in expected]
    if got_keys != want_keys:
        return [f"rank by {group_by}: order {got_keys[:5]}... != {want_keys[:5]}..."]
    errors = []
    for row, (key, per_test, mem, score, samples) in zip(rows, expected):
        same = (row.sample_count == samples
                and all(_close(a, b) for a, b in zip(row.per_test_ms, per_test))
                and len(row.per_test_ms) == 8
                and _close(row.memory_units, mem)
                and _close(row.ai_score, score))
        if not same:
            errors.append(f"rank by {group_by}: row {key!r} = {row} != "
                          f"{(per_test, mem, score, samples)}")
    return errors


def check_ingested(records, suites):
    """Ingested records equal the suites written, in file order."""
    if len(records) != len(suites):
        return [f"ingested {len(records)} records from {len(suites)} files"]
    for i, (rec, suite) in enumerate(zip(records, suites)):
        meta = suite.metadata
        if (rec.suite != suite or rec.device_name != meta["device_name"]
                or rec.soc_name != meta["soc_name"]
                or rec.ram_gb != meta["ram_gb"]):
            return [f"file {i}: ingested record differs from what was written"]
    return []
