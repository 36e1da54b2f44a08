"""The nine benchmark tests: canonical specs and instantiation.

``instantiate(test_id, scale, seed)`` is the one definition of each
workload: weights are always drawn from the SplitMix64 stream seeded by the
workload seed, so any two builds with the same (test_id, scale, seed) are
bit-identical.  Test 1 additionally runs a one-image float calibration pass
to pick per-node activation quantization ranges before the graph is
converted to int8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import WorkloadError
from .graph import Graph, GraphSpec, OperatorNode, execute, validate
from .kernels import optimized
from .tensor import INT8Q, QuantParams, Tensor, quantize, qparams_from_range
from .zoo import BUILDERS, WeightStream, uniform_stream

DEFAULT_SEED = 42

# Input images are uniform [0, 1]; these qparams cover that range exactly.
INPUT_QPARAMS = QuantParams(scale=1.0 / 255.0, zero_point=-128)

# test_id -> (name, builder, (H, W), quantized, accelerator_eligible,
#             budget seconds, minimum viable resolution)
_DEFAULTS = {
    1: ("image_recognition_quant", "mobilenet_v1", (224, 224), True, True, 25.0, 32),
    2: ("image_recognition_float", "inception_v3", (346, 346), False, True, 40.0, 80),
    3: ("face_recognition", "inception_resnet_v1", (512, 512), False, False, 40.0, 96),
    4: ("image_deblurring", "srcnn", (300, 300), False, True, 30.0, 8),
    5: ("super_resolution_vdsr", "vdsr", (192, 192), False, True, 40.0, 8),
    6: ("super_resolution_srgan", "srgan_generator", (512, 512), False, False, 50.0, 32),
    7: ("semantic_segmentation", "icnet", (384, 576), False, False, 20.0, 32),
    8: ("photo_enhancement", "dped", (128, 192), False, True, 25.0, 16),
    9: ("memory_probe", "srcnn", (300, 300), False, True, None, 8),
}

DEFAULT_BUDGETS_S = tuple(_DEFAULTS[t][5] for t in range(1, 9))


@dataclass(frozen=True)
class WorkloadSpec:
    test_id: int
    name: str
    architecture: str
    input_resolution: tuple  # (H, W) after scaling
    quantized: bool
    accelerator_eligible: bool
    time_budget_s: float  # None for the memory probe
    scale: float
    seed: int


def _scaled_extent(d, scale, min_res):
    if scale == 1.0:
        return d
    # scaled resolutions snap to multiples of 8 and respect each
    # architecture's smallest viable input (valid-padding stems)
    r = int(round(d * scale / 8.0)) * 8
    return max(r, min_res, 8)


def _make_spec(test_id, scale, seed) -> WorkloadSpec:
    if test_id not in _DEFAULTS:
        raise WorkloadError(f"unknown test id {test_id}")
    if not 0 < scale <= 1:
        raise WorkloadError(f"scale must be in (0, 1], got {scale}")
    name, builder, (h, w), quant, eligible, budget, min_res = _DEFAULTS[test_id]
    res = (_scaled_extent(h, scale, min_res), _scaled_extent(w, scale, min_res))
    return WorkloadSpec(
        test_id=test_id,
        name=name,
        architecture=builder,
        input_resolution=res,
        quantized=quant,
        accelerator_eligible=eligible,
        time_budget_s=None if budget is None else budget * scale,
        scale=scale,
        seed=seed,
    )


def _observe_ranges(graph, x):
    """One float forward pass recording each node's output min/max."""
    ranges = {}

    def observer(node_id, out):
        ranges[node_id] = (float(out.data.min()), float(out.data.max()))

    execute(graph, x, optimized.make_kernel_set(), observer=observer)
    return ranges


def _quantize_weights(spec):
    """Per-tensor int8 codes for each node's weight, from its own min/max.

    A node's first weight ref is its weight and its second its bias.
    Biases stay real-valued; the kernels convert them to int32 at the
    accumulator scale.
    """
    quantized = {node.weight_refs[0] for node in spec.nodes if node.weight_refs}
    return {
        name: quantize(t, qparams_from_range(float(t.data.min()), float(t.data.max())))
        if name in quantized else t
        for name, t in spec.weights.items()
    }


# The ops whose requantize clip at code -128 can be the ReLU after them.
_FOLDS_RELU = ("conv2d", "depthwise_conv2d", "fully_connected")


def quantize_graph(spec: GraphSpec, ranges) -> GraphSpec:
    """Float graph -> per-tensor asymmetric int8 graph.

    Activations use the calibrated per-node ranges.  A ReLU with zero point
    -128 is folded into the conv, depthwise or FC node before it when it is
    that node's only reader, the fused activation of Jacob et al. (arXiv
    1712.05877, section 2.4): the node takes the ReLU's qparams, so
    ``requantize``'s clip at -128 is the ReLU, and the ReLU's readers read
    the node.  An all-zero range gives zero point 0, and its ReLU stays.
    """
    qparams = {node.id: qparams_from_range(*ranges[node.id]) for node in spec.nodes}
    kinds = {node.id: node.op_kind for node in spec.nodes}
    readers = Counter([spec.output_id, *(i for n in spec.nodes for i in n.input_ids)])
    folded = {}  # ReLU id -> the id of the node it is folded into
    for node in spec.nodes:
        if (node.op_kind == "relu" and qparams[node.id].zero_point == -128
                and kinds.get(src := node.input_ids[0]) in _FOLDS_RELU
                and readers[src] == 1):
            folded[node.id] = src
            qparams[src] = qparams[node.id]
    nodes = [
        OperatorNode(node.id, node.op_kind, [folded.get(i, i) for i in node.input_ids],
                     {**node.attributes, "out_qp": qparams[node.id]},
                     list(node.weight_refs))
        for node in spec.nodes if node.id not in folded
    ]
    return GraphSpec(
        name=spec.name + "_int8",
        input_shape=spec.input_shape,
        nodes=nodes,
        output_id=folded.get(spec.output_id, spec.output_id),
        weights=_quantize_weights(spec),
        dtype_profile=INT8Q,
    )


def instantiate(test_id, scale=1.0, seed=DEFAULT_SEED):
    """Build the canonical graph for one test at the given scale."""
    spec = _make_spec(test_id, scale, seed)
    h, w = spec.input_resolution
    gspec = BUILDERS[spec.architecture](h, w, WeightStream(seed))
    graph = validate(gspec)
    if spec.quantized:
        calib = generate_input(replace(spec, quantized=False), seed ^ 0xCA11B)
        graph = validate(quantize_graph(gspec, _observe_ranges(graph, calib)))
    return graph, spec


def generate_input(spec: WorkloadSpec, seed) -> Tensor:
    """Deterministic uniform [0, 1] image; int8-coded for the quantized test."""
    h, w = spec.input_resolution
    vals = uniform_stream(seed, 0, h * w * 3, 0.0, 1.0)
    t = Tensor(vals.astype(np.float32).reshape(1, h, w, 3))
    if spec.quantized:
        return quantize(t, INPUT_QPARAMS)
    return t


def weight_bytes(graph: Graph) -> int:
    """Serialized weight payload: element bytes plus 8 per qparams pair."""
    total = 0
    for t in graph.spec.weights.values():
        total += t.nbytes
        if t.qparams is not None:
            total += 8
    return total


def all_default_specs(scale=1.0, seed=DEFAULT_SEED):
    return [_make_spec(t, scale, seed) for t in range(1, 10)]
