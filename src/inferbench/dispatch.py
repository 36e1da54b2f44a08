"""Backend registry and whole-graph dispatch with CPU-reference fallback.

A backend is declared once, by its kernel table: it supports exactly the
(op, dtype) pairs its ``KernelSet`` holds.  A graph runs on the preferred
backend only if that table holds every pair the graph uses; otherwise the
entire graph falls back to the total-coverage reference backend.  There is
no per-node partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DispatchError
from .graph import Graph, execute
from .kernels import KernelSet, optimized, quantized, reference
from .tensor import INT8Q

REFERENCE = "reference"
OPTIMIZED = "optimized"
QUANTIZED = "quantized"

ALL_OPS_SUPPORTED = "all_ops_supported"
FALLBACK_UNSUPPORTED_OP = "fallback_unsupported_op"


@dataclass(frozen=True)
class DispatchDecision:
    chosen_backend_id: str
    reason: str
    node_id: str = None
    op_kind: str = None


class BackendRegistry:
    """Immutable-after-setup mapping of backend ids to kernel sets."""

    def __init__(self):
        self._backends = {}

    def register(self, kernels: KernelSet):
        if kernels.backend_id in self._backends:
            raise DispatchError(f"duplicate backend id {kernels.backend_id!r}")
        self._backends[kernels.backend_id] = kernels

    def ids(self):
        return list(self._backends)

    def kernels(self, backend_id) -> KernelSet:
        try:
            return self._backends[backend_id]
        except KeyError:
            raise DispatchError(f"unknown backend {backend_id!r}") from None

    def select_backend(self, graph: Graph, preferred: str) -> DispatchDecision:
        """Whole-graph rule: any unsupported op forces reference fallback."""
        kernels = self.kernels(preferred)
        dtype = graph.dtype_profile
        for node in graph.spec.nodes:
            if not kernels.supports(node.op_kind, dtype):
                return DispatchDecision(
                    REFERENCE, FALLBACK_UNSUPPORTED_OP, node.id, node.op_kind
                )
        return DispatchDecision(preferred, ALL_OPS_SUPPORTED)

    def equivalence_check(self, graph: Graph, x, backend_a, backend_b) -> float:
        """Max element deviation between two backends on one input.

        Float graphs return max |a - b|; int8 graphs return the max
        quantum distance between codes.
        """
        ya = execute(graph, x, self.kernels(backend_a))
        yb = execute(graph, x, self.kernels(backend_b))
        if graph.dtype_profile == INT8Q:
            return int(
                np.abs(ya.data.astype(np.int64) - yb.data.astype(np.int64)).max()
            )
        return float(np.abs(ya.data - yb.data).max())


def default_registry(threads: int = 1) -> BackendRegistry:
    """Registry with the three built-in backends.

    reference: naive loops, total coverage (float32 and int8q).
    optimized: tiled GEMM kernels, full float32 coverage, no int8.
    quantized: integer GEMM path for int8q graphs.

    Every kernel runs on one Python thread, so ``threads`` changes nothing
    here; only ``run_suite`` uses the value, to record it in the header.
    """
    reg = BackendRegistry()
    reg.register(reference.make_kernel_set())
    reg.register(optimized.make_kernel_set())
    reg.register(quantized.make_kernel_set())
    return reg
