"""Whole-graph backend dispatch with reference fallback.

Run: python3 demos/03_dispatch_and_fallback.py
"""

from inferbench.dispatch import (
    OPTIMIZED,
    QUANTIZED,
    BackendRegistry,
    default_registry,
)
from inferbench.kernels import KernelSet, optimized, reference
from inferbench.runner import preferred_backend
from inferbench.workloads import all_default_specs, instantiate

registry = default_registry()
print("registered backends:", registry.ids())

# The quantized image-recognition workload dispatches to the integer
# backend; a float workload would fall back because the integer backend
# lacks every float op.
graph, spec = instantiate(1, scale=0.2)
decision = registry.select_backend(graph, QUANTIZED)
print(f"test 1 ({graph.dtype_profile}): backend {decision.chosen_backend_id} "
      f"({decision.reason})")

graph5, _ = instantiate(5, scale=0.1)
decision = registry.select_backend(graph5, QUANTIZED)
print(f"test 5 (float32) preferring quantized: "
      f"{decision.chosen_backend_id} ({decision.reason}, "
      f"first unsupported node {decision.node_id!r})")

# One missing op is enough: dropping relu from an otherwise complete
# backend forces the whole graph onto the reference path.
opt = optimized.make_kernel_set()
crippled = KernelSet("crippled", {k: v for k, v in opt.ops.items()
                                  if k[0] != "relu"})
reg = BackendRegistry()
reg.register(reference.make_kernel_set())
reg.register(crippled)
decision = reg.select_backend(graph5, "crippled")
print(f"crippled backend on test 5: {decision.chosen_backend_id} "
      f"({decision.reason} at {decision.node_id!r})")

# Face recognition, the big super-resolution network, and segmentation
# always take the CPU path, whatever backend is configured.
for s in all_default_specs():
    pref = preferred_backend(s.test_id, s, "auto")
    tag = "" if s.accelerator_eligible else "  (CPU only)"
    print(f"test {s.test_id} {s.name:<28} -> {pref}{tag}")
