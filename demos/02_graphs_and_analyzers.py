"""Building workload graphs and reading the static analyzers.

Run: python3 demos/02_graphs_and_analyzers.py
"""

from inferbench.graph import (
    count_macs,
    count_other_ops,
    count_params,
    peak_activation_bytes,
    validate,
)
from inferbench.zoo import WeightStream, build_mobilenet_v1, build_srcnn

# Builders draw weights from a seeded SplitMix64 stream: same seed, same
# network, bit for bit.
graph = validate(build_mobilenet_v1(224, 224, WeightStream(42)))
print(f"{graph.name}: {len(graph.spec.nodes)} nodes, "
      f"output {graph.output_shape}")
print(f"  parameters:       {count_params(graph):,}")
print(f"  multiply-adds:    {count_macs(graph):,}")
print(f"  other ops:        {count_other_ops(graph):,}")
print(f"  peak activations: {peak_activation_bytes(graph):,} bytes")

# The analyzers read the shapes validate fixed; for another resolution,
# build the network again.
small = validate(build_mobilenet_v1(128, 128, WeightStream(42)))
print(f"  multiply-adds at 128x128: {count_macs(small):,}")

# The deblurring network's peak activation memory grows exactly with the
# input area; the memory probe leans on this.
for side in (100, 200, 300):
    g = validate(build_srcnn(side, side, WeightStream(42)))
    peak = peak_activation_bytes(g)
    print(f"srcnn {side}x{side}: peak {peak:,} bytes "
          f"({peak / side**2:.0f} bytes per pixel)")
