"""The machine-independent numbers of the nine graphs, frozen in a golden file.

For each test at scales 0.25 and 1.0, ``golden_numbers.json`` holds a
sha256 of the graph's (id, op, output shape) list with its MAC, other-op,
parameter and peak-activation counts, and for each test the sha256 of its
``inspect --scale 0.25`` text.  All of them are integers or text built from
integers, so every machine gives the same file.  A change that moves one of
them on purpose rewrites the file with ``python tests/test_golden.py`` and
names the entries it moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from inferbench.cli import main
from inferbench.graph import (
    count_macs, count_other_ops, count_params, peak_activation_bytes,
)
from inferbench.workloads import instantiate

GOLDEN = pathlib.Path(__file__).with_name("golden_numbers.json")
SCALES = (0.25, 1.0)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _graph_numbers(graph):
    nodes = [[n.id, n.op_kind, list(graph.node_shapes[n.id])] for n in graph.spec.nodes]
    return {
        "nodes_sha256": _sha256(json.dumps(nodes, separators=(",", ":"))),
        "macs": count_macs(graph),
        "other_ops": count_other_ops(graph),
        "params": count_params(graph),
        "peak_activation_bytes": peak_activation_bytes(graph),
    }


def _inspect_text(test_id):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["inspect", str(test_id), "--scale", "0.25"]) == 0
    return out.getvalue()


def numbers():
    return {
        "graphs": {f"{t}@{s}": _graph_numbers(instantiate(t, s)[0])
                   for s in SCALES for t in range(1, 10)},
        "inspect_sha256": {str(t): _sha256(_inspect_text(t)) for t in range(1, 10)},
    }


def test_graph_numbers_and_inspect_text_are_frozen():
    want = json.loads(GOLDEN.read_text())
    got = numbers()
    moved = [f"{part} {key}" for part in want for key in want[part]
             if got[part].get(key) != want[part][key]]
    assert got == want, f"moved: {', '.join(moved) or 'keys differ'}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(numbers(), indent=1, sort_keys=True) + "\n")
