"""Exception hierarchy shared across the benchmark library."""


class InferBenchError(Exception):
    """Base class for all library errors."""


class ShapeError(InferBenchError):
    """A kernel was called with incompatible tensor shapes."""


class QuantizationError(InferBenchError):
    """Invalid quantization parameters or an unsupported quantized config."""


class GraphValidationError(InferBenchError):
    """A graph spec failed validation; ``node_id`` names the culprit."""

    def __init__(self, message, node_id=None):
        super().__init__(message)
        self.node_id = node_id


class ExecutionError(InferBenchError):
    """A kernel failed during graph execution at node ``node_id``."""

    def __init__(self, message, node_id=None):
        super().__init__(message)
        self.node_id = node_id


class DispatchError(InferBenchError):
    """Unknown or duplicate backend in the dispatch registry."""


class WorkloadError(InferBenchError):
    """Bad workload id or scale, or a workload spec violating its invariants."""


class ScoringError(InferBenchError):
    """A measurement or profile cannot be scored or calibrated."""


class AggregationError(InferBenchError):
    """Malformed result file or record during ingestion/ranking."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field
