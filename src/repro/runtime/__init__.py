"""Measurement harness, simulated exploration clock, fault injection,
checkpointing, batched parallel evaluation, cluster supervision, and
tuning records."""

from .cache import EVALCACHE_VERSION, EvalCache
from .checkpoint import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from .cluster import (
    BatchPlan,
    BreakerState,
    ClusterConfig,
    ClusterSupervisor,
    WorkerState,
)
from .fault import (
    Fault,
    FaultInjector,
    InjectedCompileError,
    InjectedHang,
    InjectedRuntimeError,
    NodeFault,
    NodeFaultInjector,
)
from .measure import (
    Evaluator,
    MeasureConfig,
    MeasureResult,
    MeasureStatus,
    op_signature_of,
)
from .parallel import BatchEngine
from .records import RecordBook, TuningRecord, parse_workload_key, workload_key

__all__ = [
    "BatchEngine",
    "BatchPlan",
    "BreakerState",
    "CHECKPOINT_VERSION",
    "ClusterConfig",
    "ClusterSupervisor",
    "EVALCACHE_VERSION",
    "EvalCache",
    "Evaluator",
    "Fault",
    "FaultInjector",
    "InjectedCompileError",
    "InjectedHang",
    "InjectedRuntimeError",
    "MeasureConfig",
    "MeasureResult",
    "MeasureStatus",
    "NodeFault",
    "NodeFaultInjector",
    "RecordBook",
    "TuningRecord",
    "WorkerState",
    "load_checkpoint",
    "op_signature_of",
    "parse_workload_key",
    "save_checkpoint",
    "workload_key",
]
