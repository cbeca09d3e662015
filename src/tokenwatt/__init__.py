"""Energy accounting for offline LLM inference workloads.

Bins request traces by token-length geometry, prices each bin with measured
per-batch energy, and bounds the result from below with an analytic
transformer FLOPs model.
"""

__version__ = "0.1.0"

from .binning import (
    BinnedWorkload,
    bin_arrays,
    bin_workload,
    read_binned_csv,
    write_binned_csv,
)
from .core import (
    Bin,
    BinGrid,
    DEFAULT_GRID,
    DEFAULT_INPUT_BINS,
    DEFAULT_OUTPUT_BINS,
    Energy,
    HardwareSpec,
    J_PER_KWH,
    J_PER_WH,
    ModelConfig,
    RequestColumns,
    ValidationError,
    derive_param_count,
)
from .estimator import BinEstimate, ESTIMATE_MODES, WorkloadEstimate, estimate
from .flops import (
    FlopsBreakdown,
    idealized_energy,
    joules_per_flop,
    request_flops,
    workload_flops,
)
from .ingest import (
    TRACE_FORMATS,
    TraceLoad,
    TraceStats,
    compute_stats,
    load_trace,
    summarize_trace,
)
from .report import (
    BaselineReport,
    Comparison,
    ComparisonEntry,
    REPORT_FORMATS,
    SCHEMA_VERSION,
    TraceReport,
    compare,
    emit_report,
    read_estimate,
)
from .sweep import (
    CoverageReport,
    SweepPlan,
    default_sweep_plans,
    read_plan,
    validate_table_against_plan,
    write_plans,
)
from .tables import (
    MeasurementRecord,
    MeasurementTable,
    TableMetadata,
    default_kv_bytes_per_token,
    load_table,
    lookup,
    synthesize_table,
    write_table,
)

__all__ = [
    "__version__",
    "Bin", "BinGrid", "DEFAULT_GRID", "DEFAULT_INPUT_BINS", "DEFAULT_OUTPUT_BINS",
    "Energy", "HardwareSpec", "J_PER_KWH", "J_PER_WH", "ModelConfig", "RequestColumns",
    "ValidationError", "derive_param_count",
    "BinnedWorkload", "bin_arrays", "bin_workload", "read_binned_csv",
    "write_binned_csv",
    "BinEstimate", "ESTIMATE_MODES", "WorkloadEstimate", "estimate",
    "FlopsBreakdown", "idealized_energy", "joules_per_flop", "request_flops",
    "workload_flops",
    "TRACE_FORMATS", "TraceLoad", "TraceStats", "compute_stats",
    "load_trace", "summarize_trace",
    "BaselineReport", "Comparison", "ComparisonEntry", "REPORT_FORMATS",
    "SCHEMA_VERSION", "TraceReport", "compare", "emit_report", "read_estimate",
    "CoverageReport", "SweepPlan", "default_sweep_plans",
    "read_plan", "validate_table_against_plan", "write_plans",
    "MeasurementRecord", "MeasurementTable", "TableMetadata",
    "default_kv_bytes_per_token", "load_table", "lookup", "synthesize_table",
    "write_table",
]
