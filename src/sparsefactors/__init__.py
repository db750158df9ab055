"""Weak factor models with sparse loadings, estimated by principal components.

The package covers the full desk workflow: panel ingestion and FRED-QD-style
transformations, PC estimation, hard-threshold screening of loadings, factor
strength estimation, four factor-number selection rules, a seeded Monte Carlo
harness with evaluation metrics, and a rolling-window empirical pipeline.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSeriesError,
    InsufficientSampleError,
    InvalidArgumentError,
    PanelParseError,
    SparseFactorsError,
    TransformError,
)
from .factor_count import (
    DEFAULT_RMAX,
    FactorCountResult,
    select_r,
    select_r_ah,
    select_r_ed,
    select_r_icp1,
    select_r_svt,
)
from .metrics import (
    MetricsReport,
    ReplicationRecord,
    fdr_power,
    pooled_fdr_power,
    rmse_c,
    rotation_q,
    trace_stat_f,
    trace_stat_lambda,
)
from .panel import (
    Panel,
    align_and_trim,
    apply_tcode,
    export_csv,
    ingest_csv,
    standardize,
)
from .pca import (
    PcFit,
    SymEig,
    decompose,
    eig_sym_desc,
    export_pc_fit,
    gram,
    numerical_rank,
    pc_fit,
    residual_variances,
)
from .rolling import (
    HeatmapExport,
    RollingResult,
    heatmap_to_csv,
    rolling_analysis,
    rolling_to_csv,
    subperiod_heatmap,
)
from .screening import (
    SparseFit,
    StrengthEstimate,
    screen,
    strengths,
    symm_diff_ratio,
    threshold_value,
)
from .simulate import (
    SimConfig,
    SimTruth,
    gen_errors,
    gen_factors,
    gen_loadings,
    run_replications,
    simulate_panel,
)

__all__ = [
    "DEFAULT_RMAX",
    "DegenerateSeriesError",
    "FactorCountResult",
    "HeatmapExport",
    "InsufficientSampleError",
    "InvalidArgumentError",
    "MetricsReport",
    "Panel",
    "PanelParseError",
    "PcFit",
    "ReplicationRecord",
    "RollingResult",
    "SimConfig",
    "SimTruth",
    "SparseFactorsError",
    "SparseFit",
    "StrengthEstimate",
    "SymEig",
    "TransformError",
    "align_and_trim",
    "apply_tcode",
    "decompose",
    "eig_sym_desc",
    "export_csv",
    "export_pc_fit",
    "fdr_power",
    "gen_errors",
    "gen_factors",
    "gen_loadings",
    "gram",
    "heatmap_to_csv",
    "ingest_csv",
    "numerical_rank",
    "pc_fit",
    "pooled_fdr_power",
    "residual_variances",
    "rmse_c",
    "rolling_analysis",
    "rolling_to_csv",
    "rotation_q",
    "run_replications",
    "screen",
    "select_r",
    "select_r_ah",
    "select_r_ed",
    "select_r_icp1",
    "select_r_svt",
    "simulate_panel",
    "standardize",
    "strengths",
    "subperiod_heatmap",
    "symm_diff_ratio",
    "threshold_value",
    "trace_stat_f",
    "trace_stat_lambda",
]
