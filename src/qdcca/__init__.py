"""q-dependent detrended cross-correlation analysis toolkit."""

from .config import AnalysisConfig, load_config
from .data import QuoteSeries, ReturnMatrix, load_quotes, log_returns, normalize
from .dfa import DetrendConfig, rho_q, rho_q_lagged
from .network import (
    cluster_track,
    degree_distribution,
    distance_matrix,
    louvain,
    mean_path_length,
    minimum_spanning_tree,
    powerlaw_fit,
)
from .pipeline import rolling_windows, run_analysis, threshold_periods
from .spectra import (
    correlation_matrix,
    eigendecompose,
    eigensignal,
    residual_returns,
    shannon_entropy,
)
from .synth import GeneratorSpec, synth_quotes, synth_returns

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "DetrendConfig",
    "GeneratorSpec",
    "QuoteSeries",
    "ReturnMatrix",
    "cluster_track",
    "correlation_matrix",
    "degree_distribution",
    "distance_matrix",
    "eigendecompose",
    "eigensignal",
    "load_config",
    "load_quotes",
    "log_returns",
    "louvain",
    "mean_path_length",
    "minimum_spanning_tree",
    "normalize",
    "powerlaw_fit",
    "residual_returns",
    "rho_q",
    "rho_q_lagged",
    "rolling_windows",
    "run_analysis",
    "shannon_entropy",
    "synth_quotes",
    "synth_returns",
    "threshold_periods",
    "__version__",
]
