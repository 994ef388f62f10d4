"""Correlation networks, triad balance analytics and sign-change prediction
for daily price panels."""

__version__ = "0.1.0"

from .balance import (
    BalanceReport,
    balance_report,
    eigvec_overlap,
    hamiltonian,
    pair_stability,
    spectral_summary,
)
from .correlation import (
    CorrMatrix,
    partial_pearson,
    pearson_matrix,
    phi_matrix,
    sign_matrix,
)
from .errors import DataError
from .experiment import (
    ExperimentRecord,
    RocResult,
    SignChangeDataset,
    aggregate_cells,
    build_dataset,
    default_t_values,
    roc,
    run_grid,
    stability_profile,
    timeseries_rows,
    window_correlation,
)
from .graphmetrics import LabeledGraph, assortativity, link_density
from .ingest import PricePanel, load_panel, write_panel_long
from .preprocess import (
    BinaryPanel,
    ReturnPanel,
    binarize,
    complete_case,
    log_returns,
    volatility,
)
from .svn import Svn, build_svn
from .synth import SynthSpec, generate

__all__ = [
    "BalanceReport",
    "BinaryPanel",
    "CorrMatrix",
    "DataError",
    "ExperimentRecord",
    "LabeledGraph",
    "PricePanel",
    "ReturnPanel",
    "RocResult",
    "SignChangeDataset",
    "Svn",
    "SynthSpec",
    "aggregate_cells",
    "assortativity",
    "balance_report",
    "binarize",
    "build_dataset",
    "build_svn",
    "complete_case",
    "default_t_values",
    "eigvec_overlap",
    "generate",
    "hamiltonian",
    "link_density",
    "load_panel",
    "log_returns",
    "pair_stability",
    "partial_pearson",
    "pearson_matrix",
    "phi_matrix",
    "roc",
    "run_grid",
    "sign_matrix",
    "spectral_summary",
    "stability_profile",
    "timeseries_rows",
    "volatility",
    "window_correlation",
    "write_panel_long",
]
