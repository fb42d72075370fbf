"""Monthly crop-yield modeling from soil and weather observations.

Pipeline pieces: CSV ingestion and synthetic data (``dataset``), fitted
preprocessing transforms (``preprocess``), relief-based feature ranking with
sequential forward selection (``feature_select``), the baseline learners
(``regressors``), the selected error-weighted network ensemble
(``ensemble``), the evaluation harness (``evaluation``), the end-to-end
runner (``pipeline``), and the ``teayield`` command line (``cli``).
"""

from .config import PipelineConfig, load_config, paper_defaults, render_config
from .dataset import (CANONICAL_SCHEMA, CorrelationReport, FeatureMatrix,
                      SyntheticSpec, correlation_report, derive_avg_temp,
                      generate_synthetic, load_csv, pearson, render_csv,
                      write_csv)
from .ensemble import (BaseLearner, EnsembleConfig, EnsembleModel, PoolReport,
                       compute_weights, predict_ensemble, rank_learners,
                       select_learners, train_pool)
from .errors import ConfigError, DataError, FitError, TeaYieldError
from .evaluation import (FoldPlan, MetricsReport, cross_validate,
                         forward_select, holdout_split, make_folds, metrics)
from .feature_select import (RankedFeatures, ReliefParams, SelectionResult,
                             rrelieff, sequential_forward_select)
from .pipeline import (StageReport, evaluate_pipeline, fit_preprocess,
                       stage_report, train_ensemble_pipeline)
from .preprocess import (OutlierReport, PreprocessState, ScalerState,
                         apply_scaler, cooks_distance, fit_scaler,
                         log_transform, remove_outliers)
from .regressors import (GPRModel, LinearModel, MLPModel, MLPTrainConfig,
                         fit_gpr, fit_mlp, fit_ols, predict, predict_gpr)
from .serialize import load_model, save_model

__version__ = "0.1.0"
