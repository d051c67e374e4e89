"""Latent-parameter performance modeling for lifelong learning curves."""

from .errors import (
    DivergenceError,
    NormalizationError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .model import (
    D_MIN,
    AlgorithmProperties,
    Curriculum,
    ExperienceState,
    PerformanceMatrix,
    ScenarioParams,
    TaskProperties,
    TaskSet,
    experience_step,
    performance_map,
    simulate_all,
)
from .estimator import (
    RECOVERY_THRESHOLDS,
    FitConfig,
    FitResult,
    ParamGradient,
    RecoveryResult,
    fit,
    fit_with_restarts,
    gradient,
    loss,
    parameter_recovery_errors,
    recovery_experiment,
)
from .scenarios import ScenarioSpec, generate, sample_curriculum, sample_params
from .dataio import (
    RawLog,
    downsample_to_boundaries,
    load_dataset,
    normalize_minmax,
    parse_boundaries,
    parse_curriculum,
    parse_curves,
    parse_params,
    parse_raw_log,
    write_curriculum,
    write_curves,
    write_params,
)
from .reporting import (
    Table,
    comparison_table,
    difficulty_table,
    plot_curves,
    property_table,
    transfer_table,
)

__version__ = "0.1.0"
