"""Discrete-time model-free tracking control with finite-time-stable
sigmoid-gain observers, controllers and output filtering, plus a closed-loop
simulation harness and CLI."""

from .fts_core import (
    DomainError,
    HolderGainParams,
    LyapunovTrace,
    decrease_radius,
    fts_recursion,
    gamma_of_V,
    gamma_zero_crossing,
    holder_gain,
    robustness_radius,
    verify_fts_condition,
    verify_holder_continuity,
)
from .output_filter import filter_update
from .plant_models import (
    DivergenceError,
    NoiseConfig,
    PendulumParams,
    PendulumPlant,
    SyntheticUlmPlant,
    bias_vector,
    generate_desired_trajectory,
    mass_matrix,
    noise_sample,
    open_loop_input,
    pendulum_step,
    pendulum_ulm_terms,
)
from .sim_harness import (
    CSV_HEADER,
    ConfigError,
    SimConfig,
    SimLog,
    SuiteReport,
    compute_metrics,
    metrics_to_text,
    run_closed_loop,
    verify_suite,
)
from .tracking_control import (
    ControlGains,
    control_law_basic,
    control_law_fts,
    solve_input,
)
from .ulm_observer import (
    compute_F,
    first_order_update,
    second_order_update,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "ControlGains",
    "DivergenceError",
    "DomainError",
    "HolderGainParams",
    "LyapunovTrace",
    "NoiseConfig",
    "PendulumParams",
    "PendulumPlant",
    "SimConfig",
    "SimLog",
    "SuiteReport",
    "SyntheticUlmPlant",
    "bias_vector",
    "compute_F",
    "compute_metrics",
    "control_law_basic",
    "control_law_fts",
    "decrease_radius",
    "filter_update",
    "first_order_update",
    "fts_recursion",
    "gamma_of_V",
    "gamma_zero_crossing",
    "generate_desired_trajectory",
    "holder_gain",
    "mass_matrix",
    "metrics_to_text",
    "noise_sample",
    "open_loop_input",
    "pendulum_step",
    "pendulum_ulm_terms",
    "robustness_radius",
    "run_closed_loop",
    "second_order_update",
    "solve_input",
    "verify_fts_condition",
    "verify_holder_continuity",
    "verify_suite",
]
