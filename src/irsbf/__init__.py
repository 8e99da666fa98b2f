"""Joint transmit/reflect beamforming for a hardware-impaired IRS-assisted link."""

from .channels import (
    Geometry,
    LOSChannel,
    derive_distances,
    generate_channels,
    path_loss_linear,
    sample_los,
    sample_rayleigh,
)
from .los import LOSSolution, asymptotic_snr, los_snr_closed, solve_los
from .mm import (
    MMResult,
    MMSettings,
    lifted_objective,
    quantize_phases,
    random_lifted_init,
    run_mm,
    surrogate_value,
)
from .model import (
    ChannelSet,
    ConfigError,
    DegenerateChannelError,
    DimensionError,
    EvalResult,
    ReflectConfig,
    SystemConfig,
    build_composite,
    extract_reflect,
    lift_reflect,
    validate_config,
)
from .sdr import UpperBoundResult, relaxed_objective, solve_sdr
from .sim import (
    Scheme,
    SimResult,
    SweepFailedError,
    SweepSpec,
    SweepVariable,
    run_iteration_study,
    run_sweep,
    simulate_ser,
    table_defaults,
)
from .txbf import (
    evaluate_snr,
    optimal_transmit_beam,
    psi_tilde,
    snr_from_psi_tilde,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
