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
)
from .model import (
    ChannelSet,
    ConfigError,
    DegenerateChannelError,
    DimensionError,
    ReflectConfig,
    SystemConfig,
    build_composite,
    extract_reflect,
    lift_reflect,
)
from .sdr import UpperBoundResult, solve_sdr
from .sim import (
    SETTINGS,
    Scheme,
    SimResult,
    SweepFailedError,
    SweepSpec,
    load_setup,
    run_iteration_study,
    run_sweep,
    simulate_ser,
    table_defaults,
    with_setting,
)
from .txbf import (
    evaluate_snr,
    optimal_transmit_beam,
    psi_tilde,
    snr_from_psi_tilde,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
