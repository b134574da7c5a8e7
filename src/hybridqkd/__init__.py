"""Asymptotic BB84 secret-key rates for hybrid quantum-dot / laser statistics."""

from .channel import (
    ChannelModel,
    DetectorModel,
    db_to_km,
    db_to_transmissivity,
    error_k,
    totals,
    yield_k,
)
from .errors import ConfigError, DomainError
from .estimate import (
    ClickObservables,
    compose_click_probability,
    infer_mu_laser,
    infer_mu_mixed,
)
from .montecarlo import SimConfig, SimTally, empirical_skr, simulate
from .optimize import (
    OptimizationResult,
    ScanPoint,
    crossover_attenuation,
    laser_beat_brightness,
    optimize_mu_laser,
    skr_scan,
    unconditional_advantage_brightness,
)
from .photon_stats import (
    PhotonNumberDistribution,
    QdSourceParams,
    apply_loss,
    brightness_after_loss,
    g2_of,
    hybrid_distribution,
    mean_photon_number,
    multiphoton_probability,
    poisson_distribution,
    qd_distribution,
)
from .security import (
    SkrReport,
    binary_entropy,
    gllp_skr,
    skr_from_observables,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "ClickObservables",
    "ConfigError",
    "DetectorModel",
    "DomainError",
    "OptimizationResult",
    "PhotonNumberDistribution",
    "QdSourceParams",
    "ScanPoint",
    "SimConfig",
    "SimTally",
    "SkrReport",
    "apply_loss",
    "binary_entropy",
    "brightness_after_loss",
    "compose_click_probability",
    "crossover_attenuation",
    "db_to_km",
    "db_to_transmissivity",
    "empirical_skr",
    "error_k",
    "g2_of",
    "gllp_skr",
    "hybrid_distribution",
    "infer_mu_laser",
    "infer_mu_mixed",
    "laser_beat_brightness",
    "mean_photon_number",
    "multiphoton_probability",
    "optimize_mu_laser",
    "poisson_distribution",
    "qd_distribution",
    "simulate",
    "skr_from_observables",
    "skr_scan",
    "totals",
    "unconditional_advantage_brightness",
    "yield_k",
]
