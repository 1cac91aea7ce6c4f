"""Survival analysis with first-hitting-time diffusion models.

Covariates are mapped by a small feedforward network to the parameters of a
latent diffusion absorbed at a barrier; the closed-form hitting-time law of
that diffusion supplies per-subject survival curves.  The package also ships
censoring-aware evaluation metrics, a Cox proportional-hazards baseline, a
synthetic non-proportional-hazards benchmark generator, a Monte Carlo
first-passage oracle, and parameter-space risk-map export.
"""

from .fht import (
    DistKind,
    FhtDomainError,
    InvGaussParams,
    LevyParams,
)

__version__ = "0.1.0"

__all__ = [
    "DistKind",
    "FhtDomainError",
    "LevyParams",
    "InvGaussParams",
    "__version__",
]

