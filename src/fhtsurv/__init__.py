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
    ig_density,
    ig_survival,
    ig_survival_and_grads,
    levy_density,
    levy_survival,
    levy_survival_and_grads,
)

__version__ = "0.1.0"

__all__ = [
    "DistKind",
    "FhtDomainError",
    "LevyParams",
    "InvGaussParams",
    "levy_survival",
    "levy_density",
    "levy_survival_and_grads",
    "ig_survival",
    "ig_density",
    "ig_survival_and_grads",
    "__version__",
]


def __getattr__(name):
    # lazy submodule access: fhtsurv.training, fhtsurv.metrics, ...
    import importlib

    if name in (
        "cli", "cox", "data", "interpret", "metrics",
        "modelio", "network", "simulate", "special", "training",
    ):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
