"""Discrete-time quantum walks on cycles: block-circulant spectra, exact
revival search, special-state revivals, and the published revival tables
verified as columns."""

from .exprs import ExpressionError, parse_fraction, parse_value
from .revival import (
    CERTIFICATION_TOL,
    RevivalCertificate,
    power_deviation,
    revival_period,
)
from .solver import (
    enumerate_seeded,
    solve_approximate,
    solve_rho_edge,
    solve_seeded,
    weight,
    weight_forms,
)
from .special import build_special_state, demoivre_subspace, eigenbasis
from .spectral import full_spectrum
from .tables import verify_table
from .walk import (
    HADAMARD,
    CoinParams,
    WalkerState,
    build_walk_operator,
    evolve,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFICATION_TOL",
    "CoinParams",
    "ExpressionError",
    "HADAMARD",
    "RevivalCertificate",
    "WalkerState",
    "build_special_state",
    "build_walk_operator",
    "demoivre_subspace",
    "eigenbasis",
    "enumerate_seeded",
    "evolve",
    "full_spectrum",
    "parse_fraction",
    "parse_value",
    "power_deviation",
    "revival_period",
    "solve_approximate",
    "solve_rho_edge",
    "solve_seeded",
    "verify_table",
    "weight",
    "weight_forms",
]
