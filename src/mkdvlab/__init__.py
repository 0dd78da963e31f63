"""Numerical laboratory for breathers and solitons of the focusing mKdV hierarchy."""

from .closed_forms import (
    ORDERS,
    BreatherParams,
    Jet,
    SolitonParams,
    Velocities,
    b_tilde,
    breather_jet,
    flux,
    flux_terms,
    partial_mass,
    soliton_jet,
    soliton_speed,
    velocities,
)

__all__ = [
    "ORDERS",
    "BreatherParams",
    "Jet",
    "SolitonParams",
    "Velocities",
    "b_tilde",
    "breather_jet",
    "flux",
    "flux_terms",
    "partial_mass",
    "soliton_jet",
    "soliton_speed",
    "velocities",
]

__version__ = "0.1.0"
