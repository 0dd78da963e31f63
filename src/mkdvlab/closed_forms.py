"""Exact solutions of the focusing mKdV hierarchy, orders 3 to 11.

Breathers

    B = 2 d/dx arctan((beta/alpha) sin(alpha y1) / cosh(beta y2)),
    y1 = x + delta t + x1,   y2 = x + gamma t + x2,

sech solitons Q_c(x - v t), the order-dependent velocity polynomials
(delta, gamma) and soliton speeds v, the flux polynomials f_{2n+1} that sit
under the outer d/dx of each hierarchy member, and the breather's partial
mass.  Spatial derivatives come from truncated Taylor arithmetic (series.py)
and are exact to rounding; no finite differences, no symbolic expansion.

The velocity pairs obey

    (alpha + i beta)^(2n+1) = (-1)^(n+1) (alpha delta_{2n+1} + i beta gamma_{2n+1}),

which fixes every coefficient below; identities.py re-derives the one
contested delta_9 exponent empirically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .series import Series, sin_cos, sinh_cosh

ORDERS = (3, 5, 7, 9, 11)

# (coefficient, alpha exponent, beta exponent) per monomial, delta then gamma
VELOCITY_TERMS = {
    3: (
        ((1.0, 2, 0), (-3.0, 0, 2)),
        ((3.0, 2, 0), (-1.0, 0, 2)),
    ),
    5: (
        ((-1.0, 4, 0), (10.0, 2, 2), (-5.0, 0, 4)),
        ((-5.0, 4, 0), (10.0, 2, 2), (-1.0, 0, 4)),
    ),
    7: (
        ((1.0, 6, 0), (-21.0, 4, 2), (35.0, 2, 4), (-7.0, 0, 6)),
        ((7.0, 6, 0), (-35.0, 4, 2), (21.0, 2, 4), (-1.0, 0, 6)),
    ),
    9: (
        ((-1.0, 8, 0), (36.0, 6, 2), (-126.0, 4, 4), (84.0, 2, 6), (-9.0, 0, 8)),
        ((-9.0, 8, 0), (84.0, 6, 2), (-126.0, 4, 4), (36.0, 2, 6), (-1.0, 0, 8)),
    ),
    11: (
        ((1.0, 10, 0), (-55.0, 8, 2), (330.0, 6, 4), (-462.0, 4, 6), (165.0, 2, 8), (-11.0, 0, 10)),
        ((11.0, 10, 0), (-165.0, 8, 2), (462.0, 6, 4), (-330.0, 4, 6), (55.0, 2, 8), (-1.0, 0, 10)),
    ),
}

# flux terms as (coefficient, derivative orders of each factor); 0 = u itself
FLUX_TERMS = {
    3: (
        (2.0, (0, 0, 0)),
    ),
    5: (
        (10.0, (0, 1, 1)),
        (10.0, (0, 0, 2)),
        (6.0, (0, 0, 0, 0, 0)),
    ),
    7: (
        (14.0, (0, 0, 4)),
        (56.0, (0, 1, 3)),
        (42.0, (0, 2, 2)),
        (70.0, (1, 1, 2)),
        (70.0, (0, 0, 0, 0, 2)),
        (140.0, (0, 0, 0, 1, 1)),
        (20.0, (0, 0, 0, 0, 0, 0, 0)),
    ),
    9: (
        (18.0, (0, 0, 6)),
        (108.0, (0, 1, 5)),
        (228.0, (0, 2, 4)),
        (210.0, (1, 1, 4)),
        (126.0, (0, 0, 0, 0, 4)),
        (138.0, (0, 3, 3)),
        (756.0, (1, 2, 3)),
        (1008.0, (0, 0, 0, 1, 3)),
        (182.0, (2, 2, 2)),
        (756.0, (0, 0, 0, 2, 2)),
        (3108.0, (0, 0, 1, 1, 2)),
        (420.0, (0, 0, 0, 0, 0, 0, 2)),
        (798.0, (0, 1, 1, 1, 1)),
        (1260.0, (0, 0, 0, 0, 0, 1, 1)),
        (70.0, (0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    11: (
        (22.0, (0, 0, 8)),
        (198.0, (0, 0, 0, 0, 6)),
        (924.0, (0, 0, 0, 0, 0, 0, 4)),
        (506.0, (0, 4, 4)),
        (3036.0, (0, 0, 0, 3, 3)),
        (2310.0, (0, 0, 0, 0, 0, 0, 0, 0, 2)),
        (8316.0, (0, 0, 0, 0, 0, 2, 2)),
        (9372.0, (0, 0, 2, 2, 2)),
        (9240.0, (0, 0, 0, 0, 0, 0, 0, 1, 1)),
        (26796.0, (0, 0, 0, 1, 1, 1, 1)),
        (176.0, (0, 1, 7)),
        (484.0, (0, 2, 6)),
        (462.0, (1, 1, 6)),
        (836.0, (0, 3, 5)),
        (2376.0, (0, 0, 0, 1, 5)),
        (5016.0, (0, 0, 0, 2, 4)),
        (2706.0, (2, 2, 4)),
        (11220.0, (0, 0, 1, 1, 4)),
        (3498.0, (2, 3, 3)),
        (11088.0, (0, 0, 0, 0, 0, 1, 3)),
        (21120.0, (0, 1, 1, 1, 3)),
        (54516.0, (0, 0, 0, 0, 1, 1, 2)),
        (44748.0, (0, 1, 1, 2, 2)),
        (13398.0, (1, 1, 1, 1, 2)),
        (2376.0, (1, 2, 5)),
        (3696.0, (1, 3, 4)),
        (39336.0, (0, 0, 1, 2, 3)),
        (252.0, (0,) * 11),
    ),
}


def _check_order(order: int) -> None:
    if order not in ORDERS:
        raise ValueError(f"unsupported order {order!r}; expected one of {ORDERS}")


@dataclass(frozen=True)
class Velocities:
    delta: float
    gamma: float


@dataclass(frozen=True)
class BreatherParams:
    order: int
    alpha: float
    beta: float
    x1: float = 0.0
    x2: float = 0.0

    def __post_init__(self):
        _check_order(self.order)
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")

    def velocities(self) -> Velocities:
        return velocities(self.order, self.alpha, self.beta)


@dataclass(frozen=True)
class SolitonParams:
    order: int
    c: float

    def __post_init__(self):
        _check_order(self.order)
        if self.order == 11:
            raise ValueError("no soliton speed law is defined for order 11")
        if not self.c > 0:
            raise ValueError("c must be positive")

    def speed(self) -> float:
        return soliton_speed(self.order, self.c)


@dataclass(frozen=True)
class Jet:
    """Value, spatial derivatives 1..m, and d/dt of the antiderivative profile."""

    value: np.ndarray
    dx: np.ndarray
    dt_tilde: np.ndarray


def eval_velocity_terms(terms, alpha, beta):
    return sum(c * alpha**i * beta**j for c, i, j in terms)


def velocities(order: int, alpha, beta) -> Velocities:
    _check_order(order)
    dterms, gterms = VELOCITY_TERMS[order]
    return Velocities(eval_velocity_terms(dterms, alpha, beta),
                      eval_velocity_terms(gterms, alpha, beta))


def soliton_speed(order: int, c):
    _check_order(order)
    if order == 11:
        raise ValueError("no soliton speed law is defined for order 11")
    return c ** ((order - 1) // 2)


# --------------------------------------------------------------------------
# breather evaluation


def _breather_core(order, alpha, beta, x1, x2, t, x, nser, vel=None):
    """Series of G, F (plus velocities) at base points x, nser coefficients."""
    if vel is None:
        vel = velocities(order, alpha, beta)
    y1 = Series.variable(np.asarray(x) + vel.delta * t + x1, nser)
    y2 = Series.variable(np.asarray(x) + vel.gamma * t + x2, nser)
    s1, c1 = sin_cos(alpha * y1)
    sh2, ch2 = sinh_cosh(beta * y2)
    G = (beta / alpha) * s1
    F = ch2
    return G, F, s1, c1, sh2, ch2, vel


def breather_jet_raw(order, alpha, beta, x1, x2, t, x, m, vel=None) -> Jet:
    """breather_jet with unvalidated scalar parameters; alpha/beta may be complex
    (complex-step parameter derivatives)."""
    G, F, s1, c1, sh2, ch2, vel = _breather_core(
        order, alpha, beta, x1, x2, t, x, m + 2, vel)
    num = 2.0 * (G.deriv() * F - F.deriv() * G)
    den = G * G + F * F
    B = num / den.trunc(m + 1)
    derivs = B.derivatives(m)
    # Btilde_t = P/N with P, N in the cosh*cos / sinh*sin basis; equivalent to
    # delta d/dy1 + gamma d/dy2 applied to the antiderivative profile
    nval = alpha**2 * ch2.c[0] ** 2 + beta**2 * s1.c[0] ** 2
    pval = 2.0 * (alpha**2 * beta * vel.delta * ch2.c[0] * c1.c[0]
                  - alpha * beta**2 * vel.gamma * sh2.c[0] * s1.c[0])
    return Jet(value=derivs[0], dx=derivs[1:], dt_tilde=pval / nval)


def breather_jet(p: BreatherParams, t: float, x, m: int = 4) -> Jet:
    """B and its x-derivatives to order m (<= 9) plus Btilde_t at (t, x).

    Keep |beta (x + gamma t + x2)| below ~350: the cosh envelope factor
    overflows beyond that, so evaluation windows should track the core
    at x = -gamma t - x2.
    """
    if not 0 <= m <= 9:
        raise ValueError("jet order m must be in 0..9")
    return breather_jet_raw(p.order, p.alpha, p.beta, p.x1, p.x2, t, x, m)


def b_tilde(p: BreatherParams, t: float, x):
    """Antiderivative profile 2 arctan((beta/alpha) sin(alpha y1)/cosh(beta y2))."""
    vel = p.velocities()
    y1 = np.asarray(x) + vel.delta * t + p.x1
    y2 = np.asarray(x) + vel.gamma * t + p.x2
    return 2.0 * np.arctan((p.beta / p.alpha) * np.sin(p.alpha * y1) / np.cosh(p.beta * y2))


def breather_phase_derivatives(order, alpha, beta, x1, x2, t, x):
    """(B, dB/dx1, dB/dx2) on the grid x, in closed form.

    With S, C = sin, cos(alpha y1) and sh, ch = sinh, cosh(beta y2), the
    breather is B = 2N/D where N = beta C ch - (beta^2/alpha) S sh and
    D = (beta/alpha)^2 S^2 + ch^2; the phases enter only through y1 and y2,
    so the quotient rule gives dB/dx_i = 2 (N_i D - N D_i) / D^2.
    """
    vel = velocities(order, alpha, beta)
    x = np.asarray(x)
    ay1 = alpha * (x + vel.delta * t + x1)
    by2 = beta * (x + vel.gamma * t + x2)
    s, c = np.sin(ay1), np.cos(ay1)
    sh, ch = np.sinh(by2), np.cosh(by2)
    r = beta / alpha
    num = beta * (c * ch - r * s * sh)
    den = r * r * s * s + ch * ch
    num1 = -beta * (alpha * s * ch + beta * c * sh)
    num2 = beta * beta * (c * sh - r * s * ch)
    den1 = 2.0 * beta * r * s * c
    den2 = 2.0 * beta * ch * sh
    scale = 2.0 / (den * den)
    return (2.0 * num / den, scale * (num1 * den - num * den1),
            scale * (num2 * den - num * den2))


def partial_mass(p: BreatherParams, t: float, x):
    """Cumulative mass (1/2) int_{-inf}^x B^2 = beta + (1/2) d/dx log(G^2+F^2)."""
    G, F, *_ = _breather_core(p.order, p.alpha, p.beta, p.x1, p.x2, t, x, 2)
    D = G * G + F * F
    return p.beta + 0.5 * D.c[1] / D.c[0]


def partial_mass_t(p: BreatherParams, t: float, x):
    """Time derivative of the partial mass, (1/2) d/dx d/dt log(G^2 + F^2)."""
    G, F, s1, c1, sh2, ch2, vel = _breather_core(
        p.order, p.alpha, p.beta, p.x1, p.x2, t, x, 2)
    Gt = (p.beta * vel.delta) * c1
    Ft = (p.beta * vel.gamma) * sh2
    T = (2.0 * (G * Gt + F * Ft)) / (G * G + F * F)
    return 0.5 * T.c[1]


# --------------------------------------------------------------------------
# soliton evaluation


def soliton_jet_raw(order, c, t, x, m) -> Jet:
    v = soliton_speed(order, c)
    rc = np.sqrt(c)
    arg = rc * Series.variable(np.asarray(x) - v * t, m + 1)
    _, ch = sinh_cosh(arg)
    Q = rc / ch
    derivs = Q.derivatives(m)
    return Jet(value=derivs[0], dx=derivs[1:], dt_tilde=-v * derivs[0])


def soliton_jet(p: SolitonParams, t: float, x, m: int = 4) -> Jet:
    """Q_c(x - v t) and its x-derivatives to order m; dt_tilde = -v Q."""
    if not 0 <= m <= 9:
        raise ValueError("jet order m must be in 0..9")
    return soliton_jet_raw(p.order, p.c, t, x, m)


# --------------------------------------------------------------------------
# fluxes


def flux_terms(order: int):
    _check_order(order)
    return FLUX_TERMS[order]


@functools.lru_cache(maxsize=None)
def _horner_plan(terms):
    """Group a term list by its power of u, highest power first.

    Returns (groups, tail): each group is (gap, const, products), where gap
    is the drop in power from the previous group, const the summed
    coefficient of the terms that are a pure power of u, and products the
    (coefficient, other factor orders) of the rest; tail is the lowest power.
    """
    by_power = {}
    for coef, orders in terms:
        others = tuple(o for o in orders if o != 0)
        by_power.setdefault(len(orders) - len(others), []).append((coef, others))
    powers = sorted(by_power, reverse=True)
    groups = []
    for prev, p in zip(powers[:1] + powers, powers):
        const = sum(c for c, others in by_power[p] if not others)
        products = tuple((c, others) for c, others in by_power[p] if others)
        groups.append((prev - p, const, products))
    return tuple(groups), (powers[-1] if powers else 0)


def eval_flux_terms(terms, d):
    """Evaluate a term list on d = [u, u_x, u_xx, ...] (scalars or arrays of
    one shape, real or complex; a stacked 2-D array of rows works as is).

    The list is evaluated in Horner form, as a polynomial in u whose
    coefficients are products of the other factors, with the grouping cached
    per `terms` tuple.  Intermediates are updated in place; the inputs are
    never written.
    """
    groups, tail = _horner_plan(terms)
    d = np.asarray(d)
    u = d[0]
    acc = 0.0
    for gap, const, products in groups:
        for _ in range(gap):
            acc *= u
        if const:
            acc += const
        for coef, others in products:
            prod = coef * d[others[0]]
            for o in others[1:]:
                prod *= d[o]
            acc += prod
    for _ in range(tail):
        acc *= u
    return acc


def flux(order: int, jet: Jet):
    """f_{2n+1} evaluated on a jet (needs derivatives to order 2n-2)."""
    terms = flux_terms(order)
    need = max(max(orders) for _, orders in terms)
    if len(jet.dx) < need:
        raise ValueError(f"flux of order {order} needs a jet with {need} derivatives, "
                         f"got {len(jet.dx)}")
    return eval_flux_terms(terms, [jet.value, *jet.dx])
