"""Residual verification of the nonlinear identities satisfied by breathers
and solitons, and of the two contested readings of the paper's tables.

Every identity is a list of terms (coefficient, symbols); a symbol is either
an integer k for the k-th x-derivative of the profile (0 for the profile
itself) or one of the tags "bt" (time derivative of the antiderivative
profile) and "mt" (time derivative of the partial mass).  The sample set is
a plain array of nodes (`breather_samples`, `soliton_samples`).  Sampling
the breather is kept apart from evaluating a term list on it: a
BreatherSample is one jet of one breather at one time, and every check of a
breather at CHECK_T reads the one sample `check_sample` takes, one per
(point, time), to the highest derivative any of them reads.  A
ResidualReport holds the identity's id, the sup of the residual over the
samples, rel_scale (the sup of the largest constituent term, so thresholds
are meaningful across parameter sweeps) and the label of the reading it
evaluates ("verbatim" outside the readings tables).  Every identity is
derived from closed_forms, through the evolution identity
Btilde_t + evolution_terms = 0 and the breather equation: the product
identities of Lemma 2.1 are -2 int B_x (evolution identity), by
`closed_forms.integrate`; the corollaries, and Lemma 2.3 at order 5, are
the evolution identity with every u_{kx}, k >= 4, eliminated by the
breather equation, derived once per order with coefficients polynomial in
the breather's weights (`closed_forms.reduced_evolution_terms`) and
evaluated per point.  The paper's printed tables are the test oracle.

Two printed readings are contested: the delta exponent in the 9th-order
velocity pair, and one term (plus one coefficient) of the 7th-order product
identity.  Each has a readings table, DELTA9_READINGS and
FIRSTMKDV_READINGS, of (label, candidate) pairs, and `run_variants` reports
every reading's residual on one breather; exactly one reading of each, the
shipped one, passes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import closed_forms as cf


@dataclass(frozen=True)
class ResidualReport:
    identity_id: str
    sup_residual: float
    rel_scale: float
    variant: str = "verbatim"

    def __post_init__(self):
        if not self.sup_residual >= 0:
            raise ValueError("sup_residual must be nonnegative")
        if not self.rel_scale > 0:
            raise ValueError("rel_scale must be positive")

    @property
    def normalized(self) -> float:
        return self.sup_residual / self.rel_scale


def _eval_terms(terms, data):
    """(residual array, rel_scale) for a term list over sampled data."""
    total = 0.0
    scale = 0.0
    for coeff, syms in terms:
        if syms:
            prod = coeff * data[syms[0]]
            for s in syms[1:]:
                prod *= data[s]
        else:
            prod = np.full_like(data[0], coeff)
        total += prod
        scale = max(scale, float(np.abs(prod).max()))
    return total, scale


# --------------------------------------------------------------------------
# sampling

@functools.lru_cache(maxsize=None)
def _cheb_nodes(n: int) -> np.ndarray:
    """The n Chebyshev nodes on [-1, 1], which no breather enters; read-only."""
    nodes = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    nodes.flags.writeable = False
    return nodes


def _cheb_samples(core, radius, peak, n_cheb, n_peak):
    """Chebyshev nodes over the decay window + a cluster at the core."""
    return np.sort(np.concatenate([core + radius * _cheb_nodes(n_cheb),
                                   core + peak * _cheb_nodes(n_peak)]))


def breather_samples(p: cf.BreatherParams, t: float, n_cheb: int = 256,
                     n_peak: int = 64,
                     radius_factor: float = 1.0) -> np.ndarray:
    radius = (20.0 / p.beta + max(abs(p.x1), abs(p.x2)) + 2.0) * radius_factor
    return _cheb_samples(p.core(t), radius, 2.0 / p.beta, n_cheb, n_peak)


def soliton_samples(sp: cf.SolitonParams) -> np.ndarray:
    """The soliton's samples at t = 0, where its core is at the origin."""
    return _cheb_samples(0.0, 20.0 / np.sqrt(sp.c) + 2.0, 2.0 / np.sqrt(sp.c),
                         256, 64)


def _jet_data(jet: cf.Jet) -> dict:
    data = {0: jet.value, "bt": jet.dt_tilde,
            **{k: d for k, d in enumerate(jet.dx, start=1)}}
    if jet.mass_t is not None:
        data["mt"] = jet.mass_t
    return data


class BreatherSample(NamedTuple):
    """The breather p at time t on one set of nodes, as the data every
    breather term list reads: B and its x-derivatives 1..m under 0..m,
    Btilde_t under "bt" and, if sampled with the mass, M_t under "mt".
    (A NamedTuple: every suite imports this module, and a frozen dataclass
    takes about 1 ms more to create.)"""
    p: cf.BreatherParams
    t: float
    data: dict


def breather_sample(p: cf.BreatherParams, t: float, m: int, mass: bool,
                    samples=None, vel=None) -> BreatherSample:
    """One jet of the breather to order m at the samples, by default the
    standard ones; vel replaces the breather's velocities in the jet, not
    in the samples.  With mass, M_t comes from the same jet: from its
    phases, under vel when vel is given."""
    x = samples if samples is not None else breather_samples(p, t)
    jet = cf.breather_jet_raw(p.order, p.alpha, p.beta, p.x1, p.x2, t, x, m,
                              vel=vel, mass=mass)
    return BreatherSample(p, t, _jet_data(jet))


def _own_sample(p, t, terms, samples, vel=None) -> BreatherSample:
    """A sample of p at t for one term list alone: to its highest
    derivative, with M_t if it reads it."""
    return breather_sample(p, t, cf.max_order(terms),
                           any("mt" in syms for _, syms in terms), samples,
                           vel)


def _report(ident, terms, data, variant="verbatim"):
    res, scale = _eval_terms(terms, data)
    return ResidualReport(ident, float(np.max(np.abs(res))), scale, variant)


def _breather_report(ident, p, t, terms, samples, sample):
    """Residual of a term list on the breather p at time t.  Evaluating
    terms is kept apart from sampling the breather: sample, if given, is a
    sample of p at t that several term lists share (CHECK_T's, one per
    (point, time)); otherwise the term list gets a sample of its own at
    the samples."""
    if sample is None:
        sample = _own_sample(p, t, terms, samples)
    elif samples is not None or (sample.p, sample.t) != (p, t):
        raise ValueError("a shared sample must be of the breather and time "
                         "checked, and replaces the samples")
    return _report(ident, terms, sample.data)


# --------------------------------------------------------------------------
# identity term lists

# the orders at which the paper states each identity
LEMMA21_ORDERS = (5, 7, 9)
LEMMA23_ORDERS = (5,)
COROLLARY_ORDERS = (7, 9)


def _check_identity_order(p: cf.BreatherParams, orders: tuple) -> None:
    if p.order not in orders:
        raise ValueError(f"the identity is stated for orders {orders}, "
                         f"got order {p.order}")


@functools.lru_cache(maxsize=None)
def lemma21_terms(order: int):
    """Product identity: -2 int B_x (evolution identity).

    -2 B_x Btilde_t integrates by parts to -2 B Btilde_t + 2 M_t, M the
    partial mass; u_x (u_{(order-1)x} + f) = +-u_x dE/du is a total
    derivative (Noether for translations), so the rest is local.  The sign
    makes the u_{nx}^2 term +1, n = (order - 1)/2, as in the paper."""
    local = cf.integrate(cf.product(((-2.0, (1,)),), cf.evolution_terms(order)))
    n = (order - 1) // 2
    sign = 1.0 / next(c for c, o in local if o == (n, n))
    return ((-2.0 * sign, (0, "bt")), (2.0 * sign, ("mt",)),
            *cf.scale(sign, local))


def corollary_terms(order: int, alpha: float, beta: float):
    """The evolution identity with every u_{kx}, k >= 4, eliminated by the
    breather equation.  At order 5 it is Lemma 2.3.  The elimination is
    derived once per order (`cf.reduced_evolution_terms`); only its
    coefficients are evaluated at (alpha, beta)."""
    return ((1.0, ("bt",)),) + cf.at_weights(cf.reduced_evolution_terms(order),
                                             alpha, beta)


# --------------------------------------------------------------------------
# residual operations

# the default time of the breather identity checks, and the time at which
# the two contested readings are checked
CHECK_T = 0.37


def soliton_ode_residual(p: cf.SolitonParams,
                         level: str = "2nd") -> ResidualReport:
    """Second-order profile equation, or the order-matched high ODE, at
    t = 0 and the soliton's samples."""
    if level == "2nd":
        terms = ((1.0, (2,)), (-p.c, (0,)), (2.0, (0, 0, 0)))
    elif level == "high":
        terms = ((-p.speed(), (0,)),) + cf.evolution_terms(p.order)
    else:
        raise ValueError(f"unknown level {level!r}")
    jet = cf.soliton_jet_raw(p.order, p.c, 0.0, soliton_samples(p),
                             cf.max_order(terms))
    return _report(f"soliton_ode_{level}", terms, _jet_data(jet))


def check_sample(p: cf.BreatherParams) -> BreatherSample:
    """The one sample of p at CHECK_T that every check of p there reads:
    the jet to the breather equation's 4th derivative or the evolution
    identity's (order - 1)th, whichever is higher (no product identity or
    corollary reads beyond it), and M_t at the orders of a product
    identity."""
    return breather_sample(p, CHECK_T, max(4, p.order - 1),
                           p.order in LEMMA21_ORDERS)


# Each residual below samples the breather on its own, or reads sample, a
# BreatherSample of p at t (`check_sample` at CHECK_T) shared with the
# other checks of p at that time.

def breather_ode_residual(p: cf.BreatherParams, t: float, samples=None,
                          sample=None) -> ResidualReport:
    """Fourth-order stationary equation; holds for every order at fixed t."""
    return _breather_report("breather_ode", p, t,
                            cf.breather_equation(p.alpha, p.beta), samples,
                            sample)


def evolution_identity_residual(p: cf.BreatherParams, t: float = CHECK_T,
                                samples=None,
                                sample=None) -> ResidualReport:
    terms = ((1.0, ("bt",)),) + cf.evolution_terms(p.order)
    return _breather_report("evolution_identity", p, t, terms, samples,
                            sample)


def lemma21_residual(p: cf.BreatherParams, t: float = CHECK_T,
                     samples=None, sample=None) -> ResidualReport:
    """Product identity of the breather's order (`lemma21_terms`)."""
    _check_identity_order(p, LEMMA21_ORDERS)
    return _breather_report(f"lemma21_{p.order}th", p, t,
                            lemma21_terms(p.order), samples, sample)


def lemma23_residual(p: cf.BreatherParams, t: float = CHECK_T,
                     sample=None) -> ResidualReport:
    """First-order-in-time identity; holds for 5th-order breathers only."""
    _check_identity_order(p, LEMMA23_ORDERS)
    # Btilde_t = d(mu E + c M)/du: the evolution identity has u_4x + f5 =
    # dE5/du, and the breather equation is d(E5 + mu E + c M)/du = 0
    return _breather_report("lemma23", p, t,
                            corollary_terms(5, p.alpha, p.beta), None, sample)


def corollary_residual(p: cf.BreatherParams, t: float = CHECK_T,
                       sample=None) -> ResidualReport:
    """Corollary of the breather's order (`corollary_terms`)."""
    _check_identity_order(p, COROLLARY_ORDERS)
    return _breather_report(f"corollary_{p.order}th", p, t,
                            corollary_terms(p.order, p.alpha, p.beta), None,
                            sample)


# --------------------------------------------------------------------------
# the two contested readings, each on its own breather at CHECK_T

DELTA9_BREATHER = cf.BreatherParams(9, 1.3, 0.7, 0.2, -0.1)
FIRSTMKDV_BREATHER = cf.BreatherParams(7, 1.1, 0.9, 0.15, -0.25)


def _replace_term(terms, index, term):
    return terms[:index] + (term,) + terms[index + 1:]


def _delta9_velocities(mono) -> cf.Velocities:
    """DELTA9_BREATHER's velocities with mono, a delta monomial (coefficient,
    alpha exponent, beta exponent), at index 3 of the 9th-order pair."""
    dterms, gterms = cf.VELOCITY_TERMS[9]
    a, b = DELTA9_BREATHER.alpha, DELTA9_BREATHER.beta
    return cf.Velocities(
        cf.eval_velocity_terms(_replace_term(dterms, 3, mono), a, b),
        cf.eval_velocity_terms(gterms, a, b))


# printed 9th-order delta monomial has an odd alpha power; the replacement
# candidates keep the even-exponent structure of every other velocity pair
DELTA9_READINGS = tuple((label, _delta9_velocities(mono)) for label, mono in (
    ("printed-a3b6", (84.0, 3, 6)), ("swapped-a6b2", (84.0, 6, 2)),
    ("resolved-a2b6", (84.0, 2, 6))))


# 7th-order product identity, against the derived -2 B_xx B_4x (index 3 of
# lemma21_terms(7)) and 21 B_x^4 (index 8): the printed reading has the term
# -2 B_xx^2 B_4x and the coefficient 7; the degree fix keeps only the 7
_DEGREE_FIXED = _replace_term(lemma21_terms(7), 8, (7.0, (1, 1, 1, 1)))
FIRSTMKDV_READINGS = (
    ("printed", _replace_term(_DEGREE_FIXED, 3, (-2.0, (2, 2, 4)))),
    ("degree-fixed", _DEGREE_FIXED),
    ("derived", lemma21_terms(7)),
)


def run_variants(ident: str, p: cf.BreatherParams,
                 runs) -> list[ResidualReport]:
    """One report of identity `ident` per (label, terms, vel) run, in order,
    on the breather p at CHECK_T and its standard samples; vel replaces
    p's velocities in the jet, or is None.  The runs with p's own
    velocities share one sample, to the highest derivative any reads."""
    samples = breather_samples(p, CHECK_T)
    own = sum((terms for _, terms, vel in runs if vel is None), ())
    shared = own and _own_sample(p, CHECK_T, own, samples)
    return [_report(ident, terms, (shared if vel is None else _own_sample(
                p, CHECK_T, terms, samples, vel)).data, label)
            for label, terms, vel in runs]


def adjudicate_delta9() -> list[ResidualReport]:
    """The evolution identity under each of DELTA9_READINGS' velocities."""
    terms = ((1.0, ("bt",)),) + cf.evolution_terms(9)
    return run_variants("evolution_delta", DELTA9_BREATHER,
                        [(label, terms, vel) for label, vel in DELTA9_READINGS])


def adjudicate_firstmkdv() -> list[ResidualReport]:
    """Each of FIRSTMKDV_READINGS as the 7th-order product identity."""
    return run_variants("lemma21_7th", FIRSTMKDV_BREATHER,
                        [(label, terms, None)
                         for label, terms in FIRSTMKDV_READINGS])
