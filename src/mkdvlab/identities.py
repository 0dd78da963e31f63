"""Residual verification of the nonlinear identities satisfied by breathers
and solitons, with a variant facility that adjudicates suspect terms
empirically.

Every identity is a list of terms (coefficient, symbols); a symbol is either
an integer k for the k-th x-derivative of the profile (0 for the profile
itself) or one of the tags "bt" (time derivative of the antiderivative
profile) and "mt" (time derivative of the partial mass).  Reports carry the
sup of the residual over the sample set together with rel_scale, the sup of
the largest constituent term, so thresholds are meaningful across parameter
sweeps.  Every identity is derived from closed_forms, through the
evolution identity Btilde_t + evolution_terms = 0 and the breather
equation: the product identities of Lemma 2.1 are
-2 int B_x (evolution identity), by `closed_forms.integrate`; the
corollaries, and Lemma 2.3 at order 5, are the evolution identity with
every u_{kx}, k >= 4, eliminated by the breather equation
(`closed_forms.eliminate`).  The paper's printed tables are the test oracle.

Two printed readings are contested and settled here by variant runs: the
delta exponent in the 9th-order velocity pair, and one term (plus one
coefficient) of the 7th-order product identity.  The shipped defaults are
the readings that pass; the canned variant suites below reproduce the
adjudication.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import closed_forms as cf


@dataclass(frozen=True)
class ResidualReport:
    identity_id: str
    params: dict
    sample_spec: str
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

    def to_json_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": dict(self.params),
            "sup_residual": self.sup_residual,
            "rel_scale": self.rel_scale,
            "samples": self.sample_spec,
            "variant": self.variant,
        }


@dataclass(frozen=True)
class IdentityVariant:
    """term_substitutions: tuple of (term_index, coeff) or
    (term_index, coeff, symbols); an empty tuple reproduces the verbatim run.

    For the identity "evolution_delta" the substitutions target the delta
    velocity monomials (coeff, alpha_exp, beta_exp) of the 9th-order pair
    instead of residual terms.
    """

    identity_id: str
    term_substitutions: tuple = ()
    label: str = "verbatim"


def _substitute(terms, subs):
    terms = list(terms)
    for sub in subs:
        if len(sub) not in (2, 3):
            raise ValueError(f"malformed substitution {sub!r}")
        idx, coeff, syms = sub if len(sub) == 3 else (*sub, None)
        if not 0 <= idx < len(terms):
            raise ValueError(f"substitution index {idx} out of range")
        old = terms[idx]
        if syms is None:
            syms = old[1]
        else:
            syms = tuple(syms)
            if cf.max_order([(coeff, syms)]) > cf.max_order([old]):
                raise ValueError("substitution raises the differential order")
            old_special = sorted(s for s in old[1] if not isinstance(s, int))
            new_special = sorted(s for s in syms if not isinstance(s, int))
            if old_special != new_special:
                raise ValueError("substitution may not change bt/mt terms")
        terms[idx] = (float(coeff), syms)
    return tuple(terms)


def _eval_terms(terms, data):
    """(residual array, rel_scale) for a term list over sampled data."""
    total = 0.0
    scale = 0.0
    for coeff, syms in terms:
        prod = np.full_like(data[0], coeff)
        for s in syms:
            prod = prod * data[s]
        total = total + prod
        scale = max(scale, float(np.max(np.abs(prod))))
    return total, scale


# --------------------------------------------------------------------------
# sampling

def _cheb_samples(core, radius, peak, t, n_cheb, n_peak):
    """Chebyshev nodes over the decay window + a cluster at the core."""
    def nodes(r, n):
        return core + r * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    x = np.sort(np.concatenate([nodes(radius, n_cheb), nodes(peak, n_peak)]))
    spec = (f"cheb{n_cheb}+peak{n_peak} radius={radius:.6g} "
            f"core={core:.6g} t={t:.6g}")
    return x, spec


def breather_samples(p: cf.BreatherParams, t: float, n_cheb: int = 256,
                     n_peak: int = 64,
                     radius_factor: float = 1.0) -> tuple[np.ndarray, str]:
    radius = (20.0 / p.beta + max(abs(p.x1), abs(p.x2)) + 2.0) * radius_factor
    return _cheb_samples(p.core(t), radius, 2.0 / p.beta, t, n_cheb, n_peak)


def soliton_samples(sp: cf.SolitonParams, t: float, n_cheb: int = 256,
                    n_peak: int = 64,
                    radius_factor: float = 1.0) -> tuple[np.ndarray, str]:
    radius = (20.0 / np.sqrt(sp.c) + 2.0) * radius_factor
    return _cheb_samples(sp.speed() * t, radius, 2.0 / np.sqrt(sp.c), t,
                         n_cheb, n_peak)


def _jet_data(jet: cf.Jet) -> dict:
    return {0: jet.value, "bt": jet.dt_tilde,
            **{k: d for k, d in enumerate(jet.dx, start=1)}}


def _report(ident, params, spec, terms, data, variant="verbatim"):
    res, scale = _eval_terms(terms, data)
    return ResidualReport(ident, params, spec, float(np.max(np.abs(res))),
                          scale, variant)


def _breather_report(ident, p, t, terms, variant, samples, vel=None):
    """Residual of a term list on the breather at the standard samples."""
    x, spec = samples if samples is not None else breather_samples(p, t)
    data = _jet_data(cf.breather_jet_raw(p.order, p.alpha, p.beta, p.x1, p.x2,
                                         t, x, cf.max_order(terms), vel=vel))
    if any("mt" in syms for _, syms in terms):
        data["mt"] = cf.partial_mass_t(p, t, x)
    params = {"order": p.order, "alpha": p.alpha, "beta": p.beta,
              "x1": p.x1, "x2": p.x2, "t": t}
    return _report(ident, params, spec, terms, data, variant)


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
    breather equation.  At order 5 it is Lemma 2.3."""
    return ((1.0, ("bt",)),) + cf.eliminate(cf.evolution_terms(order),
                                           cf.breather_equation(alpha, beta))


# --------------------------------------------------------------------------
# residual operations

def soliton_ode_residual(p: cf.SolitonParams, level: str = "2nd",
                         t: float = 0.0, samples=None) -> ResidualReport:
    """Second-order profile equation, or the order-matched high ODE."""
    if level == "2nd":
        terms = ((1.0, (2,)), (-p.c, (0,)), (2.0, (0, 0, 0)))
    elif level == "high":
        terms = ((-p.speed(), (0,)),) + cf.evolution_terms(p.order)
    else:
        raise ValueError(f"unknown level {level!r}")
    x, spec = samples if samples is not None else soliton_samples(p, t)
    jet = cf.soliton_jet_raw(p.order, p.c, t, x, cf.max_order(terms))
    return _report(f"soliton_ode_{level}",
                   {"order": p.order, "c": p.c, "t": t, "level": level}, spec,
                   terms, _jet_data(jet))


def breather_ode_residual(p: cf.BreatherParams, t: float,
                          substitutions=(), variant="verbatim",
                          samples=None) -> ResidualReport:
    """Fourth-order stationary equation; holds for every order at fixed t."""
    terms = _substitute(cf.breather_equation(p.alpha, p.beta), substitutions)
    return _breather_report("breather_ode", p, t, terms, variant, samples)


def evolution_identity_residual(p: cf.BreatherParams, t: float = 0.37,
                                substitutions=(), variant="verbatim",
                                vel: cf.Velocities | None = None,
                                samples=None) -> ResidualReport:
    terms = _substitute(((1.0, ("bt",)),) + cf.evolution_terms(p.order),
                        substitutions)
    return _breather_report("evolution_identity", p, t, terms, variant,
                            samples, vel)


def evolution_delta_residual(p: cf.BreatherParams, t: float = 0.37,
                             substitutions=(), variant="verbatim") -> ResidualReport:
    """Evolution identity with substituted delta-velocity monomials."""
    dterms, gterms = cf.VELOCITY_TERMS[p.order]
    dterms = list(dterms)
    for sub in substitutions:
        if len(sub) != 2 or len(sub[1]) != 3:
            raise ValueError(f"malformed velocity substitution {sub!r}")
        idx, mono = sub
        if not 0 <= idx < len(dterms):
            raise ValueError(f"velocity substitution index {idx} out of range")
        dterms[idx] = (float(mono[0]), int(mono[1]), int(mono[2]))
    vel = cf.Velocities(cf.eval_velocity_terms(dterms, p.alpha, p.beta),
                        cf.eval_velocity_terms(gterms, p.alpha, p.beta))
    rep = evolution_identity_residual(p, t, vel=vel, variant=variant)
    return replace(rep, identity_id="evolution_delta")


def lemma21_residual(p: cf.BreatherParams, t: float = 0.37,
                     substitutions=(), variant="verbatim",
                     samples=None) -> ResidualReport:
    """Product identity of the breather's order (`lemma21_terms`)."""
    _check_identity_order(p, LEMMA21_ORDERS)
    terms = _substitute(lemma21_terms(p.order), substitutions)
    return _breather_report(f"lemma21_{p.order}th", p, t, terms, variant,
                            samples)


def lemma23_residual(p: cf.BreatherParams, t: float = 0.37,
                     substitutions=(), variant="verbatim",
                     samples=None) -> ResidualReport:
    """First-order-in-time identity; holds for 5th-order breathers only."""
    _check_identity_order(p, LEMMA23_ORDERS)
    # Btilde_t = d(mu E + c M)/du: the evolution identity has u_4x + f5 =
    # dE5/du, and the breather equation is d(E5 + mu E + c M)/du = 0
    terms = _substitute(corollary_terms(5, p.alpha, p.beta), substitutions)
    return _breather_report("lemma23", p, t, terms, variant, samples)


def corollary_residual(p: cf.BreatherParams, t: float = 0.37,
                       substitutions=(), variant="verbatim",
                       samples=None) -> ResidualReport:
    """Corollary of the breather's order (`corollary_terms`)."""
    _check_identity_order(p, COROLLARY_ORDERS)
    terms = _substitute(corollary_terms(p.order, p.alpha, p.beta),
                        substitutions)
    return _breather_report(f"corollary_{p.order}th", p, t, terms, variant,
                            samples)


# --------------------------------------------------------------------------
# variant adjudication

# printed 9th-order delta monomial has an odd alpha power; the replacement
# candidates keep the even-exponent structure of every other velocity pair
DELTA9_VARIANTS = (
    IdentityVariant("evolution_delta", ((3, (84.0, 3, 6)),), "printed-a3b6"),
    IdentityVariant("evolution_delta", ((3, (84.0, 6, 2)),), "swapped-a6b2"),
    IdentityVariant("evolution_delta", ((3, (84.0, 2, 6)),), "resolved-a2b6"),
)

# 7th-order product identity, against the derived -2 B_xx B_4x (index 3 of
# lemma21_terms(7)) and 21 B_x^4 (index 8): the printed reading has the term
# -2 B_xx^2 B_4x and the coefficient 7; the degree fix keeps only the 7
FIRSTMKDV_VARIANTS = (
    IdentityVariant("lemma21_7th",
                    ((3, -2.0, (2, 2, 4)), (8, 7.0, (1, 1, 1, 1))), "printed"),
    IdentityVariant("lemma21_7th", ((8, 7.0, (1, 1, 1, 1)),), "degree-fixed"),
    IdentityVariant("lemma21_7th", (), "derived"),
)

# the breather of each identity's variant runs, at t = 0.37
_CANONICAL = {
    "evolution_identity": cf.BreatherParams(9, 1.3, 0.7, 0.2, -0.1),
    "evolution_delta": cf.BreatherParams(9, 1.3, 0.7, 0.2, -0.1),
    **{name: cf.BreatherParams(order, 1.1, 0.9, 0.15, -0.25)
       for name, order in [("breather_ode", 5), ("lemma23", 5)]
       + [(f"lemma21_{o}th", o) for o in LEMMA21_ORDERS]
       + [(f"corollary_{o}th", o) for o in COROLLARY_ORDERS]},
}


def run_variants(base: str, variants, p: cf.BreatherParams | None = None,
                 t: float | None = None) -> list[ResidualReport]:
    """One report per variant on identical samples; an empty list runs the
    verbatim identity.  Deterministic ordering, duplicate in -> duplicate out."""
    if base not in _CANONICAL:
        raise ValueError(f"no variant support for identity {base!r}")
    p0 = _CANONICAL[base] if p is None else p
    t0 = 0.37 if t is None else t
    kind = base.removesuffix(f"_{_CANONICAL[base].order}th")
    if kind != base:
        _check_identity_order(p0, (_CANONICAL[base].order,))
    # looked up per call, so that a wrapped module function is the one run
    residual = {"breather_ode": breather_ode_residual,
                "evolution_identity": evolution_identity_residual,
                "evolution_delta": evolution_delta_residual,
                "lemma21": lemma21_residual, "lemma23": lemma23_residual,
                "corollary": corollary_residual}[kind]
    reports = []
    for v in variants or [IdentityVariant(base)]:
        if v.identity_id != base:
            raise ValueError(f"variant for {v.identity_id!r} passed to {base!r}")
        reports.append(residual(p0, t0, tuple(v.term_substitutions), v.label))
    return reports


def adjudicate_delta9(p: cf.BreatherParams | None = None,
                      t: float | None = None) -> list[ResidualReport]:
    return run_variants("evolution_delta", DELTA9_VARIANTS, p, t)


def adjudicate_firstmkdv(p: cf.BreatherParams | None = None,
                         t: float | None = None) -> list[ResidualReport]:
    return run_variants("lemma21_7th", FIRSTMKDV_VARIANTS, p, t)
