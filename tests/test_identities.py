"""Residual checks for the profile ODEs, the evolution identities, the
product identities, and the variant machinery that adjudicates the two
contested readings."""

import json
from dataclasses import replace

import numpy as np
import pytest

from mkdvlab import closed_forms as cf
from mkdvlab import identities as ide
from mkdvlab.functionals import default_window
from mkdvlab.spectral import spectral_window

# rounding-noise floor: exact identities evaluate to ~1e-16*rel_scale and the
# sup over more samples can pick up a slightly larger rounding outlier
EPS_FLOOR = 5e-15


def _p(order, alpha=1.1, beta=0.9, x1=0.15, x2=-0.25):
    return cf.BreatherParams(order, alpha, beta, x1, x2)


# --------------------------------------------------------------------------
# soliton ODEs


@pytest.mark.parametrize("c", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("order", [3, 5, 7, 9])
def test_soliton_second_order_ode(order, c):
    rep = ide.soliton_ode_residual(cf.SolitonParams(order, c), "2nd")
    print(f"order {order} c={c}: sup {rep.sup_residual:.3e}")
    assert rep.sup_residual <= 1e-12 * max(1.0, c**1.5)
    assert len(ide.soliton_samples(cf.SolitonParams(order, c), 0.0)[0]) >= 200


@pytest.mark.parametrize("order,c,tol", [
    (3, 1.0, 1e-10), (5, 2.0, 1e-10), (7, 1.0, 1e-10), (7, 0.5, 1e-10),
    (9, 0.25, 1e-9), (9, 2.0, 1e-9),
])
def test_soliton_high_order_ode(order, c, tol):
    rep = ide.soliton_ode_residual(cf.SolitonParams(order, c), "high")
    print(f"order {order} c={c}: normalized {rep.normalized:.3e}")
    assert rep.normalized <= tol
    assert rep.identity_id == "soliton_ode_high"


def test_soliton_ode_level_validation():
    with pytest.raises(ValueError):
        ide.soliton_ode_residual(cf.SolitonParams(5, 1.0), "3rd")


# --------------------------------------------------------------------------
# fourth-order stationary equation


@pytest.mark.parametrize("order,alpha,beta,t", [
    (3, 1.0, 1.0, 0.0),
    (9, 2.0, 0.5, 0.7),
    (11, 1.0, 2.0, 0.3),
])
def test_breather_ode_spot(order, alpha, beta, t):
    rep = ide.breather_ode_residual(cf.BreatherParams(order, alpha, beta), t)
    print(f"order {order}: normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-10


@pytest.mark.parametrize("order", cf.ORDERS)
@pytest.mark.parametrize("t", [0.0, 0.37])
def test_breather_ode_all_orders(order, t):
    rep = ide.breather_ode_residual(_p(order), t)
    assert rep.normalized <= 1e-10


def test_breather_ode_order_independent():
    # same (alpha, beta, x1, x2) at t=0 gives the same spatial profile for
    # every order, so the reports must agree bitwise
    reps = [ide.breather_ode_residual(
        cf.BreatherParams(o, 1.2, 0.8, 0.3, -0.4), 0.0) for o in cf.ORDERS]
    sups = {r.sup_residual for r in reps}
    scales = {r.rel_scale for r in reps}
    print(f"unique sups {sups}, scales {scales}")
    assert len(sups) == 1
    assert len(scales) == 1


# --------------------------------------------------------------------------
# evolution identities


@pytest.mark.parametrize("order", cf.ORDERS)
def test_evolution_identity_symmetric(order):
    rep = ide.evolution_identity_residual(cf.BreatherParams(order, 1.0, 1.0))
    print(f"order {order}: normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-9


@pytest.mark.parametrize("order", cf.ORDERS)
def test_evolution_identity_asymmetric(order):
    # order 11 passing here certifies the shipped 28-term flux list
    rep = ide.evolution_identity_residual(
        cf.BreatherParams(order, 1.3, 0.7, 0.2, -0.1))
    assert rep.normalized <= 1e-9


def test_delta9_adjudication():
    reps = ide.adjudicate_delta9()
    for r in reps:
        print(f"{r.variant}: normalized {r.normalized:.3e}")
    passing = [r.variant for r in reps if r.normalized <= 1e-9]
    assert passing == ["resolved-a2b6"]


def test_delta9_two_variant_run():
    # printed reading vs its resolution: two reports, exactly one passes
    pair = (ide.DELTA9_VARIANTS[0], ide.DELTA9_VARIANTS[2])
    reps = ide.run_variants("evolution_delta", pair)
    assert len(reps) == 2
    assert sum(r.normalized <= 1e-9 for r in reps) == 1
    # the even-exponent guess with the printed coefficient also fails
    swapped = ide.run_variants("evolution_delta", (ide.DELTA9_VARIANTS[1],))[0]
    print(f"swapped-a6b2 control: {swapped.normalized:.3e}")
    assert swapped.normalized > 1e-6


# --------------------------------------------------------------------------
# product identities


def test_lemma21_5th():
    rep = ide.lemma21_residual(cf.BreatherParams(5, 1.0, 1.0), "5th", t=0.0)
    print(f"5th symmetric: normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-8
    rep = ide.lemma21_residual(_p(5), "5th")
    assert rep.normalized <= 1e-8


def test_firstmkdv_adjudication():
    reps = ide.adjudicate_firstmkdv()
    for r in reps:
        print(f"{r.variant}: normalized {r.normalized:.3e}")
    by_label = {r.variant: r.normalized for r in reps}
    # neither the printed form nor the minimal degree fix closes the identity
    assert by_label["printed"] > 1e-3
    assert by_label["degree-fixed"] > 1e-3
    passing = [r.variant for r in reps if r.normalized <= 1e-8]
    assert passing == ["derived"]


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.8), (1.1, 0.9)])
def test_lemma21_9th(alpha, beta):
    rep = ide.lemma21_residual(cf.BreatherParams(9, alpha, beta), "9th")
    print(f"9th ({alpha},{beta}): normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-7


def test_lemma21_validation():
    with pytest.raises(ValueError):
        ide.lemma21_residual(_p(5), "7th", t=0.0)
    with pytest.raises(ValueError):
        ide.lemma21_residual(_p(5), "11th", t=0.0)


def test_lemma23():
    rep = ide.lemma23_residual(cf.BreatherParams(5, 1.0, 1.0), 0.0)
    assert rep.normalized <= 1e-10
    rep = ide.lemma23_residual(cf.BreatherParams(5, 3.0, 0.5), 1.1)
    print(f"(3, 0.5, t=1.1): normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-10
    with pytest.raises(ValueError):
        ide.lemma23_residual(_p(7), 0.0)


def test_corollary_7th():
    rep = ide.corollary_residual(cf.BreatherParams(7, 1.0, 1.0), "7th")
    print(f"7th symmetric: normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-9
    assert ide.corollary_residual(_p(7), "7th").normalized <= 1e-9


def test_corollary_9th():
    rep = ide.corollary_residual(cf.BreatherParams(9, 0.7, 1.3), "9th")
    print(f"9th (0.7, 1.3): normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-8


def test_corollary_validation():
    with pytest.raises(ValueError):
        ide.corollary_residual(_p(9), "7th")
    with pytest.raises(ValueError):
        ide.corollary_residual(_p(7), "5th")


def test_corollary_coefficient_sensitivity():
    # perturbing one polynomial coefficient by 1% must visibly break the
    # identity; parameters where that term is a large share of rel_scale
    p = cf.BreatherParams(9, 1.5, 0.5)
    a0 = ide._corollary9_terms(1.5, 0.5)[1][0]
    rep = ide.corollary_residual(p, "9th", substitutions=((1, a0 * 1.01),),
                                 variant="a0-perturbed")
    print(f"a0 perturbed 1%: normalized {rep.normalized:.3e}")
    assert rep.normalized > 1e-3


# --------------------------------------------------------------------------
# invariance properties


def test_residuals_stable_across_times():
    np.random.seed(7)
    times = np.random.uniform(-1.0, 1.0, 5)
    cases = [
        lambda t: ide.breather_ode_residual(_p(7), t),
        lambda t: ide.evolution_identity_residual(_p(7), t),
        lambda t: ide.lemma23_residual(_p(5), t),
        lambda t: ide.lemma21_residual(_p(5), "5th", t),
        lambda t: ide.lemma21_residual(_p(9), "9th", t),
        lambda t: ide.corollary_residual(_p(7), "7th", t),
        lambda t: ide.corollary_residual(_p(9), "9th", t),
    ]
    for run in cases:
        vals = np.array([run(t).normalized for t in times])
        ratio = vals.max() / vals.min()
        print(f"{run(0.0).identity_id}: spread {ratio:.2f}")
        assert ratio <= 10.0


def test_sample_doubling_invariance():
    p7 = _p(7)
    for kwargs in (dict(n_cheb=512, n_peak=128), dict(radius_factor=2.0)):
        s = ide.breather_samples(p7, 0.37, **kwargs)
        base = ide.evolution_identity_residual(p7).normalized
        dbl = ide.evolution_identity_residual(p7, samples=s).normalized
        print(f"{kwargs}: base {base:.3e} doubled {dbl:.3e}")
        assert dbl <= max(2.0 * base, EPS_FLOOR)
        base = ide.breather_ode_residual(p7, 0.37).normalized
        dbl = ide.breather_ode_residual(p7, 0.37, samples=s).normalized
        assert dbl <= max(2.0 * base, EPS_FLOOR)


def test_grid_doubling_invariance_9th():
    p9 = _p(9)
    base = ide.lemma21_residual(p9, "9th").normalized
    w = default_window(p9, 0.37, n_points=8192)
    dens = ide.lemma21_residual(p9, "9th", window=w).normalized
    wide = ide.lemma21_residual(
        p9, "9th", window=replace(w, half_width=2.0 * w.half_width)).normalized
    print(f"base {base:.3e} dens2x {dens:.3e} wide2x {wide:.3e}")
    assert dens <= max(2.0 * base, 1e-13)
    assert wide <= max(2.0 * base, 1e-13)


def test_cumulative_integral_is_the_partial_mass():
    # the Fourier antiderivative behind the 9th-order F9 term, against the
    # closed-form partial mass (1/2) int_{-inf}^x B^2
    p = cf.BreatherParams(5, 1.2, 0.8, 0.1, -0.2)
    w = spectral_window(p, 0.0, n_points=1024)
    x = w.grid()
    B = cf.breather_jet(p, 0.0, x, m=0).value
    got = ide._cumulative_integral(0.5 * B**2, w)
    want = cf.partial_mass(p, 0.0, x) - cf.partial_mass(p, 0.0, x[:1])
    scale = np.max(np.abs(want))
    print(f"error {np.max(np.abs(got - want)):.3e} on scale {scale:.3g}")
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_parameter_scaling(lam):
    # alpha -> lam*alpha, beta -> lam*beta; the sampling window rescales as
    # x -> x/lam automatically, so normalized residuals stay flat
    p = cf.BreatherParams(7, 1.1 * lam, 0.9 * lam)
    assert ide.breather_ode_residual(p, 0.2).normalized <= 1e-10
    assert ide.evolution_identity_residual(p, 0.2).normalized <= 1e-9


# --------------------------------------------------------------------------
# variant machinery


def test_run_variants_empty_gives_verbatim():
    reps = ide.run_variants("lemma23", ())
    assert len(reps) == 1
    assert reps[0].variant == "verbatim"
    assert reps[0].normalized <= 1e-10


def test_run_variants_duplicates():
    v = ide.DELTA9_VARIANTS[2]
    reps = ide.run_variants("evolution_delta", (v, v))
    assert len(reps) == 2
    assert reps[0].sup_residual == reps[1].sup_residual
    assert reps[0].sample_spec == reps[1].sample_spec


def test_run_variants_validation():
    with pytest.raises(ValueError):
        ide.run_variants("no_such_identity", ())
    wrong = ide.IdentityVariant("lemma23", (), "misrouted")
    with pytest.raises(ValueError):
        ide.run_variants("breather_ode", (wrong,))


def test_substitution_validation():
    p = _p(5)
    with pytest.raises(ValueError):
        ide.breather_ode_residual(p, 0.0, substitutions=((0,),))
    with pytest.raises(ValueError):
        ide.breather_ode_residual(p, 0.0, substitutions=((99, 1.0),))
    # raising the differential order is rejected
    with pytest.raises(ValueError):
        ide.breather_ode_residual(p, 0.0, substitutions=((0, 1.0, (5,)),))
    # swapping a time-derivative tag for a spatial term is rejected
    with pytest.raises(ValueError):
        ide.lemma23_residual(p, 0.0, substitutions=((0, 1.0, (0,)),))
    # coefficient-only and order-preserving substitutions are accepted
    rep = ide.breather_ode_residual(p, 0.0, substitutions=((0, 2.0),),
                                    variant="doubled-leading")
    assert rep.normalized > 1e-3


def test_report_serialization():
    rep = ide.lemma23_residual(_p(5), 0.4)
    d = rep.to_json_dict()
    assert set(d) == {"identity_id", "params", "sup_residual", "rel_scale",
                      "samples", "variant"}
    blob = json.dumps(d, sort_keys=True)
    assert json.loads(blob)["identity_id"] == "lemma23"
    assert json.loads(blob)["params"]["order"] == 5


def test_report_field_invariants():
    with pytest.raises(ValueError):
        ide.ResidualReport("x", {}, "s", -1.0, 1.0)
    with pytest.raises(ValueError):
        ide.ResidualReport("x", {}, "s", 0.0, 0.0)
