"""Residual checks for the profile ODEs, the evolution identities, the
product identities, and the readings tables of the two contested readings."""

import dataclasses

import numpy as np
import paper_tables as paper
import pytest

from mkdvlab import closed_forms as cf
from mkdvlab import identities as ide

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
    assert len(ide.soliton_samples(cf.SolitonParams(order, c))) >= 200


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
    terms = ((1.0, ("bt",)),) + cf.evolution_terms(9)
    readings = dict(ide.DELTA9_READINGS)
    pair = [(label, terms, readings[label])
            for label in ("printed-a3b6", "resolved-a2b6")]
    reps = ide.run_variants("evolution_delta", ide.DELTA9_BREATHER, pair)
    assert len(reps) == 2
    assert sum(r.normalized <= 1e-9 for r in reps) == 1
    # the even-exponent guess with the printed coefficient also fails
    swapped = ide.run_variants("evolution_delta", ide.DELTA9_BREATHER, [
        ("swapped-a6b2", terms, readings["swapped-a6b2"])])[0]
    print(f"swapped-a6b2 control: {swapped.normalized:.3e}")
    assert swapped.normalized > 1e-6


# --------------------------------------------------------------------------
# product identities


def _as_dict(terms):
    """{sorted symbols: coefficient}; the tags sort after the orders."""
    return {tuple(sorted(syms, key=str)): c for c, syms in terms}


@pytest.mark.parametrize("order,printed", [(5, paper.LEMMA21_5TH),
                                           (7, paper.LEMMA21_7TH)])
def test_lemma21_tables_are_the_printed_ones(order, printed):
    assert _as_dict(ide.lemma21_terms(order)) == _as_dict(printed)


def test_lemma21_9th_is_the_printed_table_with_a_local_f9():
    # the terms outside the printed local part are F9 = int -2 f9 B_x
    derived = _as_dict(ide.lemma21_terms(9))
    printed = _as_dict(paper.LEMMA21_9TH)
    assert {k: derived[k] for k in printed} == printed
    f9 = tuple((c, k) for k, c in derived.items() if k not in printed)
    print(f"F9: {len(f9)} terms, highest derivative {cf.max_order(f9)}")
    assert (len(f9), cf.max_order(f9)) == (14, 5)
    want = cf.combine((-2.0, [(c, (1,) + o) for c, o in cf.flux_terms(9)]))
    assert cf.d_dx(f9) == want


def test_firstmkdv_variants_restore_the_printed_reading():
    readings = dict(ide.FIRSTMKDV_READINGS)
    assert _as_dict(readings["printed"]) == _as_dict(paper.LEMMA21_7TH_PRINTED)
    assert readings["derived"] == ide.lemma21_terms(7)


@pytest.mark.parametrize("alpha,beta", [(1.1, 0.9), (0.7, 1.3), (1.5, 0.5)])
@pytest.mark.parametrize("order,printed", [(7, paper.corollary7),
                                           (9, paper.corollary9)])
def test_corollaries_are_the_printed_ones(order, printed, alpha, beta):
    derived = _as_dict(ide.corollary_terms(order, alpha, beta))
    want = _as_dict(printed(alpha, beta))
    largest = max(abs(c) for c in want.values())
    worst = max(abs(derived.get(k, 0.0) - want.get(k, 0.0))
                for k in derived.keys() | want.keys())
    print(f"order {order} ({alpha}, {beta}): {worst / largest:.2e}")
    assert worst <= 1e-12 * largest
    assert cf.max_order(ide.corollary_terms(order, alpha, beta)) == 3


@pytest.mark.parametrize("order", [5, 7, 9])
def test_corollary_terms_are_the_elimination_at_the_point(order):
    # one derivation per order, evaluated at a point, against the
    # elimination by that point's own breather equation
    for alpha, beta in [(1.1, 0.9), (0.7, 1.3), (1.5, 0.5), (0.5, 2.0),
                        (1.0, 1.0), (1.3, 1.3)]:
        got = _as_dict(ide.corollary_terms(order, alpha, beta))
        want = _as_dict(((1.0, ("bt",)),) + cf.eliminate(
            cf.evolution_terms(order), cf.breather_equation(alpha, beta)))
        largest = max(abs(c) for c in want.values())
        worst = max(abs(got.get(k, 0.0) - want.get(k, 0.0))
                    for k in got.keys() | want.keys())
        print(f"order {order} ({alpha}, {beta}): {worst / largest:.2e}")
        assert worst <= 1e-13 * largest
        if alpha == beta:
            # w_E = 0: its terms drop out of both, and the same ones
            assert got.keys() == want.keys()
            assert len(got) < len(ide.corollary_terms(order, alpha, 1.1))


def test_lemma21_5th():
    rep = ide.lemma21_residual(cf.BreatherParams(5, 1.0, 1.0), t=0.0)
    print(f"5th symmetric: normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-8
    rep = ide.lemma21_residual(_p(5))
    assert rep.normalized <= 1e-8
    assert rep.identity_id == "lemma21_5th"


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


def test_firstmkdv_readings_share_one_sample(monkeypatch):
    # the three readings read the breather's own velocities, so one jet of
    # FIRSTMKDV_BREATHER serves them all, and each residual is the one on a
    # sample of the reading's own
    p, jets = ide.FIRSTMKDV_BREATHER, []
    raw = cf.breather_jet_raw

    def counting(*args, **kwargs):
        jets.append(args[:6])
        return raw(*args, **kwargs)

    monkeypatch.setattr(cf, "breather_jet_raw", counting)
    reps = ide.adjudicate_firstmkdv()
    monkeypatch.undo()
    assert jets == [(p.order, p.alpha, p.beta, p.x1, p.x2, ide.CHECK_T)]
    samples = ide.breather_samples(p, ide.CHECK_T)
    assert reps == [ide._report("lemma21_7th", terms, ide._own_sample(
        p, ide.CHECK_T, terms, samples).data, label)
        for label, terms in ide.FIRSTMKDV_READINGS]


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.8), (1.1, 0.9)])
def test_lemma21_9th(alpha, beta):
    rep = ide.lemma21_residual(cf.BreatherParams(9, alpha, beta))
    print(f"9th ({alpha},{beta}): normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-7


def test_lemma21_validation():
    # the paper states the product identities at orders 5, 7 and 9
    with pytest.raises(ValueError):
        ide.lemma21_residual(_p(3), t=0.0)
    with pytest.raises(ValueError):
        ide.lemma21_residual(_p(11), t=0.0)


def test_lemma23():
    rep = ide.lemma23_residual(cf.BreatherParams(5, 1.0, 1.0), 0.0)
    assert rep.normalized <= 1e-10
    rep = ide.lemma23_residual(cf.BreatherParams(5, 3.0, 0.5), 1.1)
    print(f"(3, 0.5, t=1.1): normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-10
    with pytest.raises(ValueError):
        ide.lemma23_residual(_p(7), 0.0)


def test_corollary_7th():
    rep = ide.corollary_residual(cf.BreatherParams(7, 1.0, 1.0))
    print(f"7th symmetric: normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-9
    assert ide.corollary_residual(_p(7)).normalized <= 1e-9


def test_corollary_9th():
    rep = ide.corollary_residual(cf.BreatherParams(9, 0.7, 1.3))
    print(f"9th (0.7, 1.3): normalized {rep.normalized:.3e}")
    assert rep.normalized <= 1e-8
    assert rep.identity_id == "corollary_9th"


def test_corollary_validation():
    # the paper states the corollaries at orders 7 and 9
    with pytest.raises(ValueError):
        ide.corollary_residual(_p(5))
    with pytest.raises(ValueError):
        ide.corollary_residual(_p(11))


def test_corollary_coefficient_sensitivity():
    # perturbing one polynomial coefficient by 1% must visibly break the
    # identity; parameters where that term is a large share of rel_scale
    p = cf.BreatherParams(9, 1.5, 0.5)
    terms = ide.corollary_terms(9, 1.5, 0.5)
    edited = tuple((c * 1.01 if o == (0,) else c, o) for c, o in terms)
    assert sum(e != t for e, t in zip(edited, terms)) == 1
    exact, perturbed = ide.run_variants("corollary_9th", p, (
        ("derived", terms, None), ("a0-perturbed", edited, None)))
    print(f"a0 perturbed 1%: normalized {perturbed.normalized:.3e}")
    assert exact.sup_residual == ide.corollary_residual(p).sup_residual
    assert perturbed.normalized > 1e-3


# --------------------------------------------------------------------------
# invariance properties


def test_residuals_stable_across_times():
    np.random.seed(7)
    times = np.random.uniform(-1.0, 1.0, 5)
    cases = [
        lambda t: ide.breather_ode_residual(_p(7), t),
        lambda t: ide.evolution_identity_residual(_p(7), t),
        lambda t: ide.lemma23_residual(_p(5), t),
        lambda t: ide.lemma21_residual(_p(5), t),
        lambda t: ide.lemma21_residual(_p(9), t),
        lambda t: ide.corollary_residual(_p(7), t),
        lambda t: ide.corollary_residual(_p(9), t),
    ]
    for run in cases:
        vals = np.array([run(t).normalized for t in times])
        ratio = vals.max() / vals.min()
        print(f"{run(0.0).identity_id}: spread {ratio:.2f}")
        assert ratio <= 10.0


def test_sample_doubling_invariance():
    runs = (
        (_p(7), lambda p, samples=None: ide.evolution_identity_residual(
            p, samples=samples)),
        (_p(7), lambda p, samples=None: ide.breather_ode_residual(
            p, 0.37, samples=samples)),
    )
    for kwargs in (dict(n_cheb=512, n_peak=128), dict(radius_factor=2.0)):
        for p, run in runs:
            s = ide.breather_samples(p, 0.37, **kwargs)
            base = run(p).normalized
            dbl = run(p, samples=s).normalized
            print(f"{run(p).identity_id} {kwargs}: base {base:.3e} "
                  f"doubled {dbl:.3e}")
            assert dbl <= max(2.0 * base, EPS_FLOOR)


def test_grid_doubling_invariance_9th():
    # the order-9 product identity on doubled sample density and on a
    # doubled sampling radius
    p9 = _p(9)
    base = ide.lemma21_residual(p9).normalized
    dens = ide.lemma21_residual(p9, samples=ide.breather_samples(
        p9, 0.37, n_cheb=512, n_peak=128)).normalized
    wide = ide.lemma21_residual(p9, samples=ide.breather_samples(
        p9, 0.37, radius_factor=2.0)).normalized
    print(f"base {base:.3e} dens2x {dens:.3e} wide2x {wide:.3e}")
    assert dens <= max(2.0 * base, EPS_FLOOR)
    assert wide <= max(2.0 * base, EPS_FLOOR)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_parameter_scaling(lam):
    # alpha -> lam*alpha, beta -> lam*beta; the sampling window rescales as
    # x -> x/lam automatically, so normalized residuals stay flat
    p = cf.BreatherParams(7, 1.1 * lam, 0.9 * lam)
    assert ide.breather_ode_residual(p, 0.2).normalized <= 1e-10
    assert ide.evolution_identity_residual(p, 0.2).normalized <= 1e-9


def test_report_field_invariants():
    rep = ide.lemma23_residual(_p(5), 0.4)
    assert [f.name for f in dataclasses.fields(rep)] == [
        "identity_id", "sup_residual", "rel_scale", "variant"]
    assert (rep.identity_id, rep.variant) == ("lemma23", "verbatim")
    assert rep.normalized == rep.sup_residual / rep.rel_scale
    for sup, scale in ((-1.0, 1.0), (float("nan"), 1.0), (0.0, 0.0)):
        with pytest.raises(ValueError):
            ide.ResidualReport("x", sup, scale)


# --------------------------------------------------------------------------
# term evaluation and the shared sample


def _eval_terms_reference(terms, data):
    """The plain loop: every product starts from a constant array."""
    total, scale = 0.0, 0.0
    for coeff, syms in terms:
        prod = np.full_like(data[0], coeff)
        for s in syms:
            prod = prod * data[s]
        total = total + prod
        scale = max(scale, float(np.max(np.abs(prod))))
    return total, scale


def test_eval_terms_is_bitwise_the_plain_loop():
    rng = np.random.default_rng(5)
    data = {k: rng.standard_normal(257) * 10.0 ** rng.integers(-3, 4)
            for k in (*range(9), "bt", "mt")}
    terms = ((-0.37, ()), (2.5, (1,)), (1.0, ("bt",)), (-2.0, (0, "bt")),
             (2.0, ("mt",)), (7.0 / 3.0, (1, 1, 2, 4)), (-1e-3, (0, 0, 0)),
             (0.1, (3, "mt")))
    res, scale = ide._eval_terms(terms, data)
    ref, ref_scale = _eval_terms_reference(terms, data)
    assert (res == ref).all()
    assert scale == ref_scale
    # a constant-only list and the derived identity tables too
    for terms in (((4.0, ()),), ide.lemma21_terms(9),
                  ide.corollary_terms(7, 1.1, 0.9)):
        res, scale = ide._eval_terms(terms, data)
        ref, ref_scale = _eval_terms_reference(terms, data)
        assert (res == ref).all() and scale == ref_scale


def _checks_at(p):
    """The residual function of every check of p at CHECK_T."""
    checks = [lambda p, **kw: ide.breather_ode_residual(p, ide.CHECK_T,
                                                        **kw),
              ide.evolution_identity_residual]
    for orders, residual in ((ide.LEMMA21_ORDERS, ide.lemma21_residual),
                             (ide.LEMMA23_ORDERS, ide.lemma23_residual),
                             (ide.COROLLARY_ORDERS, ide.corollary_residual)):
        if p.order in orders:
            checks.append(residual)
    return checks


# The shared sample's jet runs to a higher order than a check's own, which
# changes the jet's row count and, through the matrix product of
# closed_forms._taylor, can move its lower rows by an ulp.  The residual,
# relative to its largest term, then moves by a few ulps of that term; at
# seven (alpha, beta) points per order the largest move is 0.66 eps (lemma23).
SHARED_SAMPLE_ROUNDING = 16 * np.finfo(float).eps


@pytest.mark.parametrize("order", cf.ORDERS)
def test_check_sample_serves_every_check_at_check_t(order):
    p = _p(order)
    shared = ide.check_sample(p)
    assert (shared.p, shared.t) == (p, ide.CHECK_T)
    for residual in _checks_at(p):
        on_shared, own = residual(p, sample=shared), residual(p)
        assert on_shared.identity_id == own.identity_id
        assert abs(on_shared.normalized - own.normalized) \
            <= SHARED_SAMPLE_ROUNDING, on_shared.identity_id
        # a second use of the same sample gives the same bits
        assert residual(p, sample=shared) == on_shared


def test_a_sample_to_a_checks_own_order_is_its_own_evaluation():
    # handing a residual a sample to exactly its own order is the same
    # evaluation as no sample at all
    def own(p, terms):
        return ide.breather_sample(p, ide.CHECK_T, cf.max_order(terms),
                                   any("mt" in s for _, s in terms))

    p5, p7 = _p(5), _p(7)
    assert ide.lemma23_residual(p5, sample=own(
        p5, ide.corollary_terms(5, p5.alpha, p5.beta))) \
        == ide.lemma23_residual(p5)
    assert ide.corollary_residual(p7, sample=own(
        p7, ide.corollary_terms(7, p7.alpha, p7.beta))) \
        == ide.corollary_residual(p7)
    assert ide.lemma21_residual(p7, sample=own(p7, ide.lemma21_terms(7))) \
        == ide.lemma21_residual(p7)


def test_a_shared_sample_must_fit_the_check():
    p = _p(9)
    shared = ide.check_sample(p)
    with pytest.raises(ValueError):      # another time
        ide.breather_ode_residual(p, 0.2, sample=shared)
    with pytest.raises(ValueError):      # another breather
        ide.evolution_identity_residual(_p(9, alpha=1.2), sample=shared)
    with pytest.raises(ValueError):      # samples and a sample at once
        ide.lemma21_residual(p, samples=ide.breather_samples(p, ide.CHECK_T),
                             sample=shared)
    short = ide.breather_sample(p, ide.CHECK_T, 4, False)
    with pytest.raises(KeyError):        # derivatives beyond the jet
        ide.evolution_identity_residual(p, sample=short)
    no_mass = ide.breather_sample(p, ide.CHECK_T, 8, False)
    with pytest.raises(KeyError):        # M_t not sampled
        ide.lemma21_residual(p, sample=no_mass)
