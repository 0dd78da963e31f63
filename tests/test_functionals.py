import math
from dataclasses import replace

import numpy as np
import paper_tables as paper
import pytest

from mkdvlab import closed_forms as cf
from mkdvlab import functionals as fn

np.random.seed(23)

SWEEP = [(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]


def test_window_validation():
    with pytest.raises(ValueError):
        fn.Window(0.0, 10.0, 300)  # not a power of two
    with pytest.raises(ValueError):
        fn.Window(0.0, 10.0, 128)  # too few points
    with pytest.raises(ValueError):
        fn.Window(0.0, -1.0, 512)
    w = fn.Window(1.0, 20.0, 512)
    assert w.grid().shape == (512,)
    assert abs(w.grid()[0] - (-19.0)) < 1e-14
    assert abs(w.spacing - 40.0 / 512) < 1e-15


def test_quadrature_gaussian():
    w = fn.Window(0.0, 30.0, 1024)
    x = w.grid()
    assert abs(w.quad(np.exp(-(x**2))) - np.sqrt(np.pi)) < 1e-12


def test_require_window():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=0.5, x1=2.0)
    with pytest.raises(ValueError):
        fn.require_window(fn.Window(0.0, 30.0, 1024), p, 0.0)  # needs >= 42
    fn.require_window(fn.Window(0.0, 45.0, 1024), p, 0.0)
    # the offset of the centre from the envelope core counts too
    with pytest.raises(ValueError):
        fn.require_window(fn.Window(5.0, 45.0, 1024), p, 0.0)
    with pytest.raises(ValueError):
        fn.require_window(fn.Window(0.0, 45.0, 1024), p, 2.0)  # core 5.1
    fn.require_window(fn.Window(p.core(2.0), 45.0, 1024), p, 2.0)


def _tail(p, w):
    return fn._tail_fraction(np.fft.rfft(fn.sample_breather(p, 0.0, w,
                                                            m=0).values))


def test_resolved_window_keeps_the_resolved_grid():
    # every point of the 0.25-step grid of [0.5, 2]^2 is resolved at the
    # 1024-point floor (the worst tail 8.7e-11, at (2, 0.5)): the window is
    # the half width 28/beta + 2 about the core, at the floor
    grid = [0.5 + 0.25 * i for i in range(7)]
    for a in grid:
        for b in grid:
            assert (fn.resolved_window(cf.BreatherParams(5, a, b))
                    == fn.Window(0.0, 28.0 / b + 2.0, 1024)), (a, b)


@pytest.mark.parametrize("alpha,beta,n", [(4.0, 0.5, 1024), (1.0, 1.0, 512)])
def test_resolved_window_doubles_an_under_resolved_floor(alpha, beta, n):
    # tails 3.5e-8 and 1.3e-7 at the floor, 6e-15 and 9e-15 at twice it
    p = cf.BreatherParams(5, alpha, beta)
    w = fn.resolved_window(p, 0.0, n)
    assert w == fn.Window(0.0, 28.0 / beta + 2.0, 2 * n)
    assert _tail(p, replace(w, n_points=n)) > fn._RESOLUTION_TAIL
    assert _tail(p, w) <= fn._RESOLUTION_TAIL


def test_resolved_window_follows_the_core_and_the_decay():
    # the phases widen a breather's window and move its core; a soliton's
    # decay rate is sqrt(c), and its core rides at its speed
    p = cf.BreatherParams(5, 1.2, 0.8, x1=0.3, x2=-0.5)
    w = fn.resolved_window(p, 0.45)
    assert (w.center, w.half_width) == (p.core(0.45), 28.0 / 0.8 + 0.5 + 2.0)
    for c in (1.2, 2.0, 4.0):
        sp = cf.SolitonParams(5, c)
        w = fn.resolved_window(sp, 0.1)
        assert (w.center, w.half_width) == (0.1 * sp.speed(),
                                            28.0 / math.sqrt(c) + 2.0)


def test_mass_oracles():
    for c, want in [(1.0, 1.0), (0.25, 0.5), (4.0, 2.0)]:
        w = fn.Window(0.0, 30.0 / np.sqrt(c) + 5.0, 2048)
        f = fn.sample_soliton(cf.SolitonParams(order=3, c=c), 0.0, w)
        assert abs(fn.functional(f, "M") - want) < 1e-10
    f = fn.sample_breather(cf.BreatherParams(order=5, alpha=1.0, beta=2.0), 0.0)
    assert abs(fn.functional(f, "M") - 4.0) < 1e-10
    assert fn.functional(fn.zero_field(fn.Window(0.0, 20.0, 512)), "M") == 0.0


def test_energy_oracles():
    f = fn.sample_soliton(cf.SolitonParams(order=3, c=1.0), 0.0,
                          fn.Window(0.0, 35.0, 2048))
    assert abs(fn.functional(f, "E") + 1.0 / 3.0) < 1e-10
    f = fn.sample_breather(cf.BreatherParams(order=5, alpha=1.0, beta=1.0), 0.0)
    assert abs(fn.functional(f, "E") - 4.0 / 3.0) < 1e-10


def test_higher_energy_spot_values():
    f = fn.sample_breather(cf.BreatherParams(order=5, alpha=1.0, beta=1.0), 0.0)
    assert abs(fn.functional(f, "E5") + 8.0 / 5.0) < 1e-9
    f = fn.sample_breather(cf.BreatherParams(order=7, alpha=1.0, beta=1.0), 0.0)
    assert abs(fn.functional(f, "E7") + 16.0 / 7.0) < 1e-9


@pytest.mark.parametrize("order,kind", [(5, "E5"), (7, "E7"), (9, "E9"),
                                        (11, "E11")])
def test_higher_energy_closed_forms_sweep(order, kind):
    # the closed-form jet carries every derivative the density reads
    m = max(4, cf.max_order(cf.density(kind)))
    errs = {}
    for a, b in SWEEP:
        p = cf.BreatherParams(order=order, alpha=a, beta=b)
        f = fn.sample_breather(p, 0.0, fn.default_window(p, 0.0, n_points=4096),
                               m=m)
        want = fn.closed_form_energy(kind, a, b)
        errs[(a, b)] = abs(fn.functional(f, kind) - want) / max(1.0, abs(want))
    print(order, errs)
    assert max(errs.values()) < 1e-8


def test_term_scale_bounds_a_cancelling_density():
    # M has the one term u^2, so its scale is M itself; E9 cancels to 3e-7 of
    # its scale at (1, 1.75), and its quadrature misses the closed form by a
    # few ulps of the scale
    f = fn.sample_breather(cf.BreatherParams(9, 1.0, 1.75), 0.0)
    assert fn.term_scale(f, "M") == fn.functional(f, "M")
    e9, scale = fn.functional(f, "E9"), fn.term_scale(f, "E9")
    assert abs(e9) < 1e-6 * scale
    assert (abs(e9 - fn.closed_form_energy("E9", 1.0, 1.75))
            <= 8 * 2.0**-52 * scale)
    with pytest.raises(ValueError):
        fn.term_scale(f, "E4")


def test_default_window_resolves_the_carrier():
    # at alpha / beta >= 12, 2048 points alias the E5-E9 densities (6e5
    # ulps of term_scale for E9 at (6, 0.25)); the window doubles its points
    # to five per 1/alpha there, and keeps 2048 on the grid of [0.5, 2]^2
    grid = [0.5 + 0.25 * i for i in range(7)]
    for a in grid:
        for b in grid:
            p = cf.BreatherParams(5, a, b)
            assert fn.default_window(p, 0.0).n_points == 2048
    for a, b in [(6.0, 0.25), (4.0, 0.25), (6.0, 0.5)]:
        p = cf.BreatherParams(9, a, b)
        w = fn.default_window(p, 0.0)
        assert w.n_points > 2048 and a * w.spacing <= 0.2
        f = fn.sample_breather(p, 0.0)
        for kind in ("M", "E", "E5", "E7", "E9"):
            err = abs(fn.functional(f, kind) - fn.closed_form_energy(kind, a, b))
            assert err <= 8 * 2.0**-52 * fn.term_scale(f, kind), (a, b, kind)


def test_mass_energy_closed_forms_sweep():
    errs = {}
    for a, b in SWEEP:
        p = cf.BreatherParams(order=5, alpha=a, beta=b)
        f = fn.sample_breather(p, 0.37, fn.default_window(p, 0.37, n_points=4096))
        em = abs(fn.functional(f, "M") - fn.closed_form_energy("M", a, b))
        ee = abs(fn.functional(f, "E") - fn.closed_form_energy("E", a, b))
        errs[(a, b)] = max(em, ee) / max(1.0, abs(fn.closed_form_energy("E", a, b)))
    print(errs)
    assert max(errs.values()) < 1e-8


@pytest.mark.parametrize("order", [5, 7, 9])
def test_energy_reduction(order):
    e, red = fn.energy_reduction(order, 1.1, 0.9, t=0.2)
    print(order, e, red)
    assert abs(e - red) < 1e-8 * max(1.0, abs(e))
    # the opposite-sign variant for the 9th order fails by construction
    if order == 9:
        assert abs(e + red) > 1e-2 * abs(e)


@pytest.mark.parametrize("order", [5, 7, 9])
def test_energy_reduction_jet_rows_are_the_m4_rows(order):
    # the reduction samples its jet only to the derivative its density
    # reads; the rows it keeps are bitwise those of the m = 4 jet, and its
    # M_t is that of an m = 0 jet, so both columns are those of an m = 4
    # sample
    a, b, t = 1.1, 0.9, 0.2
    p = cf.BreatherParams(order, a, b)
    w = fn.default_window(p, t, n_points=4096)
    kind = cf.energy_kind(order)
    m = cf.max_order(cf.density(kind))
    assert m == {5: 2, 7: 3, 9: 4}[order]
    short = cf.breather_jet(p, t, w.grid(), m=m)
    full = cf.breather_jet(p, t, w.grid(), m=4)
    assert (short.value == full.value).all()
    assert (short.dx == full.dx[:m]).all()
    f = fn.sample_breather(p, t, w, m=4)
    want = (fn.functional(f, kind), fn.REDUCTION_FACTORS[order]
            * w.quad(cf.breather_jet_raw(order, a, b, 0.0, 0.0, t, w.grid(),
                                         0, mass=True).mass_t))
    assert fn.energy_reduction(order, a, b, t) == want


def test_a_field_with_a_jet_has_no_derivative_beyond_it():
    # E11 reads u_5x; from the FFT on an m = 4 sample of 4096 points it
    # missed the closed form by 3.0e-8 (1.9e-9 with m = 5), so it is refused
    p = cf.BreatherParams(11, 1.0, 2.0)
    f = fn.sample_breather(p, 0.0)
    assert (f.deriv(4) == f.derivs[3]).all()
    with pytest.raises(ValueError, match="derivative 5 .* 4 derivatives"):
        f.deriv(5)
    with pytest.raises(ValueError):
        fn.functional(f, "E11")
    # a field without a jet keeps its spectral derivatives
    bare = fn.SampledField(f.window, f.values)
    assert (bare.deriv(5)
            == fn.spectral_derivative(f.values, f.window, 5)).all()


def test_lyapunov_zero_field():
    f = fn.zero_field(fn.Window(0.0, 20.0, 512))
    assert fn.lyapunov(f, 1.0, 1.0) == 0.0


def test_functional_rejects_unknown_kind():
    # H is lyapunov's; the soliton combinations H0-H9 are gone
    f = fn.zero_field(fn.Window(0.0, 20.0, 512))
    for kind in ("H", "H5", "E4"):
        with pytest.raises(ValueError):
            fn.functional(f, kind)


def test_lyapunov_breather_stationary():
    p = cf.BreatherParams(order=5, alpha=1.2, beta=0.8)
    vals = []
    for t in (0.0, 0.37):
        f = fn.sample_breather(p, t)
        vals.append(fn.lyapunov(f, p.alpha, p.beta))
    print(vals)
    assert abs(vals[0] - vals[1]) < 1e-8 * max(1.0, abs(vals[0]))


def test_functional_time_invariance():
    rng = np.random.default_rng(11)
    p = cf.BreatherParams(order=7, alpha=1.0, beta=1.0, x1=0.1, x2=-0.2)
    times = rng.uniform(0.0, 1.0, 5)
    spreads = {}
    for kind in ("M", "E", "E7", "H"):
        vals = []
        for t in times:
            f = fn.sample_breather(p, t)
            vals.append(fn.lyapunov(f, p.alpha, p.beta) if kind == "H"
                        else fn.functional(f, kind))
        vals = np.array(vals)
        spreads[kind] = (vals.max() - vals.min()) / max(1.0, np.abs(vals).max())
    print(spreads)
    assert max(spreads.values()) < 1e-8


def test_quadrature_doubling():
    p = cf.BreatherParams(order=9, alpha=1.0, beta=0.5)
    rel = {}
    for kind in ("M", "E", "E9"):
        vals = []
        for n in (2048, 4096):
            f = fn.sample_breather(p, 0.1, fn.default_window(p, 0.1, n_points=n))
            vals.append(fn.functional(f, kind))
        rel[kind] = abs(vals[1] - vals[0]) / max(1.0, abs(vals[1]))
    print(rel)
    assert max(rel.values()) < 1e-10


def test_sobolev_norm():
    w = fn.Window(0.0, np.pi, 512)
    assert fn.sobolev_norm(fn.zero_field(w), 0) == 0.0
    u = np.sin(3.0 * w.grid())
    f = fn.SampledField(w, u)
    # Parseval: norm squared is half the window length
    assert abs(fn.sobolev_norm(f, 0) ** 2 - np.pi) < 1e-12
    assert abs(fn.sobolev_norm(f, 2) ** 2 - np.pi * (1 + 9) ** 2) < 1e-10
    sech = fn.sample_soliton(cf.SolitonParams(order=3, c=1.0), 0.0,
                             fn.Window(0.0, 35.0, 2048))
    assert fn.sobolev_norm(sech, 2) >= fn.sobolev_norm(sech, 0)
    with pytest.raises(ValueError):
        fn.sobolev_norm(sech, 3)


def test_sobolev_matches_quadrature():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=1.0)
    f = fn.sample_breather(p, 0.0)
    direct = np.sqrt(f.window.quad(f.values**2 + f.deriv(1) ** 2))
    assert abs(fn.sobolev_norm(f, 1) - direct) < 1e-10


def spectral_consistency(f: fn.SampledField) -> float:
    """Max relative mismatch between stored derivatives and FFT differentiation."""
    worst = 0.0
    for k in range(1, len(f.derivs) + 1):
        ref = fn.spectral_derivative(f.values, f.window, k)
        scale = max(1.0, float(np.max(np.abs(f.derivs[k - 1]))))
        worst = max(worst, float(np.max(np.abs(ref - f.derivs[k - 1]))) / scale)
    return worst


def test_sampled_field_spectral_consistency():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=1.0)
    f = fn.sample_breather(p, 0.2, m=4)
    err = spectral_consistency(f)
    print(err)
    assert err < 1e-8


def test_tail_warning():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=0.5)
    w = fn.Window(0.0, 12.0, 512)  # too narrow for beta = 0.5
    f = fn.sample_breather(p, 0.0, w)
    with pytest.warns(fn.TailWarning):
        fn.functional(f, "M")


def test_conjecture_comparison():
    # conjectured and lemma values disagree by exactly a sign; both reported
    for order in (3, 5, 7, 9):
        for a, b in [(1.0, 1.0), (2.0, 0.5), (0.5, 1.5)]:
            conj, lemma, scale = fn.higher_energy_conjecture(order, a, b)
            assert abs(conj + lemma) < 1e-12 * max(1.0, abs(lemma))
            assert abs(conj + lemma) <= 16 * 2.0**-52 * scale
            assert conj != 0.0 and scale >= abs(conj)


@pytest.mark.parametrize("alpha,beta", [(0.7, 1.3), (1.2, 0.8), (2.0, 0.5)])
def test_printed_quadratic_form_is_z_L_z(alpha, beta):
    # the printed density of Q[z] against int z L[z] of the linearization's
    # coefficients, on trigonometric z with exact derivatives.  Both are
    # integrals of smooth periodic data, equal up to rounding: each term
    # takes at most 8 roundings (6 factors, its coefficient, the z's), a
    # side sums at most 10 terms, and the quadrature's pairwise sum adds
    # log2(n); every rounding is relative to the summed size of the terms
    p = cf.BreatherParams(order=5, alpha=alpha, beta=beta)
    w = fn.default_window(p, 0.0)
    x = w.grid()
    printed = paper.quadratic_form(alpha, beta)
    linear = cf.breather_linearization(alpha, beta)
    coeffs = fn.linearization_coefficients(p, 0.0, w, None)
    B = fn.sample_breather(p, 0.0, w, m=2)
    jet = [B.deriv(k) for k in range(3)]
    rounds = 8 + 10 + math.log2(w.n_points)

    def size(terms, za, zb):
        return np.abs(za * zb) * cf.eval_flux_terms(
            tuple((abs(c), orders) for c, orders in terms), np.abs(jet))

    rng = np.random.default_rng(11)
    for _ in range(3):
        omega = 2.0 * np.pi / w.length * rng.integers(1, 9, size=4)
        amp, phase = rng.normal(size=4), rng.uniform(0, 2 * np.pi, size=4)
        z = [sum(a * o**j * np.cos(o * x + f + j * np.pi / 2)
                 for a, o, f in zip(amp, omega, phase)) for j in range(5)]
        q_printed = w.quad(sum(cf.eval_flux_terms(terms, jet) * z[j] * z[k]
                               for (j, k), terms in printed.items()))
        q_zlz = w.quad(z[0] * sum(c * z[k] for k, c in coeffs.items()))
        scale = w.quad(sum(size(terms, z[j], z[k])
                           for (j, k), terms in printed.items())
                       + sum(size(terms, z[0], z[k])
                             for k, terms in linear.items()))
        assert abs(q_printed - q_zlz) <= rounds * np.finfo(float).eps * scale


def _gaussian_z(w, eps):
    x = w.grid()
    g = np.exp(-((x - w.center) ** 2) / 2.0)
    f = fn.SampledField(w, g)
    return fn.SampledField(w, eps * g / fn.sobolev_norm(f, 2))


def test_expansion_remainder_zero():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=1.0)
    w = fn.default_window(p, 0.0)
    q, r = fn.expansion_remainder(p, fn.zero_field(w), 0.0)
    assert q == 0.0 and abs(r) < 1e-13


def test_expansion_remainder_cubic_ratio():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=1.0)
    w = fn.default_window(p, 0.0)
    eps = 1e-3
    _, r1 = fn.expansion_remainder(p, _gaussian_z(w, eps), 0.0)
    _, r2 = fn.expansion_remainder(p, _gaussian_z(w, 2 * eps), 0.0)
    ratio = r2 / r1
    print(r1, r2, ratio)
    assert 7.6 <= ratio <= 8.4


def test_expansion_remainder_size_guard():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=1.0)
    w = fn.default_window(p, 0.0)
    with pytest.raises(ValueError):
        fn.expansion_remainder(p, _gaussian_z(w, 0.5), 0.0)
