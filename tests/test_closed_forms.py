import numpy as np
import pytest

from mkdvlab import closed_forms as cf
from mkdvlab.functionals import Window
from mkdvlab.spectral import directions

np.random.seed(17)

# delta, gamma at alpha = beta = 1 follow (1+i)^(2n+1) up to the sign flip
VEL_11 = {3: (-2.0, 2.0), 5: (4.0, 4.0), 7: (8.0, -8.0),
          9: (-16.0, -16.0), 11: (-32.0, 32.0)}


@pytest.mark.parametrize("order", cf.ORDERS)
def test_velocities_at_unit_params(order):
    v = cf.velocities(order, 1.0, 1.0)
    assert (v.delta, v.gamma) == VEL_11[order]


def test_velocities_spot_values():
    v = cf.velocities(7, 2.0, 0.5)
    assert v.delta == -11.359375
    assert v.gamma == 313.234375
    v = cf.velocities(9, 2.0, 0.5)
    # -256 + 36*64*0.25 - 126*16*0.0625 + 84*4*0.015625 - 9*0.00390625
    assert v.delta == -256 + 576 - 126 + 5.25 - 0.03515625
    v = cf.velocities(3, 0.5, 2.0)
    assert (v.delta, v.gamma) == (0.25 - 12.0, 0.75 - 4.0)


@pytest.mark.parametrize("order", cf.ORDERS)
def test_velocity_generating_relation(order):
    # (alpha + i beta)^(2n+1) = (-1)^(n+1) (alpha delta + i beta gamma)
    n = (order - 1) // 2
    errs = {}
    for alpha, beta in [(0.5, 0.5), (1.0, 2.0), (2.0, 0.5), (1.7, 0.3), (0.25, 3.0)]:
        lhs = (alpha + 1j * beta) ** order
        v = cf.velocities(order, alpha, beta)
        rhs = (-1.0) ** (n + 1) * (alpha * v.delta + 1j * beta * v.gamma)
        errs[(alpha, beta)] = abs(lhs - rhs) / abs(lhs)
    print(order, errs)
    assert max(errs.values()) < 1e-14


@pytest.mark.parametrize("order", cf.ORDERS)
def test_breather_value_at_origin(order):
    # with x1 = x2 = 0 the profile at t = 0, x = 0 is exactly 2 beta
    for alpha, beta in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
        p = cf.BreatherParams(order=order, alpha=alpha, beta=beta)
        j = cf.breather_jet(p, 0.0, 0.0, m=0)
        assert abs(j.value - 2.0 * beta) < 1e-14


def test_breather_even_at_t0():
    x = np.linspace(0.1, 6.0, 40)
    for order in cf.ORDERS:
        p = cf.BreatherParams(order=order, alpha=1.3, beta=0.6)
        jp = cf.breather_jet(p, 0.0, x, m=1)
        jm = cf.breather_jet(p, 0.0, -x, m=1)
        assert np.max(np.abs(jp.value - jm.value)) < 1e-13
        assert np.max(np.abs(jp.dx[0] + jm.dx[0])) < 1e-13
        # antiderivative profile is odd
        assert np.max(np.abs(cf.b_tilde(p, 0.0, x) + cf.b_tilde(p, 0.0, -x))) < 1e-13


def test_translation_covariance():
    x = np.linspace(-4, 4, 23)
    s = 0.83
    for order in (3, 7, 11):
        base = cf.BreatherParams(order=order, alpha=1.1, beta=0.9, x1=0.2, x2=-0.4)
        shifted = cf.BreatherParams(order=order, alpha=1.1, beta=0.9,
                                    x1=0.2 + s, x2=-0.4 + s)
        ja = cf.breather_jet(shifted, 0.37, x, m=3)
        jb = cf.breather_jet(base, 0.37, x + s, m=3)
        err = max(np.max(np.abs(ja.value - jb.value)),
                  np.max(np.abs(ja.dx - jb.dx)),
                  np.max(np.abs(ja.dt_tilde - jb.dt_tilde)))
        print(order, err)
        assert err < 1e-12


@pytest.mark.parametrize("order", cf.ORDERS)
def test_jet_derivatives_against_finite_differences(order):
    # central difference of dx[k] should reproduce dx[k+1]
    p = cf.BreatherParams(order=order, alpha=1.4, beta=0.8, x1=0.3, x2=-0.2)
    x = np.linspace(-5, 5, 11)
    h = 1e-6
    j0 = cf.breather_jet(p, 0.37, x, m=7)
    jp = cf.breather_jet(p, 0.37, x + h, m=6)
    jm = cf.breather_jet(p, 0.37, x - h, m=6)
    stack0 = np.concatenate(([j0.value], j0.dx))
    stackp = np.concatenate(([jp.value], jp.dx))
    stackm = np.concatenate(([jm.value], jm.dx))
    errs = {}
    for k in range(7):
        fd = (stackp[k] - stackm[k]) / (2 * h)
        scale = max(1.0, np.max(np.abs(stack0[k + 1])))
        errs[k] = np.max(np.abs(fd - stack0[k + 1])) / scale
    print(order, errs)
    assert max(errs.values()) < 1e-7


@pytest.mark.parametrize("order", cf.ORDERS)
def test_dt_tilde_matches_time_derivative(order):
    p = cf.BreatherParams(order=order, alpha=1.2, beta=0.7, x1=0.1, x2=0.5)
    x = np.linspace(-4, 4, 17)
    ht = 1e-7
    j = cf.breather_jet(p, 0.6, x, m=0)
    fd = (cf.b_tilde(p, 0.6 + ht, x) - cf.b_tilde(p, 0.6 - ht, x)) / (2 * ht)
    scale = max(1.0, np.max(np.abs(j.dt_tilde)))
    err = np.max(np.abs(fd - j.dt_tilde)) / scale
    print(order, err)
    assert err < 1e-7


def test_b_is_x_derivative_of_b_tilde():
    p = cf.BreatherParams(order=5, alpha=1.0, beta=1.0)
    x = np.linspace(-4, 4, 17)
    h = 1e-6
    fd = (cf.b_tilde(p, 0.5, x + h) - cf.b_tilde(p, 0.5, x - h)) / (2 * h)
    j = cf.breather_jet(p, 0.5, x, m=0)
    assert np.max(np.abs(fd - j.value)) < 1e-9


def test_parameter_derivative_complex_step():
    # imaginary perturbation of alpha gives dB/dalpha to machine accuracy;
    # cross-check against a central difference
    order, alpha, beta = 5, 1.1, 0.9
    x = np.linspace(-3, 3, 13)
    h, hfd = 1e-150, 1e-6
    jc = cf.breather_jet_raw(order, alpha + 1j * h, beta, 0.1, -0.2, 0.4, x, 2)
    cs = jc.value.imag / h
    jp = cf.breather_jet_raw(order, alpha + hfd, beta, 0.1, -0.2, 0.4, x, 2)
    jm = cf.breather_jet_raw(order, alpha - hfd, beta, 0.1, -0.2, 0.4, x, 2)
    fd = (jp.value - jm.value) / (2 * hfd)
    err = np.max(np.abs(cs - fd)) / max(1.0, np.max(np.abs(cs)))
    print(err)
    assert err < 1e-8


def test_partial_mass_limits():
    # measure distance from the envelope core at x = -gamma t - x2; cosh
    # overflows if evaluated a fixed distance from the origin instead
    for order in cf.ORDERS:
        p = cf.BreatherParams(order=order, alpha=1.5, beta=0.75, x1=0.4, x2=-0.3)
        v = p.velocities()
        t = 0.8
        core = -v.gamma * t - p.x2
        assert abs(cf.partial_mass(p, t, core - 60.0 / p.beta)) < 1e-12
        assert abs(cf.partial_mass(p, t, core + 60.0 / p.beta) - 2 * p.beta) < 1e-12


def test_partial_mass_against_cumulative_quadrature():
    from scipy.integrate import cumulative_simpson

    p = cf.BreatherParams(order=7, alpha=1.0, beta=1.0, x1=0.2, x2=0.1)
    t = 0.37
    v = p.velocities()
    lo = -v.gamma * t - p.x2 - 30.0
    hi = -v.gamma * t - p.x2 + 30.0
    x = np.linspace(lo, hi, 48001)
    j = cf.breather_jet(p, t, x, m=0)
    quad = cumulative_simpson(0.5 * j.value**2, x=x, initial=0.0)
    exact = cf.partial_mass(p, t, x)
    err = np.max(np.abs(quad - exact))
    print(err)
    assert err < 1e-8


def _jet_mass_t(p, t, x):
    # M_t, d/dt of the partial mass, as a jet asked for the mass holds it
    return cf.breather_jet_raw(p.order, p.alpha, p.beta, p.x1, p.x2, t, x, 0,
                               mass=True).mass_t


@pytest.mark.parametrize("order", cf.ORDERS)
def test_partial_mass_t(order):
    p = cf.BreatherParams(order=order, alpha=1.2, beta=0.8, x1=-0.1, x2=0.3)
    x = np.linspace(-5, 5, 21)
    ht = 1e-7
    pmt = _jet_mass_t(p, 0.45, x)
    fd = (cf.partial_mass(p, 0.45 + ht, x) - cf.partial_mass(p, 0.45 - ht, x)) / (2 * ht)
    scale = max(1.0, np.max(np.abs(pmt)))
    err = np.max(np.abs(pmt - fd)) / scale
    print(order, err)
    assert err < 1e-6


@pytest.mark.parametrize("order", cf.ORDERS)
def test_partial_mass_t_integral(order):
    # total time derivative of the cumulative mass integrates to 2 beta gamma
    p = cf.BreatherParams(order=order, alpha=1.1, beta=0.9)
    v = p.velocities()
    t = 0.2
    c = -v.gamma * t
    x = np.linspace(c - 45.0, c + 45.0, 4097)
    val = np.trapezoid(_jet_mass_t(p, t, x), x)
    want = 2.0 * p.beta * v.gamma
    print(order, val, want)
    assert abs(val - want) < 1e-8 * max(1.0, abs(want))


def _mass_t_reference(p, t, x):
    """M_t = (W'D - WD')/D^2 from its own pass over the phases."""
    S, C, sh, ch, vel = cf._phases(p.order, p.alpha, p.beta, p.x1, p.x2, t, x)
    a, b = p.alpha, p.beta
    r = b / a
    sin2, cos2 = 2.0 * S * C, C * C - S * S
    sinh2, cosh2 = 2.0 * sh * ch, ch * ch + sh * sh
    D = r * r * S * S + ch * ch
    D1 = r * b * sin2 + b * sinh2
    W = 0.5 * b * (r * vel.delta * sin2 + vel.gamma * sinh2)
    W1 = b * b * (vel.delta * cos2 + vel.gamma * cosh2)
    return (W1 * D - W * D1) / (D * D)


@pytest.mark.parametrize("order", cf.ORDERS)
def test_jet_mass_t_is_a_second_phase_pass_bitwise(order):
    # a jet asked for the mass takes M_t from its own phases, and gets the
    # bits of a second pass over them; the rest of the jet does not move
    p = cf.BreatherParams(order=order, alpha=1.3, beta=0.7, x1=0.2, x2=-0.1)
    x = np.linspace(-30.0, 30.0, 257)
    args = (order, p.alpha, p.beta, p.x1, p.x2, 0.37, x, 5)
    plain, with_mass = cf.breather_jet_raw(*args), cf.breather_jet_raw(
        *args, mass=True)
    want = _mass_t_reference(p, 0.37, x)
    assert plain.mass_t is None
    assert (with_mass.mass_t == want).all()
    assert (_jet_mass_t(p, 0.37, x) == want).all()
    assert (with_mass.value == plain.value).all()
    assert (with_mass.dx == plain.dx).all()
    assert (with_mass.dt_tilde == plain.dt_tilde).all()


FLUX_AT_UNIT_JET = {5: 26.0, 7: 412.0, 9: 9186.0, 11: 278024.0}
FLUX_AT_CONSTANT_ONE = {3: 2.0, 5: 6.0, 7: 20.0, 9: 70.0, 11: 252.0}


@pytest.mark.parametrize("order", cf.ORDERS)
def test_flux_frozen_values(order):
    terms = cf.flux_terms(order)
    if order in FLUX_AT_UNIT_JET:
        assert cf.eval_flux_terms(terms, [1.0] * (order - 2)) == FLUX_AT_UNIT_JET[order]
    d = [1.0] + [0.0] * (order - 3)
    assert cf.eval_flux_terms(terms, d) == FLUX_AT_CONSTANT_ONE[order]


def test_flux_odd_symmetry():
    rng = np.random.default_rng(3)
    for order in cf.ORDERS:
        d = rng.standard_normal(order - 2)
        terms = cf.flux_terms(order)
        a = cf.eval_flux_terms(terms, d)
        b = cf.eval_flux_terms(terms, -d)
        assert abs(a + b) < 1e-12 * max(1.0, abs(a))


def test_flux_needs_enough_derivatives():
    p = cf.BreatherParams(order=9, alpha=1.0, beta=1.0)
    j = cf.breather_jet(p, 0.0, 0.0, m=3)
    with pytest.raises(ValueError):
        cf.flux(9, j)
    j = cf.breather_jet(p, 0.0, 0.0, m=6)
    cf.flux(9, j)  # exactly enough


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_soliton_profile_ode(c):
    # Q'' - c Q + 2 Q^3 = 0 regardless of the hierarchy order carried along
    xs = np.linspace(-10, 10, 81)
    for order in (3, 5, 7, 9):
        sp = cf.SolitonParams(order=order, c=c)
        j = cf.soliton_jet(sp, 0.3, xs, m=2)
        res = j.dx[1] - c * j.value + 2.0 * j.value**3
        assert np.max(np.abs(res)) < 1e-12 * max(1.0, c**1.5)


def test_soliton_speed_law():
    assert cf.soliton_speed(3, 2.0) == 2.0
    assert cf.soliton_speed(5, 2.0) == 4.0
    assert cf.soliton_speed(7, 2.0) == 8.0
    assert cf.soliton_speed(9, 2.0) == 16.0
    with pytest.raises(ValueError):
        cf.soliton_speed(11, 2.0)
    with pytest.raises(ValueError):
        cf.SolitonParams(order=11, c=1.0)


def test_soliton_dt_tilde():
    sp = cf.SolitonParams(order=5, c=2.0)
    x = np.linspace(-6, 6, 25)
    j = cf.soliton_jet(sp, 0.7, x, m=1)
    assert np.max(np.abs(j.dt_tilde + 4.0 * j.value)) < 1e-13


def test_parameter_validation():
    with pytest.raises(ValueError):
        cf.BreatherParams(order=4, alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        cf.BreatherParams(order=5, alpha=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        cf.velocities(6, 1.0, 1.0)
    p = cf.BreatherParams(order=5, alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        cf.breather_jet(p, 0.0, 0.0, m=10)


# --------------------------------------------------------------------------
# closed-form breather and phase derivatives, against the jets


# both sides of alpha = beta, and the diagonal itself
PHASE_PARAMS = [(1.0, 1.0), (0.6, 1.4), (1.5, 0.7), (0.8, 1.1), (1.3, 0.9)]


@pytest.mark.parametrize("order", cf.ORDERS)
@pytest.mark.parametrize("alpha,beta", PHASE_PARAMS)
def test_breather_phase_derivatives_match_jets(order, alpha, beta):
    # the window the stability runs use, at nonzero time and phases
    w = Window(0.0, 30.0, 1024)
    x, t = w.grid(), 0.013
    p = cf.BreatherParams(order, alpha, beta, x1=0.37, x2=-0.52)
    B, d1, d2 = cf.breather_phase_derivatives(order, alpha, beta, p.x1, p.x2,
                                              t, x)
    jet = cf.breather_jet_raw(order, alpha, beta, p.x1, p.x2, t, x, 1)
    dirs = directions(p, t, w)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    assert close(B, jet.value)
    # complex-step jets in x1 and x2
    assert close(d1, dirs.B1)
    assert close(d2, dirs.B2)
    # both phases ride on x, so their derivatives add up to d/dx
    assert close(d1 + d2, jet.dx[0])
