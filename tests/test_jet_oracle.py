"""Closed-form jets against an independent oracle: the same profiles built
from truncated Taylor arithmetic (series.py, kept here for tests only)."""

import numpy as np
import pytest
from series import Series, sin_cos, sinh_cosh

from mkdvlab import closed_forms as cf

# both sides of alpha = beta, and the diagonal itself
PARAMS = [(0.6, 1.4), (1.0, 1.0), (1.5, 0.7)]
T, X1, X2 = 0.013, 0.37, -0.52


def _core(order, alpha, beta, x1, x2, t, x, nser):
    vel = cf.velocities(order, alpha, beta)
    y1 = Series.variable(np.asarray(x) + vel.delta * t + x1, nser)
    y2 = Series.variable(np.asarray(x) + vel.gamma * t + x2, nser)
    s1, c1 = sin_cos(alpha * y1)
    sh2, ch2 = sinh_cosh(beta * y2)
    return (beta / alpha) * s1, ch2, s1, c1, sh2, ch2, vel


def oracle_breather(order, alpha, beta, x1, x2, t, x, m):
    """([B, B', ..., B^(m)], Btilde_t) from B = 2(G'F - F'G)/(G^2 + F^2)."""
    G, F, s1, c1, sh2, ch2, vel = _core(order, alpha, beta, x1, x2, t, x,
                                        m + 2)
    B = 2.0 * (G.deriv() * F - F.deriv() * G) / (G * G + F * F).trunc(m + 1)
    nval = alpha**2 * ch2.c[0] ** 2 + beta**2 * s1.c[0] ** 2
    pval = 2.0 * (alpha**2 * beta * vel.delta * ch2.c[0] * c1.c[0]
                  - alpha * beta**2 * vel.gamma * sh2.c[0] * s1.c[0])
    return B.derivatives(m), pval / nval


def _rows(jet):
    return np.array([jet.value, *jet.dx])


def _assert_rows_close(got, want, rel=1e-13):
    for k, (g, w) in enumerate(zip(got, want)):
        err = np.max(np.abs(g - w))
        assert err <= rel * np.max(np.abs(w)), (k, err)


def _grid(order, alpha, beta):
    # the core and both tails out to |beta y2| = 40
    core = -cf.velocities(order, alpha, beta).gamma * T - X2
    return core + np.linspace(-40.0, 40.0, 321) / beta


@pytest.mark.parametrize("order", cf.ORDERS)
@pytest.mark.parametrize("alpha,beta", PARAMS)
def test_breather_jets_match_series_oracle(order, alpha, beta):
    x = _grid(order, alpha, beta)
    for m in range(11):
        jet = cf.breather_jet_raw(order, alpha, beta, X1, X2, T, x, m)
        rows, bt = oracle_breather(order, alpha, beta, X1, X2, T, x, m)
        assert len(jet.dx) == m
        _assert_rows_close(_rows(jet), rows)
        _assert_rows_close([jet.dt_tilde], [bt], rel=1e-14)


@pytest.mark.parametrize("alpha,beta", PARAMS)
@pytest.mark.parametrize("which", ["alpha", "beta", "x1", "x2"])
def test_complex_step_jets_match_series_oracle(alpha, beta, which):
    h = 1e-20
    args = {"alpha": alpha, "beta": beta, "x1": X1, "x2": X2}
    args[which] += 1j * h
    order, x = 7, _grid(7, alpha, beta)
    jet = cf.breather_jet_raw(order, args["alpha"], args["beta"], args["x1"],
                              args["x2"], T, x, 5)
    rows, _ = oracle_breather(order, args["alpha"], args["beta"], args["x1"],
                              args["x2"], T, x, 5)
    _assert_rows_close(_rows(jet).imag / h, rows.imag / h)
    _assert_rows_close(_rows(jet).real, rows.real)


@pytest.mark.parametrize("order", (3, 5, 7, 9))
def test_soliton_jets_match_series_oracle(order):
    c, t = 1.7, 0.3
    x = cf.soliton_speed(order, c) * t + np.linspace(-30.0, 30.0, 241)
    for m in range(11):
        jet = cf.soliton_jet_raw(order, c, t, x, m)
        rc = np.sqrt(c)
        _, ch = sinh_cosh(rc * Series.variable(x - cf.soliton_speed(order, c)
                                               * t, m + 1))
        rows = (rc / ch).derivatives(m)
        _assert_rows_close(_rows(jet), rows)
        _assert_rows_close([jet.dt_tilde],
                           [-cf.soliton_speed(order, c) * rows[0]])


@pytest.mark.parametrize("order", cf.ORDERS)
@pytest.mark.parametrize("alpha,beta", PARAMS)
def test_partial_masses_match_series_oracle(order, alpha, beta):
    p = cf.BreatherParams(order, alpha, beta, x1=X1, x2=X2)
    x = _grid(order, alpha, beta)
    G, F, s1, c1, sh2, ch2, vel = _core(order, alpha, beta, X1, X2, T, x, 2)
    D = G * G + F * F
    want = beta + 0.5 * D.c[1] / D.c[0]
    got = cf.partial_mass(p, T, x)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    Gt = (beta * vel.delta) * c1
    Ft = (beta * vel.gamma) * sh2
    want_t = 0.5 * ((2.0 * (G * Gt + F * Ft)) / D).c[1]
    got_t = cf.breather_jet_raw(order, alpha, beta, X1, X2, T, x, 0,
                                mass=True).mass_t
    assert np.max(np.abs(got_t - want_t)) <= 1e-13 * np.max(np.abs(want_t))


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_jet_far_in_the_tail_is_finite(side):
    # cosh(2 beta y2) overflows only past |beta y2| ~ 354.9
    alpha, beta = 1.2, 0.8
    x = np.array([side * 340.0 / beta])
    jet = cf.breather_jet_raw(5, alpha, beta, 0.0, 0.0, 0.0, x, 9)
    rows = _rows(jet)
    assert np.all(np.isfinite(rows)) and np.isfinite(jet.dt_tilde).all()
    assert 0.0 < np.max(np.abs(rows)) < 1e-140
