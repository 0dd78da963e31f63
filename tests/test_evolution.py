import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mkdvlab import cli
from mkdvlab import closed_forms as cf
from mkdvlab import evolution as ev
from mkdvlab.functionals import (SampledField, Window, sample_breather,
                                 sample_soliton, sobolev_norm)

N_SMALL = 256


def small_config(order, dt=1e-4, t_end=0.0, pad=None, window=None):
    return ev.EvolutionConfig(order=order,
                              window=window or Window(0.0, 30.0, N_SMALL),
                              dt=dt, t_end=t_end,
                              dealias_pad=pad or ev.exact_dealias_pad(order))


def term_by_term(terms, d):
    total = 0.0
    for coef, orders in terms:
        prod = coef
        for o in orders:
            prod = prod * d[o]
        total = total + prod
    return total


def term_scale(terms, d):
    """Sum of |term|: the size that bounds the rounding of any evaluation order."""
    total = 0.0
    for coef, orders in terms:
        prod = abs(coef)
        for o in orders:
            prod = prod * np.abs(d[o])
        total = total + prod
    return total


def per_derivative_nonlinear(vhat, cfg):
    """The stepper's nonlinear term built the plain way: one irfft per
    derivative over a freshly zeroed padded spectrum, term-by-term products,
    one rfft.  Valid for inputs with an empty Nyquist bin, where the padded
    lift has no convention to choose."""
    w = cfg.window
    n, pad = w.n_points, cfg.dealias_pad
    n_pad = pad * n
    kr = 2.0 * np.pi * np.fft.rfftfreq(n, d=w.spacing)
    kp = 2.0 * np.pi * np.fft.rfftfreq(n_pad, d=w.length / n_pad)
    terms = cf.flux_terms(cfg.order)
    max_deriv = max(max(orders) for _, orders in terms)
    padded = np.zeros(n_pad // 2 + 1, dtype=complex)
    padded[: n // 2 + 1] = vhat * pad
    d = [np.fft.irfft(padded * (1j * kp) ** j, n=n_pad)
         for j in range(max_deriv + 1)]
    fhat = np.fft.rfft(term_by_term(terms, d))[: n // 2 + 1] / pad
    mult = -1j * kr
    mult[-1] = 0.0
    return mult * fhat


# --------------------------------------------------------------------------
# Horner flux evaluator


@pytest.mark.parametrize("order", cf.ORDERS)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_horner_flux_matches_term_by_term(order, kind):
    rng = np.random.default_rng(order)
    terms = cf.flux_terms(order)
    d = rng.standard_normal((order - 2, 64))
    if kind == "complex":
        d = d + 1j * rng.standard_normal(d.shape)
    want = term_by_term(terms, d)
    scale = term_scale(terms, d)
    got = cf.eval_flux_terms(terms, d)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    # a list of rows and a stacked array give the same values
    assert np.array_equal(cf.eval_flux_terms(terms, list(d)), got)
    # scalars stay scalars
    s = cf.eval_flux_terms(terms, [row[0] for row in d])
    assert np.ndim(s) == 0
    assert abs(s - want[0]) <= 1e-14 * scale[0]


def test_horner_flux_leaves_inputs_alone():
    terms = cf.flux_terms(9)
    d = np.random.default_rng(9).standard_normal((7, 16))
    before = d.copy()
    cf.eval_flux_terms(terms, d)
    assert np.array_equal(d, before)


def test_horner_plan_groups_by_power_of_u():
    groups, tail = cf._horner_plan(cf.flux_terms(5))
    # 6 u^5 + 10 u^2 u_xx + 10 u u_x^2 = u (10 u_x^2 + u (10 u_xx + 6 u^3))
    assert groups == ((0, 6.0, ()), (3, 0, ((10.0, (2,)),)),
                      (1, 0, ((10.0, (1, 1)),)))
    assert tail == 1


# --------------------------------------------------------------------------
# stepper


@pytest.mark.parametrize("order", [5, 7, 9])
def test_batched_nonlinear_matches_per_derivative_construction(order):
    cfg = small_config(order)
    rng = np.random.default_rng(order)
    p = cf.BreatherParams(order, 1.0, 1.0)
    u = sample_breather(p, 0.0, cfg.window, m=0).values
    vhat = np.fft.rfft(u)
    vhat[1:20] += 1e-3 * (rng.standard_normal(19) + 1j * rng.standard_normal(19))
    vhat[-1] = 0.0
    want = per_derivative_nonlinear(vhat, cfg)
    got = ev._stepper(cfg).nonlinear(vhat)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [5, 7, 9])
def test_pure_nyquist_lifts_to_unit_amplitude(order):
    # cos(pi (x - x0) / h) is (-1)^j on the grid; its symmetric band-limited
    # interpolant on the padded grid has amplitude 1, not 2
    cfg = small_config(order)
    w, pad = cfg.window, cfg.dealias_pad
    kn = math.pi / w.spacing
    rows = ev._stepper(cfg).lift(np.fft.rfft((-1.0) ** np.arange(w.n_points)))
    # phase pi m / pad at padded point m, reduced exactly to one period
    y = np.pi * (np.arange(pad * w.n_points) % (2 * pad)) / pad
    want = [np.cos(y), -kn * np.sin(y), -kn**2 * np.cos(y),
            kn**3 * np.sin(y), kn**4 * np.cos(y), -kn**5 * np.sin(y),
            -kn**6 * np.cos(y)]
    for j, row in enumerate(rows):
        assert np.max(np.abs(row - want[j])) <= 1e-13 * kn**j
    assert np.max(np.abs(rows[0])) == pytest.approx(1.0, abs=1e-13)


def test_unpadded_lift_keeps_nyquist():
    with pytest.warns(ev.ResolutionWarning):
        cfg = small_config(5, pad=1)
    u = (-1.0) ** np.arange(N_SMALL)
    rows = ev._stepper(cfg).lift(np.fft.rfft(u))
    assert np.max(np.abs(rows[0] - u)) <= 1e-13


@pytest.mark.filterwarnings("ignore::mkdvlab.evolution.ResolutionWarning")
def test_order5_breather_few_hundred_steps():
    # alpha != beta: the breather oscillates in every frame.  n = 256 leaves
    # a spectral tail, which sets the error floor (~1.6e-5 here); a 1% error
    # in one flux coefficient gives ~0.15
    p = cf.BreatherParams(5, 0.6, 0.5)
    cfg = small_config(5, dt=5e-4, t_end=300 * 5e-4)
    u0 = sample_breather(p, 0.0, cfg.window, m=0)
    traj = ev.evolve(u0, cfg, monitors=("M", "E"))
    last = traj[-1]
    assert last.t == pytest.approx(0.15)
    ref = sample_breather(p, last.t, last.field.window, m=0)
    err = SampledField(last.field.window, last.field.values - ref.values)
    assert sobolev_norm(err, 2) < 1e-4
    drifts = ev.functional_drifts(traj)
    assert drifts["M"] < 1e-6 and drifts["E"] < 1e-6


def test_order5_soliton_speed_law_short_horizon():
    # speed c^2 = 4 over t = 0.1 (1,000 steps); the H^2 distance between
    # the closed-form profiles at t = 0.1 and t = 0.101 (a 1% speed error)
    # is 2.7e-2, the stepper's error 1.7e-5
    sp = cf.SolitonParams(5, 2.0)
    w = Window(0.0, 13.0, N_SMALL)
    cfg = small_config(5, dt=1e-4, t_end=0.1, window=w)
    traj = ev.evolve(sample_soliton(sp, 0.0, w, m=0), cfg)
    ref = sample_soliton(sp, 0.1, w, m=0)
    err = SampledField(w, traj[-1].field.values - ref.values)
    assert sobolev_norm(err, 2) < 1e-4


def test_frame_speed_moves_snapshot_windows():
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = replace(ev.breather_fidelity_config(5, n_points=N_SMALL),
                  t_end=10 * 2e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        traj = ev.evolve(sample_breather(p, 0.0, cfg.window, m=0), cfg)
    assert traj[-1].field.window.center == pytest.approx(
        cfg.frame_speed * traj[-1].t)


def test_blow_up_raises():
    w = Window(0.0, 30.0, N_SMALL)
    cfg = small_config(5, dt=1e-3, t_end=1.0, window=w)
    u0 = SampledField(w, 10.0 * np.exp(-w.grid() ** 2))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        with pytest.raises(ev.BlowUpError, match="non-finite Fourier mode at t="):
            ev.evolve(u0, cfg)


def test_config_rejections():
    w = Window(0.0, 30.0, N_SMALL)
    with pytest.raises(ValueError):
        ev.EvolutionConfig(order=3, window=w, dt=1e-3, t_end=1.0,
                           dealias_pad=2)
    with pytest.raises(ValueError):
        ev.EvolutionConfig(order=5, window=w, dt=0.0, t_end=1.0,
                           dealias_pad=3)


# --------------------------------------------------------------------------
# modulation fit


@pytest.mark.parametrize("shift", [(0.3, -0.2), (-0.45, 0.6)])
def test_fit_modulation_recovers_phases(shift):
    p = cf.BreatherParams(5, 1.0, 1.0)
    shifted = replace(p, x1=shift[0], x2=shift[1])
    u = sample_breather(shifted, 0.1, Window(0.0, 30.0, N_SMALL), m=0)
    x1, x2, dist = ev.fit_modulation(u, p, 0.1)
    assert x1 == pytest.approx(shift[0], abs=1e-9)
    assert x2 == pytest.approx(shift[1], abs=1e-9)
    assert dist < 1e-10


def test_fit_modulation_reports_distance_of_perturbation():
    p = cf.BreatherParams(5, 1.0, 1.0)
    w = Window(0.0, 30.0, N_SMALL)
    base = sample_breather(p, 0.0, w, m=0).values
    bump = 1e-3 * np.exp(-0.5 * (w.grid() - 5.0) ** 2)
    x1, x2, dist = ev.fit_modulation(SampledField(w, base + bump), p, 0.0)
    # the best phases barely move and the distance is at most the bump's
    assert abs(x1) < 1e-2 and abs(x2) < 1e-2
    assert 0.0 < dist <= sobolev_norm(SampledField(w, bump), 2)


# --------------------------------------------------------------------------
# full-horizon suite


@pytest.mark.slow
def test_full_horizon_order5_evolve_suite(tmp_path, monkeypatch):
    monkeypatch.delenv("MKDVLAB_WORKERS", raising=False)
    cfgp = tmp_path / "c.txt"
    cfgp.write_text("orders = 5\n", encoding="utf-8")
    out = tmp_path / "o"
    out.mkdir()
    assert cli.main(["evolve", "--config", str(cfgp), "--out", str(out)]) == 0
    records = json.loads((out / "report.json").read_text())["records"]
    assert len(records) == 5
    assert all(r["pass"] for r in records)
    # breather_h2 and the three drifts sit far below their budgets
    for r in records:
        if not r["id"].startswith("soliton_speed"):
            assert r["measured"] < 1e-10, r["id"]
