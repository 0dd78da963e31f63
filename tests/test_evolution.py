import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mkdvlab import cli
from mkdvlab import closed_forms as cf
from mkdvlab import evolution as ev
from mkdvlab.functionals import (SampledField, TailWarning, Window,
                                 functional, require_window, sample_breather,
                                 sample_soliton, sobolev_norm)

N_SMALL = 256


def small_config(order, dt=1e-4, t_end=0.0, window=None):
    return ev.EvolutionConfig(order=order,
                              window=window or Window(0.0, 30.0, N_SMALL),
                              dt=dt, t_end=t_end)


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
    n, pad = w.n_points, ev.exact_dealias_pad(cfg.order)
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
    w, pad = cfg.window, ev.exact_dealias_pad(order)
    kn = math.pi / w.spacing
    phases = ev._stepper(cfg).lift(np.fft.rfft((-1.0) ** np.arange(w.n_points)))
    # (deriv, phase s, coarse m) -> padded point pad * m + s
    rows = np.swapaxes(phases, -1, -2).reshape(len(phases), -1)
    # phase pi m / pad at padded point m, reduced exactly to one period
    y = np.pi * (np.arange(pad * w.n_points) % (2 * pad)) / pad
    want = [np.cos(y), -kn * np.sin(y), -kn**2 * np.cos(y),
            kn**3 * np.sin(y), kn**4 * np.cos(y), -kn**5 * np.sin(y),
            -kn**6 * np.cos(y)]
    for j, row in enumerate(rows):
        assert np.max(np.abs(row - want[j])) <= 1e-13 * kn**j
    assert np.max(np.abs(rows[0])) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("order", [5, 7, 9])
def test_frechet_apply_matches_finite_differences(order):
    cfg = small_config(order)
    stepper = ev._stepper(cfg)
    p = cf.BreatherParams(order, 1.0, 1.0)
    v = np.fft.rfft(sample_breather(p, 0.0, cfg.window, m=0).values)
    rng = np.random.default_rng(order)
    z = np.zeros_like(v)
    z[1:20] = rng.standard_normal(19) + 1j * rng.standard_normal(19)
    nv, apply = stepper.linearize(v)
    assert np.array_equal(nv, stepper.nonlinear(v))
    got = apply(z)
    scale = np.max(np.abs(got))
    eps = 1e-4
    fd = (stepper.nonlinear(v + eps * z)
          - stepper.nonlinear(v - eps * z)) / (2.0 * eps)
    assert np.max(np.abs(got - fd)) <= 1e-7 * scale
    # N' is real-linear ...
    z2 = np.roll(z, 3)
    both = apply(2.5 * z - 0.5 * z2) - (2.5 * got - 0.5 * apply(z2))
    assert np.max(np.abs(both)) <= 1e-12 * scale
    # ... but i z is another real field than i times that of z, so N' is not
    # complex-linear and GMRES must run over real vectors
    assert np.max(np.abs(apply(1j * z) - 1j * got)) > 0.1 * scale


def test_linearized_step_is_stable_and_symplectic():
    # the exact one-step map linearized about the order-7 soliton in its
    # frame, assembled from the Newton Jacobian: G'(Y) dY = (dv0, dv0) and
    # dv1 = dv0 + sqrt(3) (dY2 - dY1).  Gauss methods are symplectic, so its
    # eigenvalues come in reciprocal pairs; the largest measured 1 + 6.0e-8,
    # paired with 1 - 6.0e-8 (the translation kernel's Jordan block, split at
    # rounding level)
    sp, cfg = ev.soliton_speed_run(7, n_points=N_SMALL)
    cfg = replace(cfg, dt=1e-3)
    stepper = ev._stepper(cfg)
    v0 = np.fft.rfft(sample_soliton(sp, 0.0, cfg.window, m=0).values)
    s = stepper.step(v0)
    _, jac = stepper.stage_system(s.stages, v0)
    size = 2 * s.stages.size  # real unknowns
    J = np.empty((size, size))
    for j, e in enumerate(np.eye(size)):
        column = jac(e.view(complex).reshape(s.stages.shape))
        J[:, j] = column.reshape(-1).view(float)
    one = np.eye(size // 2)
    dY = np.linalg.solve(J, np.vstack([one, one]))
    M = one + math.sqrt(3.0) * (dY[size // 2:] - dY[: size // 2])
    radii = np.sort(np.abs(np.linalg.eigvals(M)))
    assert radii[-1] <= 1.0 + 1e-6
    assert np.max(np.abs(radii * radii[::-1] - 1.0)) <= 1e-12


@pytest.mark.filterwarnings("ignore::mkdvlab.evolution.ResolutionWarning")
def test_order5_breather_few_hundred_steps():
    # alpha != beta: the breather oscillates in every frame.  n = 256 leaves
    # a spectral tail, which sets the error floor (~4.6e-6 here); a 1% error
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
    # the lab-frame speed-law check: the shipped soliton runs ride at the
    # law's speed, where the profile is static, so this one steps the
    # profile moving across the grid.  Speed c^2 = 4 over t = 0.1 (100
    # steps); the H^2 distance between the closed-form profiles at t = 0.1
    # and t = 0.101 (a 1% speed error) is 2.7e-2, the stepper's error 2.7e-6
    sp = cf.SolitonParams(5, 2.0)
    w = Window(0.0, 13.0, N_SMALL)
    cfg = small_config(5, dt=1e-3, t_end=0.1, window=w)
    traj = ev.evolve(sample_soliton(sp, 0.0, w, m=0), cfg)
    ref = sample_soliton(sp, 0.1, w, m=0)
    err = SampledField(w, traj[-1].field.values - ref.values)
    assert sobolev_norm(err, 2) < 1e-4


def test_frame_speed_moves_snapshot_windows():
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = ev.breather_fidelity_config(5, n_points=N_SMALL)
    cfg = replace(cfg, t_end=10 * cfg.dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        traj = ev.evolve(sample_breather(p, 0.0, cfg.window, m=0), cfg)
    assert traj[-1].field.window.center == pytest.approx(
        cfg.frame_speed * traj[-1].t)


def test_snapshot_monitors_and_tails_are_those_of_the_plain_field():
    # the monitors read one rfft of each snapshot's values; the functionals
    # are bitwise those of the stored field, and the tail is that of the
    # stepped spectrum, which sets the one ResolutionWarning
    p = cf.BreatherParams(5, 0.6, 0.5)
    cfg = small_config(5, dt=1e-3, t_end=6e-3)
    u0 = sample_breather(p, 0.0, cfg.window, m=0)
    monitors = ("M", "E", "E5", "E9")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = ev.evolve(u0, cfg, monitors=monitors, snapshot_every=2)
    assert [s.t for s in traj] == [0.0, 2e-3, 4e-3, 6e-3]
    for snap in traj:
        assert snap.field.derivs == ()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailWarning)
            assert snap.functionals == {k: functional(snap.field, k)
                                        for k in monitors}
    assert traj[0].tail == ev._tail_fraction(np.fft.rfft(u0.values))
    assert all(0.0 < s.tail < 1.0 for s in traj)
    resolution = [w for w in caught
                  if issubclass(w.category, ev.ResolutionWarning)]
    assert len(resolution) == int(
        max(s.tail for s in traj) > ev._RESOLUTION_TAIL)


def _monitors_from_a_derivative_jet(field, monitors):
    # the construction evolve made before it integrated the densities
    # itself: a SampledField holding one spectral derivative per row, read
    # through functional with the edge-tail check silenced
    w = field.window
    top = max(cf.max_order(cf.density(kind)) for kind in monitors)
    vh = np.fft.rfft(field.values)
    jet = SampledField(w, field.values, tuple(
        np.fft.irfft(vh * w.derivative_multiplier(k), n=w.n_points)
        for k in range(1, top + 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        return {kind: functional(jet, kind) for kind in monitors}


@pytest.mark.parametrize("order, bump", [(5, 1e-3), (7, 0.0), (9, 0.0)])
def test_snapshot_monitors_are_functional_on_a_derivative_jet(order, bump):
    # bitwise, snapshot by snapshot, on short runs of the shipped breather
    # configs; the order-5 run adds a bump centred on the window edge, so
    # its field is far above functional's edge threshold at every snapshot,
    # where evolve itself warns of nothing but the resolution
    p = cf.BreatherParams(order, *ev.RUN_ALPHA_BETA)
    cfg = ev.breather_fidelity_config(order, n_points=512)
    cfg = replace(cfg, t_end=4 * cfg.dt)
    w = cfg.window
    edge = w.center - w.half_width
    values = sample_breather(p, 0.0, w, m=0).values + bump * (
        np.exp(-(w.grid() - edge) ** 2)
        + np.exp(-(w.grid() - edge - w.length) ** 2))
    monitors = ("M", "E", "E5", cf.energy_kind(order))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = ev.evolve(SampledField(w, values), cfg, monitors=monitors,
                         snapshot_every=1)
    assert len(traj) == 5
    assert not [c for c in caught if not issubclass(c.category,
                                                    ev.ResolutionWarning)]
    for snap in traj:
        assert snap.functionals == _monitors_from_a_derivative_jet(
            snap.field, monitors)
        at_edge = max(abs(snap.field.values[0]), abs(snap.field.values[-1]))
        assert (at_edge > 1e-5) == (bump > 0.0)


def test_breather_fidelity_config_follows_run_alpha_beta(monkeypatch):
    # at (1, 1): half width 30, t_end 0.05, and the frame -gamma of the
    # rigid orders 5 and 9
    for order, dt, frame in ((5, 1e-3, -4.0), (7, 5e-4, 0.0),
                             (9, 1e-3, 16.0)):
        assert ev.breather_fidelity_config(order) == ev.EvolutionConfig(
            order=order, window=Window(0.0, 30.0, 1024), dt=dt, t_end=0.05,
            frame_speed=frame)
    monkeypatch.setattr(ev, "RUN_ALPHA_BETA", (1.0, 0.5))
    for order in ev.EVOLVE_ORDERS:
        cfg = ev.breather_fidelity_config(order)
        require_window(cfg.window, cf.BreatherParams(order, 1.0, 0.5), 0.0)
        assert cfg.window.half_width == 60.0
        assert cfg.t_end == 0.128  # 0.2 / (1 + 0.25)^2
        assert ev.step_count(cfg.t_end, cfg.dt) * cfg.dt == cfg.t_end


def _blowing_field(w):
    # on 256 points at dt 1e-3 the order-5 Newton solve takes more Krylov
    # solves each step and reaches the GMRES cap at the third step (relative
    # residual ~4e2), so the error carries a trajectory of several
    # snapshots; a taller bump such as 10 exp(-x^2) fails at the first step
    return SampledField(w, 4.0 * np.exp(-w.grid() ** 2))


def test_blow_up_raises():
    w = Window(0.0, 30.0, N_SMALL)
    cfg = small_config(5, dt=1e-3, t_end=1.0, window=w)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        with pytest.raises(ev.BlowUpError, match="time step to t=") as err:
            ev.evolve(_blowing_field(w), cfg)
    assert 0.0 < err.value.t < cfg.t_end
    assert err.value.residual > ev._NEWTON_TOL


@pytest.mark.parametrize("order", ev.EVOLVE_ORDERS)
def test_soliton_runs_ride_at_the_speed_law(order):
    sp, cfg = ev.soliton_speed_run(order)
    assert cfg.frame_speed == cf.soliton_speed(order, sp.c)


def test_riding_order5_soliton_takes_no_krylov_solve():
    # in its frame the order-5 soliton is static, and at the shipped dt the
    # linearly implicit start alone meets the Newton target
    sp, cfg = ev.soliton_speed_run(5)
    cfg = replace(cfg, t_end=20 * cfg.dt)
    traj = ev.evolve(sample_soliton(sp, 0.0, cfg.window, m=0), cfg)
    assert ev.solver_work(traj) == (0, 0)


def test_static_breather_takes_no_krylov_solve():
    # in its frame the order-5 breather is a steady state: the linearly
    # implicit start leaves 1.04 times the Newton target, its contraction
    # (measured 2.6e-3) predicts that one more sweep meets it, and the sweep
    # leaves about 0.02 times the target
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = ev.breather_fidelity_config(5)
    assert cfg.frame_speed == -4.0
    step = ev._stepper(cfg).step
    v = np.fft.rfft(sample_breather(p, 0.0, cfg.window, m=0).values)
    for _ in range(5):
        s = step(v)
        assert s.value is not None and s.residual <= ev._NEWTON_TOL
        assert (s.solves, s.krylov) == (0, 0)
        v = s.value


def _newton_target(cfg, v0):
    L = (-cfg.window.derivative_multiplier(cfg.order)
         + cfg.frame_speed * cfg.window.derivative_multiplier(1))
    return ev._NEWTON_TOL * (np.linalg.norm(v0)
                             + cfg.dt * np.linalg.norm(L * v0))


def _count_fluxes_and_lifts(order, monkeypatch):
    # records, from now until monkeypatch.undo(), each cf.eval_flux_terms
    # call (True for the flux, False for a slope or density) and each irfft
    flux, original, irfft = (cf.flux_terms(order), cf.eval_flux_terms,
                             np.fft.irfft)
    calls, lifts = [], []

    def counting(terms, rows):
        calls.append(terms == flux)
        return original(terms, rows)

    def lifting(a, *args, **kwargs):
        lifts.append(a.shape)
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(cf, "eval_flux_terms", counting)
    monkeypatch.setattr(np.fft, "irfft", lifting)
    return calls, lifts


def _steps_with_sweeps(cfg, v, n_steps, monkeypatch):
    # [(Krylov solves, GMRES iterations, sweeps)] of n_steps steps from v.
    # Each evaluation of N (not of its slopes) is counted: the start makes
    # two, and each Krylov solve and each sweep one more
    step = ev._stepper(cfg).step
    calls, _ = _count_fluxes_and_lifts(cfg.order, monkeypatch)
    work = []
    for _ in range(n_steps):
        calls.clear()
        s = step(v)
        work.append((s.solves, s.krylov, sum(calls) - 2 - s.solves))
        if s.value is None:
            break
        v = s.value
    monkeypatch.undo()
    return work


def test_a_sweep_that_misses_hands_on_to_newton_krylov(monkeypatch):
    # the order-7 soliton run at dt 2e-3: the start's contraction predicts
    # that one more sweep leaves 0.6 times the Newton target, and it leaves
    # 14 times.  It lowered |G|, so it is kept, and one Krylov solve of one
    # iteration (two without the sweep) finishes the step
    sp, cfg = ev.soliton_speed_run(7)
    cfg = replace(cfg, dt=2e-3)
    stepper = ev._stepper(cfg)
    v0 = np.fft.rfft(sample_soliton(sp, 0.0, cfg.window, m=0).values)
    target = _newton_target(cfg, v0)
    Y, G, _, rho, NY = stepper.start(v0)
    assert rho * np.linalg.norm(G) <= target
    Ys, Gs, _ = stepper.sweep(Y, G, v0, NY)
    assert Ys is not Y and target < np.linalg.norm(Gs) < np.linalg.norm(G)
    s = stepper.step(v0)
    assert s.value is not None and s.residual <= ev._NEWTON_TOL
    assert np.linalg.norm(stepper.stage_system(s.stages, v0)[0]) <= target
    assert _steps_with_sweeps(cfg, v0, 3, monkeypatch) == [(1, 1, 1)] * 3


def test_a_sweep_that_raises_the_residual_is_not_kept(monkeypatch):
    # from (v0, v0) on the order-7 breather the sweep raises |G| (it is the
    # linearly implicit start that Newton falls back from) and comes back
    # as it went in; on the static order-5 breather it lowers |G|
    for order in (7, 5):
        p = cf.BreatherParams(order, 1.0, 1.0)
        cfg = ev.breather_fidelity_config(order)
        stepper = ev._stepper(cfg)
        v0 = np.fft.rfft(sample_breather(p, 0.0, cfg.window, m=0).values)
        Y = np.stack([v0, v0])
        G, NY = stepper.stage_system(Y, v0)[0], stepper.nonlinear(Y)
        Ys, Gs, NYs = stepper.sweep(Y, G, v0, NY)
        assert (Ys is Y and Gs is G and NYs is NY) == (order == 7)
        assert np.array_equal(NYs, stepper.nonlinear(Ys))
        assert np.linalg.norm(Gs) <= np.linalg.norm(G)
    # in a step: the lab-frame order-9 soliton of height 2 at n = 256, dt
    # 4e-3, where the rule fires after four Krylov solves and the sweep
    # would raise |G| from 2 to 12 times the target.  The step converges
    # with the solves and iterations it takes without the rule
    w = Window(0.0, 30.0, N_SMALL)
    cfg = small_config(9, dt=4e-3, window=w)
    v0 = np.fft.rfft(sample_soliton(cf.SolitonParams(9, 2.0), 0.0, w,
                                    m=0).values)
    s = ev._stepper(cfg).step(v0)
    assert s.value is not None and s.residual <= ev._NEWTON_TOL
    assert _steps_with_sweeps(cfg, v0, 3, monkeypatch) == [
        (5, 74, 1), (5, 74, 1), (5, 73, 1)]


def test_no_sweep_on_the_fallback_start_nor_on_the_order7_breather(
        monkeypatch):
    # where Newton starts from (v0, v0) the start's contraction is
    # undefined, and the rule never fires: these steps take the Krylov
    # solves and GMRES iterations they took before the rule
    w = Window(0.0, 30.0, N_SMALL)
    cfg = small_config(5, dt=1e-3, window=w)
    v0 = np.fft.rfft(_blowing_field(w).values)
    assert math.isnan(ev._stepper(cfg).start(v0)[3])
    with np.errstate(all="ignore"):
        assert _steps_with_sweeps(cfg, v0, 3, monkeypatch) == [
            (7, 138, 0), (10, 155, 0), (7, 300, 0)]  # the third fails
    p = cf.BreatherParams(7, 1.0, 1.0)
    cfg = ev.breather_fidelity_config(7)
    v0 = np.fft.rfft(sample_breather(p, 0.0, cfg.window, m=0).values)
    assert math.isnan(ev._stepper(cfg).start(v0)[3])
    assert _steps_with_sweeps(cfg, v0, 3, monkeypatch) == [(3, 40, 0)] * 3


DEFAULT_SHAPES = ("gaussian", "B1", "LambdaBeta")


def _perturbed_breather(p, shape, eta, w):
    # a stability_experiment member: the shape at unit L2 norm, scaled to
    # H^2 size eta, on the breather at t = 0
    bump = ev.perturbation_shape(shape, p, w)
    bump = bump / math.sqrt(w.quad(bump**2))
    bump = bump * (eta / sobolev_norm(SampledField(w, bump), 2))
    return sample_breather(p, 0.0, w, m=0).values + bump


def test_newton_start_never_exceeds_the_residual_of_v0():
    # the linearly implicit start beats Y = (v0, v0) on the default
    # stability members; on the blowing field it does not, and the
    # safeguard starts from (v0, v0)
    p = cf.BreatherParams(5, 1.0, 1.0)
    stab = ev.stability_run_config(5, t_end=0.0)
    w = Window(0.0, 30.0, N_SMALL)
    cases = [(stab, _perturbed_breather(p, shape, 0.01, stab.window), False)
             for shape in DEFAULT_SHAPES]
    cases.append((small_config(5, dt=1e-3, window=w),
                  _blowing_field(w).values, True))
    for cfg, u0, kept in cases:
        stepper = ev._stepper(cfg)
        v0 = np.fft.rfft(u0)
        still = np.stack([v0, v0])
        Y, G, _, rho, NY = stepper.start(v0)
        g0 = np.linalg.norm(stepper.stage_system(still, v0)[0])
        assert np.linalg.norm(G) <= g0
        assert np.array_equal(Y, still) == kept
        assert np.array_equal(G, stepper.stage_system(Y, v0)[0])
        assert np.array_equal(NY, stepper.nonlinear(Y))
        # the start's contraction, undefined on the fallback
        if kept:
            assert math.isnan(rho)
        else:
            assert rho == pytest.approx(np.linalg.norm(G) / g0, rel=1e-12)


def test_safeguarded_start_lifts_v0_once(monkeypatch):
    # on the blowing field the safeguard falls back to (v0, v0).  The start
    # evaluates the flux at v0 and at the linearly implicit start, and no
    # slope: those wait until a Krylov solve follows.  v0 is lifted once,
    # and the fallback takes Newton's first operator at v0, whose slopes
    # then serve both stages
    w = Window(0.0, 30.0, N_SMALL)
    cfg = small_config(5, dt=1e-3, window=w)
    stepper = ev._stepper(cfg)
    v0 = np.fft.rfft(_blowing_field(w).values)
    calls, lifts = [], []
    original, irfft = cf.eval_flux_terms, np.fft.irfft

    def counting(terms, rows):
        calls.append(terms)
        return original(terms, rows)

    def lifting(a, *args, **kwargs):
        lifts.append(a.shape)
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(cf, "eval_flux_terms", counting)
    monkeypatch.setattr(np.fft, "irfft", lifting)
    Y, G, point, rho, NY = stepper.start(v0)
    monkeypatch.undo()
    assert math.isnan(rho)
    assert np.array_equal(Y, np.stack([v0, v0]))
    assert calls == [cf.flux_terms(5)] * 2
    assert len(lifts) == 2
    assert point is v0
    # the same bits as the exact residual and Newton's operator taken at
    # (v0, v0)
    assert np.array_equal(G, stepper.stage_system(Y, v0)[0])
    assert np.array_equal(NY, stepper.nonlinear(Y))
    rng = np.random.default_rng(5)
    Z = rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape)
    assert np.array_equal(stepper.newton_frechet(point)(Z),
                          stepper.newton_frechet(Y)(Z))


def test_carried_start_meets_the_frozen_start_target():
    # from the second step Newton starts from the previous step's stage
    # nonlinearity N(Y1), N(Y2), at the stage times c_i - 1 of this step,
    # taken on the line through them at this step's c_k.  The start solves
    # P Y = v0 (x) 1 + dt A N0, so N0 = N(Y) + (dt A)^-1 G(Y) reads back the
    # guess it used (measured 5e-15 relative; N frozen at N(Y2) is 8e-7 to
    # 5e-3 away).  It is no sweep, so its rho is nan.  On each default
    # stability member the step meets the Newton target that the frozen
    # start meets, and the two values agree within it (measured at most
    # 0.49 times the target)
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = ev.stability_run_config(5, t_end=0.0)
    stepper = ev._stepper(cfg)
    dtA = cfg.dt * np.array(ev._GAUSS_A)
    c = dtA.sum(axis=1) / cfg.dt
    for shape in DEFAULT_SHAPES:
        first = stepper.step(np.fft.rfft(
            _perturbed_breather(p, shape, 0.01, cfg.window)))
        v1, target = first.value, _newton_target(cfg, first.value)
        N1, N2 = first.nonlinear
        want = np.stack([N1 + (ck - c[0] + 1.0) / (c[1] - c[0]) * (N2 - N1)
                         for ck in c])
        Y, G, _, rho, NY = stepper.start(v1, first.nonlinear)
        assert math.isnan(rho) and not np.array_equal(Y, np.stack([v1, v1]))
        guess = NY + np.linalg.solve(dtA, G)
        assert np.max(np.abs(guess - want)) <= 1e-12 * np.max(np.abs(want))
        frozen = stepper.step(v1)
        carried = stepper.step(v1, first.nonlinear)
        for s in (frozen, carried):
            assert s.value is not None and s.residual <= ev._NEWTON_TOL
            assert np.linalg.norm(stepper.stage_system(s.stages, v1)[0]) \
                <= target
            assert np.array_equal(s.nonlinear, stepper.nonlinear(s.stages))
        assert np.linalg.norm(carried.value - frozen.value) <= target


def test_a_carried_start_from_another_field_changes_speed_not_result():
    # a carried N of another field starts Newton elsewhere: from the
    # unperturbed breather's N the start still beats (v0, v0); from the
    # soliton's it does not, and Newton falls back to (v0, v0).
    # Either way the step meets the target, within it of the frozen start
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = ev.stability_run_config(5, t_end=0.0)
    w = cfg.window
    stepper = ev._stepper(cfg)
    v0 = np.fft.rfft(_perturbed_breather(p, "gaussian", 0.01, w))
    target = _newton_target(cfg, v0)
    frozen = stepper.step(v0)
    others = (sample_breather(p, 0.0, w, m=0),
              sample_soliton(cf.SolitonParams(5, 2.0), 0.0, w, m=0))
    for other, falls_back in zip(others, (False, True)):
        carried = np.stack([stepper.nonlinear(np.fft.rfft(other.values))] * 2)
        Y = stepper.start(v0, carried)[0]
        assert np.array_equal(Y, np.stack([v0, v0])) == falls_back
        s = stepper.step(v0, carried)
        assert s.value is not None and s.residual <= ev._NEWTON_TOL
        assert np.linalg.norm(s.value - frozen.value) <= target


def _order5_static_runs():
    # the static order-5 breather and the riding order-5 soliton: (cfg, u0)
    cfg = ev.breather_fidelity_config(5)
    breather = sample_breather(cf.BreatherParams(5, 1.0, 1.0), 0.0,
                               cfg.window, m=0)
    sp, scfg = ev.soliton_speed_run(5)
    return [(cfg, breather),
            (scfg, sample_soliton(sp, 0.0, scfg.window, m=0))]


@pytest.mark.parametrize("run", [0, 1], ids=["breather", "soliton"])
def test_a_carried_step_that_meets_the_target_evaluates_n_once(run,
                                                               monkeypatch):
    # the carried start meets the Newton target at once on these runs, so
    # the step lifts once and evaluates the flux once, at Y0, and not at v0
    # for the guard.  Its value, stages and N are bitwise those of the start
    # that always runs the guard (target 0), which keeps Y0
    cfg, u0 = _order5_static_runs()[run]
    stepper = ev._stepper(cfg)
    first = stepper.step(np.fft.rfft(u0.values))
    v1, carried = first.value, first.nonlinear
    target = _newton_target(cfg, v1)
    calls, lifts = _count_fluxes_and_lifts(5, monkeypatch)
    s = stepper.step(v1, carried)
    assert (calls, len(lifts)) == ([True], 1)
    calls.clear()
    stepper.start(v1, carried, target)
    assert calls == [True]
    calls.clear()
    Y, G, _, rho, NY = stepper.start(v1, carried)
    assert calls == [True, True]
    monkeypatch.undo()
    assert (s.solves, s.krylov) == (0, 0) and s.residual <= ev._NEWTON_TOL
    assert np.linalg.norm(G) <= target and math.isnan(rho)
    assert not np.array_equal(Y, np.stack([v1, v1]))
    assert np.array_equal(s.stages, Y) and np.array_equal(s.nonlinear, NY)
    assert np.array_equal(s.value, v1 + math.sqrt(3.0) * (Y[1] - Y[0]))


@pytest.mark.parametrize("run", [0, 1], ids=["breather", "soliton"])
def test_static_order5_runs_evaluate_n_once_per_carried_step(run,
                                                             monkeypatch):
    # over 20 steps of evolve: the first step's frozen start evaluates N at
    # v0 and at Y0, and one sweep at its result (at the shipped dt both
    # runs take it), and every later step once
    cfg, u0 = _order5_static_runs()[run]
    cfg = replace(cfg, t_end=20 * cfg.dt)
    calls, _ = _count_fluxes_and_lifts(5, monkeypatch)
    traj = ev.evolve(u0, cfg)
    monkeypatch.undo()
    assert ev.solver_work(traj) == (0, 0)
    assert calls == [True] * (3 + 19)


def test_a_carried_start_that_misses_the_target_still_runs_the_guard(
        monkeypatch):
    # on the gaussian-perturbed breather the carried start misses the
    # target, so it evaluates N(v0) for the guard, and its values are
    # bitwise those of the start that always runs the guard.  Carried from
    # the step before the guard keeps Y0; carried from the soliton it falls
    # back to (v0, v0)
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = ev.stability_run_config(5, t_end=0.0)
    stepper = ev._stepper(cfg)
    first = stepper.step(np.fft.rfft(
        _perturbed_breather(p, "gaussian", 0.01, cfg.window)))
    v1 = first.value
    target = _newton_target(cfg, v1)
    soliton = sample_soliton(cf.SolitonParams(5, 2.0), 0.0, cfg.window, m=0)
    others = (first.nonlinear,
              np.stack([stepper.nonlinear(np.fft.rfft(soliton.values))] * 2))
    for carried, falls_back in zip(others, (False, True)):
        calls, lifts = _count_fluxes_and_lifts(5, monkeypatch)
        got = stepper.start(v1, carried, target)
        monkeypatch.undo()
        assert (calls, len(lifts)) == ([True, True], 2)
        want = stepper.start(v1, carried)
        assert np.linalg.norm(want[1]) > target
        assert np.array_equal(got[0], np.stack([v1, v1])) == falls_back
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        s = stepper.step(v1, carried)
        assert s.value is not None and s.solves >= 1


def test_blow_up_with_the_carried_start_raises_with_its_work(monkeypatch):
    # evolve hands each step the stage nonlinearity of the one before; the
    # blowing field still fails, on a step that was handed one, and the
    # error carries every step's solves and iterations
    w = Window(0.0, 30.0, N_SMALL)
    cfg = small_config(5, dt=1e-3, t_end=1.0, window=w)
    stepper = ev._stepper(cfg)
    seen = []

    def recording(v0, carried=None):
        s = stepper.step(v0, carried)
        seen.append((carried is not None, s.solves, s.krylov))
        return s

    monkeypatch.setattr(ev, "_stepper",
                        lambda c: replace(stepper, step=recording))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        with pytest.raises(ev.BlowUpError) as err:
            ev.evolve(_blowing_field(w), cfg, snapshot_every=10**9)
    assert [c for c, _, _ in seen] == [False] + [True] * (len(seen) - 1)
    assert len(seen) >= 2
    assert err.value.t == pytest.approx(len(seen) * cfg.dt)
    assert ev.solver_work(err.value) == (sum(n for _, n, _ in seen),
                                         sum(k for _, _, k in seen))


@pytest.mark.parametrize("order", [5, 7, 9])
def test_newton_operator_matches_the_exact_frechet_apply(order):
    # on the shipped window the 2n-grid N' of Newton's operator equals the
    # padded linearize apply to rounding, on a breather and on a perturbed
    # stability member (measured 1.6e-16 to 5e-16), for any z of band k_N
    # and for a stage pair
    p = cf.BreatherParams(order, 1.0, 1.0)
    w = ev.breather_fidelity_config(order).window
    stepper = ev._stepper(replace(small_config(order, window=w), dt=1e-3))
    rng = np.random.default_rng(order)
    band = w.n_points // 2  # every bin below the Nyquist one
    z = np.zeros((2, band + 1), dtype=complex)
    z[:, 1:band] = (rng.standard_normal((2, band - 1))
                    + 1j * rng.standard_normal((2, band - 1)))
    fields = (sample_breather(p, 0.0, w, m=0).values,
              _perturbed_breather(p, "gaussian", 0.01, w))
    for u in fields:
        v = np.fft.rfft(u)
        for point, dz in ((v, z[0]), (np.stack([v, 0.9 * v]), z)):
            want = stepper.linearize(point)[1](dz)
            got = stepper.newton_frechet(point)(dz)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [5, 7, 9])
def test_krylov_matvec_runs_on_the_2n_grid(order, monkeypatch):
    # every transform inside a GMRES matvec of a time step has a phase axis
    # of 2 (rows (deriv, stage, phase, bin) in, (stage, phase, n) back): N'
    # of Newton's operator is applied on the 2n grid, not the padded one
    p = cf.BreatherParams(order, 1.0, 1.0)
    cfg = small_config(order, dt=1e-5)
    v = np.fft.rfft(sample_breather(p, 0.0, cfg.window, m=0).values)
    shapes, inside = [], []
    gmres = ev._gmres

    def watched_gmres(op, b, budget, floor=0.0):
        def matvec(z):
            inside.append(True)
            try:
                return op(z)
            finally:
                inside.pop()

        return gmres(matvec, b, budget, floor)

    def recording(transform):
        def recorded(a, *args, **kwargs):
            if inside:
                shapes.append(a.shape)
            return transform(a, *args, **kwargs)

        return recorded

    monkeypatch.setattr(ev, "_gmres", watched_gmres)
    monkeypatch.setattr(np.fft, "irfft", recording(np.fft.irfft))
    monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft))
    s = ev._stepper(cfg).step(v)
    monkeypatch.undo()
    assert s.value is not None and s.krylov >= 1
    assert len(shapes) == 2 * s.krylov  # one lift and one back per matvec
    assert all(shape[-2] == 2 for shape in shapes)
    assert ev.exact_dealias_pad(order) != 2


def test_gmres_returns_once_its_residual_reaches_the_floor():
    d = np.linspace(1.0, 50.0, 200)

    def op(x):
        return d * x

    b = np.random.default_rng(5).standard_normal(200)
    res = []
    for k in range(1, 21):
        x, its = ev._gmres(op, b, k)
        assert its == k
        res.append(np.linalg.norm(b - op(x)))
    assert all(r < 0.99 * r0 for r0, r in zip(res, res[1:]))
    assert res[-1] > 10.0 * ev._GMRES_RTOL * np.linalg.norm(b)
    for k in (1, 4, 12):
        floor = 1.001 * res[k - 1]
        x, its = ev._gmres(op, b, 300, floor)
        assert its == k and np.linalg.norm(b - op(x)) <= floor
    # with no floor it runs on to the relative target
    x, its = ev._gmres(op, b, 300)
    assert its > 20
    assert (np.linalg.norm(b - op(x))
            <= 1.01 * ev._GMRES_RTOL * np.linalg.norm(b))


def test_default_shapes_solver_work_and_distances():
    # the stability-o5 benchmark config: order 5, the default shapes at
    # eta 0.01, t_end 0.03 (30 steps).  Newton's operator on the 2n grid
    # takes the Krylov solves and GMRES iterations of the exact padded one;
    # 165 and 1,502 in all when Newton started from (v0, v0) and GMRES ran
    # to its relative target alone, and (60, 489), (30, 243), (60, 330)
    # when every step started with N frozen at v0.  The fits take 252, 63
    # and 100 objective evaluations with no secant correction
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = ev.stability_run_config(5, t_end=0.03)
    reports = [ev.stability_experiment(p, 0.01, shape, cfg)
               for shape in DEFAULT_SHAPES]
    assert [(r.krylov_solves, r.gmres_iterations) for r in reports] == [
        (60, 413), (30, 236), (31, 238)]
    assert [r.fit_evaluations for r in reports] == [127, 63, 66]
    for r, want in zip(reports, (0.0761158856, 9.00607254e-06,
                                 0.0100064085143)):
        assert r.blow_up is None
        assert r.sup_distance == pytest.approx(want, rel=1e-9)


def test_snapshots_carry_the_solver_work_since_the_previous_one():
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = small_config(5, dt=1e-3, t_end=6e-3)
    u0 = sample_breather(p, 0.0, cfg.window, m=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        traj = ev.evolve(u0, cfg, snapshot_every=4)
    step = ev._stepper(cfg).step
    v, carried, work = np.fft.rfft(u0.values), None, []
    for _ in range(6):
        s = step(v, carried)
        work.append((s.solves, s.krylov))
        v, carried = s.value, s.nonlinear
    # snapshots after steps 0, 4 and 6
    assert [(s.krylov_solves, s.gmres_iterations) for s in traj] == [
        (0, 0), tuple(map(sum, zip(*work[:4]))),
        tuple(map(sum, zip(*work[4:])))]
    assert all(n >= 1 and k >= n for n, k in work)
    assert ev.solver_work(traj) == tuple(map(sum, zip(*work)))


def test_blow_up_carries_the_work_after_its_last_snapshot():
    w = Window(0.0, 30.0, N_SMALL)
    cfg = small_config(5, dt=1e-3, t_end=1.0, window=w)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        with pytest.raises(ev.BlowUpError) as every:
            ev.evolve(_blowing_field(w), cfg, snapshot_every=1)
        with pytest.raises(ev.BlowUpError) as first:
            ev.evolve(_blowing_field(w), cfg, snapshot_every=10**9)
    # the failed step's own solves and iterations, up to a cap
    err = every.value
    assert err.krylov_solves >= 1 and err.gmres_iterations >= 1
    assert (err.krylov_solves == ev._NEWTON_MAX
            or err.gmres_iterations >= ev._GMRES_MAX
            or not math.isfinite(err.residual))
    # with no snapshot after the start, the error holds the whole run's work
    assert len(first.value.trajectory) == 1
    assert ev.solver_work(first.value) == ev.solver_work(err) == (
        first.value.krylov_solves, first.value.gmres_iterations)


def test_config_rejections():
    w = Window(0.0, 30.0, N_SMALL)
    with pytest.raises(ValueError):
        ev.EvolutionConfig(order=3, window=w, dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        ev.EvolutionConfig(order=5, window=w, dt=0.0, t_end=1.0)


def test_evolve_takes_only_a_whole_number_of_steps():
    # t_end 0.0055 at dt 1e-3 once ran to t = 0.006 under round()
    assert ev.step_count(0.03, 1e-3) == 30  # 29.999999999999996 in floats
    assert ev.step_count(0.0, 1e-3) == 0
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = small_config(5, dt=1e-3, t_end=0.0055)
    u0 = sample_breather(p, 0.0, cfg.window, m=0)
    with pytest.raises(ValueError, match="t_end = 0.0055 .* dt = 0.001"):
        ev.evolve(u0, cfg)


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


def test_fit_modulation_makes_no_jet_calls(monkeypatch):
    p = cf.BreatherParams(5, 1.0, 1.0)
    u = sample_breather(replace(p, x1=0.3, x2=-0.2), 0.1,
                        Window(0.0, 30.0, N_SMALL), m=0)
    calls = []
    original = cf.breather_jet_raw

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cf, "breather_jet_raw", counting)
    cf.breather_jet(p, 0.0, 0.0, m=0)  # the wrapper sees module calls
    assert len(calls) == 1
    x1, x2, _ = ev.fit_modulation(u, p, 0.1)
    assert len(calls) == 1
    assert (x1, x2) == pytest.approx((0.3, -0.2), abs=1e-9)


def test_carried_fit_lands_on_the_fresh_fit(monkeypatch):
    # on the gaussian run's snapshots, fits that carry their secant
    # correction from one to the next land on the phases of fresh fits
    # (measured 3.4e-12 apart) and distances (6.3e-14 relative), with
    # fewer objective evaluations
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = ev.stability_run_config(5, t_end=0.03)
    u0 = SampledField(cfg.window,
                      _perturbed_breather(p, "gaussian", 0.01, cfg.window))
    traj = ev.evolve(u0, cfg, snapshot_every=3)
    carried = ev.track_modulation(p, traj, 0.01)
    fit, evaluations = ev.fit_modulation, []

    def fresh(u, p_, t, seed=(0.0, 0.0), memory=None):
        own = ev.FitMemory()
        out = fit(u, p_, t, seed=seed, memory=own)
        evaluations.append(own.evaluations)
        return out

    monkeypatch.setattr(ev, "fit_modulation", fresh)
    alone = ev.track_modulation(p, traj, 0.01)
    assert len(carried.times) == len(alone.times) == len(traj) == 11
    assert carried.phases_x1 + carried.phases_x2 == pytest.approx(
        alone.phases_x1 + alone.phases_x2, abs=1e-9)
    assert carried.distances == pytest.approx(alone.distances, rel=1e-12)
    assert 0 < carried.fit_evaluations < sum(evaluations)


def test_an_indefinite_corrected_matrix_falls_back_to_gauss_newton():
    # M + C is tested by its trace and determinant: negative definite
    # (trace < 0) and indefinite with a positive trace (det < 0) both take
    # the Gauss-Newton step
    M, g = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.7])
    gauss_newton = np.linalg.solve(M, -g)
    for C in (np.diag([-3.0, -3.0]), np.diag([2.0, -2.0])):
        assert np.array_equal(ev._fit_direction(M, C, g), gauss_newton)
    C = np.array([[0.4, -0.1], [-0.1, 0.2]])
    assert np.array_equal(ev._fit_direction(M, C, g),
                          np.linalg.solve(M + C, -g))
    # a fit handed an indefinite correction still lands on the phases
    p = cf.BreatherParams(5, 1.0, 1.0)
    u = sample_breather(replace(p, x1=0.3, x2=-0.2), 0.1,
                        Window(0.0, 30.0, N_SMALL), m=0)
    memory = ev.FitMemory(np.diag([5.0, -1e3]))
    x1, x2, dist = ev.fit_modulation(u, p, 0.1, memory=memory)
    assert (x1, x2) == pytest.approx((0.3, -0.2), abs=1e-9)
    assert dist < 1e-10 and memory.evaluations > 0


def test_psb_update_meets_the_secant_condition_symmetrically():
    rng = np.random.default_rng(3)
    C = rng.standard_normal((2, 2))
    C = C + C.T
    s, y = rng.standard_normal(2), rng.standard_normal(2)
    new = ev._psb(C, s, y)
    assert np.allclose(new @ s, y, rtol=0, atol=1e-14)
    assert np.array_equal(new, new.T)


def test_random_shape_is_seeded_and_resolved():
    p = cf.BreatherParams(5, 1.0, 1.0)
    w = Window(0.0, 30.0, N_SMALL)

    def shape(seed):
        return ev.perturbation_shape("random", p, w, np.random.default_rng(seed))

    assert np.array_equal(shape(3), shape(3))
    assert not np.allclose(shape(3), shape(4))
    # bins 1..8 of w.wavenumbers() under a width-3 gaussian: the upper
    # three quarters of the spectrum are empty
    spec = np.abs(np.fft.rfft(shape(3)))
    assert np.max(spec[N_SMALL // 8:]) <= 1e-10 * np.max(spec)
    with pytest.raises(ValueError):
        ev.perturbation_shape("random", p, w)


def test_random_shape_stability_run_is_deterministic():
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = small_config(5, dt=1e-4, t_end=1e-3)
    with warnings.catch_warnings():
        # the breather, not the shape, is under-resolved on 256 points
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        a, b = [ev.stability_experiment(p, 0.01, "random", cfg,
                                        snapshot_every=5, seed=11)
                for _ in range(2)]
    assert a.blow_up is None and len(a.times) == 3
    assert a.to_json_dict() == b.to_json_dict()
    assert a.distances == b.distances


# --------------------------------------------------------------------------
# evolve and stability suite points


def test_evolve_point_tags_records_with_the_dt_it_ran(monkeypatch):
    runs = []
    fidelity, soliton = ev.breather_fidelity_config, ev.soliton_speed_run

    def short_fidelity(order, n_points=1024):
        return replace(fidelity(order, n_points), t_end=2e-5)

    def short_soliton(order, n_points=1024):
        runs.append(order)
        sp, cfg = soliton(order, n_points)
        return sp, replace(cfg, t_end=2e-5)

    monkeypatch.setattr(ev, "breather_fidelity_config", short_fidelity)
    monkeypatch.setattr(ev, "soliton_speed_run", short_soliton)
    tol = cli.build_config("evolve", {}, ".").tolerances
    recs, _ = cli._evolve_point({"order": 5, "dt": 1e-6, "tol": tol})
    tagged = {r["id"].split("[")[0]: r for r in recs if "dt" in r["params"]}
    assert sorted(tagged) == ["breather_h2", "soliton_speed"]
    for r in tagged.values():
        assert r["params"]["dt"] == 1e-6
        assert "dt=1e-06" in r["id"]
    assert runs == [5]  # one soliton run per evolve point


def _load_fields(data):
    return np.load(io.BytesIO(data), allow_pickle=False)


def test_trajectory_artifacts_hold_the_fields_bit_for_bit():
    p = cf.BreatherParams(5, 1.0, 1.0)
    cfg = small_config(5, dt=1e-3, t_end=4e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        traj = ev.evolve(sample_breather(p, 0.0, cfg.window, m=0), cfg,
                         monitors=("M",), snapshot_every=1)
    arts = cli._trajectory_artifacts("evolve_order5", traj)
    assert [name for name, _ in arts] == ["evolve_order5/fields.npy",
                                          "evolve_order5/manifest.json"]
    assert arts == cli._trajectory_artifacts("evolve_order5", traj)
    fields = _load_fields(arts[0][1])
    manifest = json.loads(arts[1][1])
    assert manifest["values_file"] == "fields.npy"
    snaps = manifest["snapshots"]
    assert fields.dtype == np.float64
    assert fields.shape == (len(snaps), N_SMALL) == (len(traj), N_SMALL)
    for i, (row, entry, snap) in enumerate(zip(fields, snaps, traj)):
        assert row.tobytes() == snap.field.values.tobytes()
        assert entry["row"] == i and "values_file" not in entry
        assert entry["tail"] == snap.tail
        assert entry["t"] == snap.t


def test_stability_suite_records_and_determinism(tmp_path):
    cfgp = tmp_path / "c.txt"
    cfgp.write_text("orders = 5\nshapes = B1, LambdaBeta\neta = 0.01\n"
                    "t_end = 0.002\n", encoding="utf-8")
    outs, codes = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        codes.append(cli.main(["stability", "--config", str(cfgp), "--out",
                               str(out)]))
        outs.append(out)
    records = json.loads((outs[0] / "report.json").read_text())["records"]
    assert [r["id"] for r in records] == [
        f"{kind}[order=5,shape={shape},eta=0.01,dt=0.001]"
        for shape in ("B1", "LambdaBeta")
        for kind in ("sup_distance", "max_phase_speed")]
    for r in records:
        assert r["pass"] == (r["measured"] <= r["budget"])
    assert codes == [0 if all(r["pass"] for r in records) else 1] * 2
    # each run's solver work is on its sup_distance record and its per-shape
    # json; the summary totals it
    report = json.loads((outs[0] / "report.json").read_text())
    work = [(r["params"]["krylov_solves"], r["params"]["gmres_iterations"])
            for r in records if r["id"].startswith("sup_distance")]
    assert len(work) == 2 and all(n >= 2 for n, _ in work)
    assert not any("krylov_solves" in r["params"] for r in records
                   if r["id"].startswith("max_phase_speed"))
    assert (report["summary"]["krylov_solves"],
            report["summary"]["gmres_iterations"]) == tuple(
                map(sum, zip(*work)))
    for shape, want in zip(("B1", "LambdaBeta"), work):
        summary = json.loads(
            (outs[0] / f"stability_order5_{shape}_eta0.01.json").read_text())
        assert (summary["krylov_solves"], summary["gmres_iterations"]) == want
    assert ((outs[0] / "report.json").read_bytes()
            == (outs[1] / "report.json").read_bytes())


def test_stability_shapes_are_independent_tasks(tmp_path):
    common = "orders = 5\neta = 0.01\nt_end = 0.002\n"
    runs = {"both": "B1, LambdaBeta", "B1": "B1", "LambdaBeta": "LambdaBeta"}
    outs = {}
    for name, shapes in runs.items():
        cfgp = tmp_path / f"{name}.txt"
        cfgp.write_text(common + f"shapes = {shapes}\n", encoding="utf-8")
        out = tmp_path / name
        out.mkdir()
        cli.main(["stability", "--config", str(cfgp), "--out", str(out)])
        outs[name] = out
    both = json.loads((outs["both"] / "report.json").read_text())
    singles = [json.loads((outs[s] / "report.json").read_text())
               for s in ("B1", "LambdaBeta")]
    assert both["records"] == singles[0]["records"] + singles[1]["records"]
    for shape in ("B1", "LambdaBeta"):
        name = f"stability_order5_{shape}_eta0.01.json"
        assert ((outs["both"] / name).read_bytes()
                == (outs[shape] / name).read_bytes())


def _blow_up_config(order, t_end=1.0, n_points=1024):
    # at this dt the Newton solve for a breather of height 2 on 256 points
    # converges for the first step and not for the second
    return small_config(order, dt=0.125, t_end=t_end)


def _run_blowing_up(tmp_path, command, config):
    cfgp = tmp_path / "c.txt"
    cfgp.write_text(config, encoding="utf-8")
    out = tmp_path / "o"
    out.mkdir()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", ev.ResolutionWarning)
        code = cli.main([command, "--config", str(cfgp), "--out", str(out)])
    return code, out, json.loads((out / "report.json").read_text())


def test_evolve_blow_up_becomes_failed_records(tmp_path, monkeypatch):

    def blowing_soliton(order, n_points=1024):
        # height 4 instead of the default's sqrt(2)
        return cf.SolitonParams(order, 16.0), _blow_up_config(order)

    monkeypatch.setattr(ev, "breather_fidelity_config", _blow_up_config)
    monkeypatch.setattr(ev, "soliton_speed_run", blowing_soliton)
    code, out, report = _run_blowing_up(tmp_path, "evolve", "orders = 5\n")
    assert code == 1
    # the usual ids, all failed, each saying when and where
    assert [r["id"].split("[")[0] for r in report["records"]] == [
        "breather_h2", "drift_E", "drift_E5", "drift_M", "soliton_speed"]
    assert report["records"][0]["id"] == "breather_h2[order=5,dt=0.125]"
    for r in report["records"]:
        assert not r["pass"] and r["measured"] is None
        assert 0.0 < r["params"]["t_blowup"] <= 1.0
        assert r["params"]["newton_residual"] > ev._NEWTON_TOL
    # each failed run's solver work, the failed step's included, is on its
    # first record
    worked = [r for r in report["records"] if "krylov_solves" in r["params"]]
    assert [r["id"].split("[")[0] for r in worked] == ["breather_h2",
                                                       "soliton_speed"]
    assert all(r["params"]["krylov_solves"] >= 1 for r in worked)
    # the partial trajectory is written, up to the last snapshot before it
    manifest = json.loads(
        (out / "evolve_order5" / "manifest.json").read_text())
    times = [s["t"] for s in manifest["snapshots"]]
    # the breather's first step converges: the failure is a later step's
    assert times[:2] == [0.0, 0.125]
    assert times[-1] < report["records"][0]["params"]["t_blowup"]
    # and each snapshot says what the solver did to reach it
    work = [s["krylov_solves"] for s in manifest["snapshots"]]
    assert work[0] == 0 and len(work) >= 2 and min(work[1:]) >= 1
    # one field row per snapshot of the partial run
    fields = _load_fields(
        (out / "evolve_order5" / "fields.npy").read_bytes())
    assert fields.shape == (len(manifest["snapshots"]), N_SMALL)


def test_stability_blow_up_becomes_failed_records(tmp_path, monkeypatch):
    monkeypatch.setattr(ev, "stability_run_config", _blow_up_config)
    code, out, report = _run_blowing_up(
        tmp_path, "stability", "orders = 5\nshapes = B1\neta = 0.01\n")
    assert code == 1
    ids = [r["id"] for r in report["records"]]
    assert ids == [f"{kind}[order=5,shape=B1,eta=0.01,dt=0.125]"
                   for kind in ("sup_distance", "max_phase_speed")]
    for r in report["records"]:
        assert not r["pass"] and r["measured"] is None
        assert 0.0 < r["params"]["t_blowup"] <= 1.0
    summary = json.loads(
        (out / "stability_order5_B1_eta0.01.json").read_text())
    assert summary["t_blowup"] == report["records"][0]["params"]["t_blowup"]
    assert summary["t_blowup"] > 0.125  # the first step converges
    assert summary["times"][0] == 0.0
    assert summary["times"][-1] < summary["t_blowup"]
    assert len(summary["distances"]) == len(summary["times"])


def test_track_modulation_stops_at_a_failed_fit_only_after_a_blow_up(
        monkeypatch):
    p = cf.BreatherParams(5, 1.0, 1.0)
    w = Window(0.0, 30.0, N_SMALL)
    traj = [ev.Snapshot(t, sample_breather(p, t, w, m=0), {"M": mass})
            for t, mass in ((0.0, 2.0), (0.01, 2.0), (0.02, 3.0), (0.03, 9.0))]
    fit = ev.fit_modulation

    def failing_third(u, p_, t, seed=(0.0, 0.0), memory=None):
        if t == 0.02:
            raise ev.FitError("no convergence")
        return fit(u, p_, t, seed=seed, memory=memory)

    monkeypatch.setattr(ev, "fit_modulation", failing_third)
    with pytest.raises(ev.FitError):
        ev.track_modulation(p, traj, 0.01)
    report = ev.track_modulation(p, traj, 0.01,
                                 ev.BlowUpError(0.04, 1.0, traj, 0, 0))
    assert report.times == (0.0, 0.01)
    assert report.sup_distance < 1e-10
    assert report.drifts == {"M": 0.0}  # over the fitted snapshots only


# --------------------------------------------------------------------------
# full-horizon suites


def test_full_horizon_order5_evolve_suite(tmp_path):
    cfgp = tmp_path / "c.txt"
    cfgp.write_text("orders = 5\n", encoding="utf-8")
    out = tmp_path / "o"
    out.mkdir()
    assert cli.main(["evolve", "--config", str(cfgp), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    records = report["records"]
    assert len(records) == 5
    assert all(r["pass"] for r in records)
    # every record sits far below its budget: the soliton's speed error
    # measured 1.1e-13 cells, riding at the law's speed
    for r in records:
        assert r["measured"] < 1e-10, r["id"]
    # each run's solver work is on one record, and the summary totals it;
    # neither the static breather nor the riding soliton takes a Krylov
    # solve
    breather, speed = records[0]["params"], records[-1]["params"]
    assert records[-1]["id"].startswith("soliton_speed")
    assert speed["krylov_solves"] == speed["gmres_iterations"] == 0
    assert breather["krylov_solves"] == breather["gmres_iterations"] == 0
    assert [r["id"].split("[")[0] for r in records
            if "krylov_solves" in r["params"]] == ["breather_h2",
                                                   "soliton_speed"]
    assert (report["summary"]["krylov_solves"],
            report["summary"]["gmres_iterations"]) == (
                breather["krylov_solves"], breather["gmres_iterations"])


def _default_suite(tmp_path, command):
    out = tmp_path / "o"
    out.mkdir()
    code = cli.main([command, "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())["records"]


def test_default_evolve_suite_passes(tmp_path):
    code, records = _default_suite(tmp_path, "evolve")
    assert len(records) == 15
    assert [r["id"] for r in records if not r["pass"]] == []
    assert code == 0


@pytest.mark.slow
def test_default_stability_suite_keeps_every_shape_close(tmp_path):
    # the gaussian's max_phase_speed is left out: its phases drift linearly
    # in eta, which a phase-only fit reads as a speed (ROADMAP Direction 1)
    _, records = _default_suite(tmp_path, "stability")
    sup = [r for r in records if r["id"].startswith("sup_distance")]
    assert [r["id"].split(",")[1] for r in sup] == [
        "shape=gaussian", "shape=B1", "shape=LambdaBeta"]
    assert all(r["pass"] for r in sup)
    assert all(r["params"]["t_end"] == 5.0 for r in records)
    # the solver's work stays under that of Newton started from (v0, v0)
    # with GMRES run to its relative target alone: 26,941 Krylov solves and
    # 244,710 GMRES iterations
    assert sum(r["params"]["krylov_solves"] for r in sup) < 26941
    assert sum(r["params"]["gmres_iterations"] for r in sup) < 244710


@pytest.mark.slow
@pytest.mark.parametrize("order", ev.EVOLVE_ORDERS)
def test_soliton_run_steps_at_the_rounding_floor(order):
    # the shipped soliton run's halving row (dt, dt/2, dt/4) to its t_end
    # 0.3: a fourth-order scheme lowers the H^2 error 16x per halving, so a
    # row that halving lowers by less than 2x sits at the rounding floor,
    # where a smaller step buys nothing.  The order-5 run takes no Krylov
    # solve
    sp, cfg = ev.soliton_speed_run(order)
    errors = []
    for k in (1, 2, 4):
        run = replace(cfg, dt=cfg.dt / k)
        traj = ev.evolve(sample_soliton(sp, 0.0, run.window, m=0), run,
                         snapshot_every=ev.step_count(run.t_end, run.dt))
        last = traj[-1]
        ref = sample_soliton(sp, last.t, last.field.window, m=0)
        errors.append(sobolev_norm(SampledField(
            last.field.window, last.field.values - ref.values), 2))
        if order == 5 and k == 1:
            assert ev.solver_work(traj) == (0, 0)
    assert max(errors) < 1e-10
    assert errors[1] > errors[0] / 2 and errors[2] > errors[1] / 2, errors
