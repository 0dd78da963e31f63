"""Discrete linearized-operator checks: self-adjointness, spectrum shape,
kernel directions, scaling relations, coercivity."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from mkdvlab import closed_forms as cf
from mkdvlab import spectral as sp
from mkdvlab.functionals import (SampledField, Window, expansion_remainder,
                                 linearization_coefficients, resolved_window,
                                 sample_breather, sobolev_norm,
                                 spectral_derivative, zero_field)


@functools.lru_cache(maxsize=8)
def _default(alpha=1.0, beta=1.0, t=0.0):
    p = cf.BreatherParams(5, alpha, beta)
    opr = sp.build_operator(p, t)
    return p, opr


def _coarse(p, t, n=512):
    """The resolved window of p at time t cut to n points: the dense
    oracles and the block counts run below the resolved grid on purpose."""
    return replace(resolved_window(p, t), n_points=n)


def _physical_matrix(p, t, w):
    """Oracle: the operator as a dense matrix on the grid,
    diag(c_0) + sum_k diag(c_k) derivative_matrix(w, k), symmetrized."""
    coeffs = linearization_coefficients(p, t, w, None)
    raw = np.diag(coeffs[0])
    for k, c in coeffs.items():
        if k:
            raw += sp.derivative_matrix(w, k) * c[:, None]
    return (raw + raw.T) / 2.0


def _dense_fourier_basis(n):
    """Oracle: the orthonormal real Fourier basis as an explicit n x n
    matrix, columns in the order of sp.fourier_coordinates.  The phases are
    reduced mod n before scaling, so each entry is correct to an ulp."""
    h = n // 2
    j = np.arange(n)
    phase = 2.0 * np.pi * (np.outer(j, np.arange(1, h)) % n) / n
    return np.hstack([np.full((n, 1), 1.0 / np.sqrt(n)),
                      np.sqrt(2.0 / n) * np.cos(phase),
                      ((-1.0) ** j / np.sqrt(n))[:, None],
                      np.sqrt(2.0 / n) * np.sin(phase)])


@functools.lru_cache(maxsize=8)
def _eigensystem(alpha=1.0, beta=1.0, t=0.0):
    p, opr = _default(alpha, beta, t)
    return scipy.linalg.eigh(_physical_matrix(p, t, opr.window))


# --------------------------------------------------------------------------
# derivative matrices and Gram matrix

def test_derivative_matrix_exact_on_harmonics():
    # dense rows carry rounding of order eps * k_max^m
    w = Window(0.0, 10.0, 256)
    x = w.grid()
    k1 = 2.0 * np.pi / w.length
    kmax = np.pi * w.n_points / w.length
    for m, ref in ((1, 3 * k1 * np.cos(3 * k1 * x)),
                   (2, -(3 * k1) ** 2 * np.sin(3 * k1 * x)),
                   (4, (3 * k1) ** 4 * np.sin(3 * k1 * x))):
        D = sp.derivative_matrix(w, m)
        err = np.max(np.abs(D @ np.sin(3 * k1 * x) - ref))
        assert err <= 50.0 * np.finfo(float).eps * kmax**m


def test_derivative_matrix_exact_parity():
    w = Window(0.3, 7.0, 256)
    assert np.array_equal(sp.derivative_matrix(w, 1),
                          -sp.derivative_matrix(w, 1).T)
    for m in (2, 4):
        D = sp.derivative_matrix(w, m)
        assert np.array_equal(D, D.T)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_derivative_matrix_matches_spectral_derivative(m):
    # both apply w.derivative_multiplier(m); a random vector fills every bin
    w = Window(0.3, 7.0, 256)
    v = np.random.default_rng(m).standard_normal(w.n_points)
    want = spectral_derivative(v, w, m)
    err = np.max(np.abs(sp.derivative_matrix(w, m) @ v - want))
    assert err <= 1e-11 * np.max(np.abs(want))


def test_nyquist_mode_has_no_odd_derivative():
    # cos(k_N x) is the symmetric interpolant of the Nyquist bin: its odd
    # derivatives vanish on the grid, its even ones are (-k_N^2)^(m/2) times it
    w = Window(0.3, 7.0, 256)
    v = np.cos(np.pi * np.arange(w.n_points))
    k_nyq = np.pi / w.spacing
    for m in (1, 3):
        assert w.derivative_multiplier(m)[-1] == 0.0
        assert not np.any(spectral_derivative(v, w, m))
        Dv = sp.derivative_matrix(w, m) @ v
        assert np.max(np.abs(Dv)) <= 1e-13 * k_nyq**m
    for m in (2, 4):
        want = (-k_nyq**2) ** (m // 2) * v
        err = np.max(np.abs(spectral_derivative(v, w, m) - want))
        assert err <= 1e-13 * k_nyq**m


def _fft_multiplier_matrix(w, symbol):
    # dense multiplier built column by column from FFTs of the identity
    F = np.fft.fft(np.eye(w.n_points), axis=0)
    return np.fft.ifft(symbol[:, None] * F, axis=0).real


@pytest.mark.parametrize("n,half", [(256, 7.0), (512, 21.0)])
def test_circulant_assembly_matches_fft_oracle(n, half):
    w = Window(0.3, half, n)
    eps = np.finfo(float).eps
    kmax = np.pi * n / w.length
    # the full-spectrum wavenumbers in fft order, built here for the oracle
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=w.spacing)
    for m in (1, 2, 4):
        mult = (1j * k) ** m
        if m % 2 == 1:
            mult[n // 2] = 0.0
        ref = _fft_multiplier_matrix(w, mult)
        err = np.max(np.abs(sp.derivative_matrix(w, m) - ref))
        assert err <= 50.0 * eps * kmax**m
    ref = _fft_multiplier_matrix(w, (1.0 + k**2) ** 2)
    err = np.max(np.abs(sp.sobolev_gram(w) - ref))
    assert err <= eps * (1.0 + kmax**2) ** 2
    G = sp.sobolev_gram(w)
    assert np.array_equal(G, G.T)


def test_sobolev_gram_matches_norm():
    w = Window(0.0, 12.0, 256)
    x = w.grid()
    k1 = 2.0 * np.pi / w.length
    rng = np.random.default_rng(3)
    z = sum(c * np.cos(k * k1 * x + f)
            for c, k, f in zip(rng.normal(size=5),
                               rng.integers(1, 12, size=5),
                               rng.uniform(0, 2 * np.pi, size=5)))
    G = sp.sobolev_gram(w)
    quad = np.sqrt(w.spacing * z @ G @ z)
    ref = sobolev_norm(SampledField(w, z), 2)
    assert abs(quad - ref) <= 1e-10 * ref


# --------------------------------------------------------------------------
# operator assembly

def _asymmetry_on_smooth_probes(p, w):
    """Worst |z^T A y - y^T A z| / (|z||y|) over smooth periodic probes, for
    the unsymmetrized layout A z = sum_k c_k z_{kx} that build_operator
    assembles at the breather.

    The entrywise difference A - A^T concentrates in couplings between
    band-edge Fourier modes: the layout diag(c) D2 + diag(c_x) D1 telescopes
    exactly only inside the resolved band.  Those couplings never act on
    resolved fields and are removed by the symmetrization.  The products are
    evaluated by applying the layout through FFTs: forming them from the
    dense matrix would add rounding noise of order eps * k_max^4, burying
    the figure the probes measure.
    """
    terms = cf.breather_linearization(p.alpha, p.beta)
    m = max(map(cf.max_order, terms.values()))
    background = sample_breather(p, 0.0, w, m=m)
    jet = [background.deriv(k) for k in range(m + 1)]
    coeffs = {k: cf.eval_flux_terms(c, jet) for k, c in terms.items()}
    x, waves = w.grid(), w.wavenumbers()
    probes = [np.cos(waves[1] * x), np.sin(waves[1] * x),
              np.cos(waves[2] * x), np.sin(waves[3] * x)]

    def apply(z):
        return sum(c * spectral_derivative(z, w, k) if k else c * z
                   for k, c in coeffs.items())

    images = [apply(z) for z in probes]
    worst = 0.0
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            val = abs(probes[j] @ images[i] - probes[i] @ images[j])
            val /= np.linalg.norm(probes[i]) * np.linalg.norm(probes[j])
            worst = max(worst, val)
    return worst


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.2, 0.8)])
def test_recorded_asymmetry_within_budget(alpha, beta):
    p = cf.BreatherParams(5, alpha, beta)
    asymmetry = _asymmetry_on_smooth_probes(p, resolved_window(p))
    print(f"asymmetry ({alpha},{beta}): {asymmetry:.3e}")
    assert asymmetry <= 1e-10


def test_matrix_exactly_symmetric():
    for opr in (_default()[1], _default(1.2, 0.8, 0.45)[1]):
        for _, A in opr.blocks:
            assert np.array_equal(A, A.T)


@pytest.mark.parametrize("n", [8, 256])
def test_real_fourier_basis_matches_dense_oracle(n):
    rng = np.random.default_rng(7)
    Q = _dense_fourier_basis(n)
    assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-14
    # the cos modes are fixed by the grid reflection, the sin modes negated
    refl = -np.arange(n) % n
    h = n // 2
    np.testing.assert_allclose(Q[refl, :h + 1], Q[:, :h + 1], rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(Q[refl, h + 1:], -Q[:, h + 1:], rtol=0,
                               atol=1e-15)
    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-14)
    V = rng.normal(size=(n, 3))
    close(sp.fourier_coordinates(V), Q.T @ V)
    close(sp.fourier_coordinates(V[:, 0]), Q.T @ V[:, 0])
    close(sp.grid_values(V), Q @ V)
    close(sp.grid_values(sp.fourier_coordinates(V)), V)


@pytest.mark.parametrize("alpha,beta,t,center,blocks", [
    (1.0, 1.0, 0.0, None, 2), (1.2, 0.8, 0.0, None, 2),
    (1.2, 0.8, 0.0, 0.37, 1), (1.2, 0.8, 0.45, None, 1)])
def test_blocks_match_dense_oracle(alpha, beta, t, center, blocks):
    # centred: the cos and sin blocks of Q^T A Q; off-centre or t != 0: the
    # whole of Q^T A Q, cos-sin coupling included
    p = cf.BreatherParams(5, alpha, beta)
    w = _coarse(p, t)
    if center is not None:
        w = replace(w, center=center)
    opr = sp.build_operator(p, t, w)
    A = _physical_matrix(p, t, w)
    Q = _dense_fourier_basis(512)
    ref = Q.T @ A @ Q
    assert len(opr.blocks) == blocks
    got = scipy.linalg.block_diag(*(A for _, A in opr.blocks))
    err = np.max(np.abs(got - ref)) / np.max(np.abs(A))
    print(f"({alpha},{beta}) t={t} centre={center}: {err:.2e} of max|A|")
    assert err <= 1e-13
    z = np.random.default_rng(3).standard_normal(512)
    np.testing.assert_allclose(opr.apply(z), A @ z, rtol=0,
                               atol=1e-13 * np.max(np.abs(A @ z)))


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.2, 0.8), (0.5, 2.0)])
def test_expansion_quadratic_is_half_z_L_z_of_the_operator(alpha, beta):
    # expansion_remainder's Q[z]/2 and (h/2) z^T L z of the assembled
    # operator are one discrete quantity, so they differ by rounding alone:
    # at most gamma_n = n eps of (h/2) |c|^T |A| |c| over the blocks, c the
    # Fourier coordinates of z (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.5)
    p, opr = _default(alpha, beta)
    w = opr.window
    x = w.grid()
    k1 = 2.0 * np.pi / w.length
    rng = np.random.default_rng(11)
    for _ in range(3):
        z = sum(c * np.cos(k * k1 * x + f)
                for c, k, f in zip(rng.normal(size=4),
                                   rng.integers(1, 9, size=4),
                                   rng.uniform(0, 2 * np.pi, size=4)))
        z *= np.exp(-((x - w.center) ** 2) / 8.0)
        z *= 0.05 / sobolev_norm(SampledField(w, z), 2)
        quadratic, _ = expansion_remainder(p, SampledField(w, z), 0.0)
        coords = np.abs(sp.fourier_coordinates(z))
        size = 0.5 * w.spacing * sum(coords[block] @ np.abs(A) @ coords[block]
                                     for block, A in opr.blocks)
        want = 0.5 * w.spacing * (z @ opr.apply(z))
        assert abs(quadratic - want) <= w.n_points * np.finfo(float).eps * size


def test_window_too_small_rejected():
    p = cf.BreatherParams(5, 1.0, 1.0)
    with pytest.raises(ValueError, match="half_width"):
        sp.build_operator(p, 0.0, Window(0.0, 3.0, 256))


def test_zero_background_reduces_to_constant_coefficients():
    # with B = 0 the spectrum is the symbol on the k-grid: no negatives,
    # no kernel, floor exactly at the continuum edge
    p = cf.BreatherParams(5, 1.0, 1.0)
    w = resolved_window(p)
    opr = sp.build_operator(p, 0.0, w, background=zero_field(w))
    summ = sp.spectrum(opr)
    assert len(summ.negative_eigenvalues) == 0
    assert summ.kernel_dimension == 0
    assert summ.lambda0_sq == 0.0
    edge = sp.continuum_edge(1.0, 1.0)
    assert abs(summ.continuum_edge_estimate - edge) <= 1e-6


# --------------------------------------------------------------------------
# spectrum classification

def test_continuum_edge_branches():
    assert sp.continuum_edge(1.0, 2.0) == 25.0
    assert sp.continuum_edge(2.0, 1.0) == 16.0
    assert sp.continuum_edge(1.0, 1.0) == 4.0
    # the symbol minimum, sampled densely, agrees with the branch formula
    k = np.linspace(0.0, 6.0, 20001)
    for a, b in ((0.5, 2.0), (2.0, 0.5), (1.3, 0.7)):
        symbol = k**4 + 2 * (b**2 - a**2) * k**2 + (a**2 + b**2) ** 2
        assert abs(symbol.min() - sp.continuum_edge(a, b)) <= 1e-6


def test_default_spectrum_classification():
    _, opr = _default()
    summ = sp.spectrum(opr)
    print(f"negative: {summ.negative_eigenvalues}, kernel: {summ.kernel_eigenvalues}")
    assert len(summ.negative_eigenvalues) == 1
    assert summ.kernel_dimension == 2
    assert abs(summ.lambda0_sq - 8.605912117833938) <= 1e-6
    assert abs(summ.continuum_edge_estimate - 4.0) <= 0.02 * 4.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_classification_sweep(alpha, beta):
    p = cf.BreatherParams(5, alpha, beta)
    w = Window(0.0, 20.0 / beta + 1.0, 512)
    opr = sp.build_operator(p, 0.0, w)
    summ = sp.spectrum(opr)
    edge = sp.continuum_edge(alpha, beta)
    rel = abs(summ.continuum_edge_estimate - edge) / edge
    print(f"({alpha},{beta}): neg {len(summ.negative_eigenvalues)} "
          f"ker {summ.kernel_dimension} edge rel {rel:.2e}")
    assert len(summ.negative_eigenvalues) == 1
    assert summ.kernel_dimension == 2
    assert rel <= 0.02


def test_eigenvalues_stable_under_grid_doubling():
    p = cf.BreatherParams(5, 1.0, 1.0)
    lows = {}
    for n in (512, 1024):
        w = Window(0.0, 21.0, n)
        vals = scipy.linalg.eigh(_physical_matrix(p, 0.0, w),
                                 eigvals_only=True)
        lows[n] = np.sort(vals)[:5]
    drift = np.max(np.abs(lows[512] - lows[1024]))
    print(f"5 lowest, doubling drift: {drift:.3e}")
    assert drift <= 1e-8


def test_bottom_k_spectrum_matches_full_eigh():
    _, opr = _default()
    summ = sp.spectrum(opr)
    vals, vecs = _eigensystem()
    tol = summ.kernel_tol
    scale = 50.0 * np.finfo(float).eps * np.max(np.abs(vals))
    neg = vals[vals < -tol]
    ker = vals[np.abs(vals) <= tol]
    assert len(summ.negative_eigenvalues) == len(neg) == 1
    assert len(summ.kernel_eigenvalues) == len(ker) == 2
    assert np.max(np.abs(np.array(summ.negative_eigenvalues) - neg)) <= scale
    assert np.max(np.abs(np.array(summ.kernel_eigenvalues) - ker)) <= scale
    assert abs(summ.continuum_edge_estimate - vals[vals > tol].min()) <= scale
    v, ref = summ.lowest_vector, vecs[:, 0]
    assert min(np.linalg.norm(v - ref), np.linalg.norm(v + ref)) <= 1e-8


def test_bottom_k_grows_past_many_negative_eigenvalues(monkeypatch):
    # 20 eigenvalues below -tol, a kernel pair, then the continuum: the
    # subset grows 8 -> 16 -> 32 before an eigenvalue clears the tolerance
    n = 256
    diag = np.concatenate([-np.arange(20, 0, -1.0), [0.0, 1e-9],
                           np.arange(1.0, n - 21.0)])
    order = np.random.default_rng(2).permutation(n)
    opr = sp.DiscreteOperator(Window(0.0, 10.0, n),
                              ((slice(0, n), np.diag(diag[order])),),
                              1.0, 1.0)
    sizes = []
    eigh = scipy.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        sizes.append(kwargs["subset_by_index"][1] + 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    summ = sp.spectrum(opr)
    assert sizes == [8, 16, 32]
    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    close(summ.negative_eigenvalues, -np.arange(20, 0, -1.0))
    close(summ.kernel_eigenvalues, [0.0, 1e-9])
    close(summ.continuum_edge_estimate, 1.0)
    close(summ.lambda0_sq, 20.0)
    lowest = sp.fourier_coordinates(summ.lowest_vector)
    close(abs(lowest[np.argsort(order)[0]]), 1.0)


def test_bottom_k_stops_at_full_size():
    # every eigenvalue is inside the kernel tolerance: the subset reaches n
    n = 256
    opr = sp.DiscreteOperator(Window(0.0, 10.0, n),
                              ((slice(0, n), np.zeros((n, n))),),
                              1.0, 1.0)
    summ = sp.spectrum(opr)
    assert summ.kernel_dimension == n
    assert summ.continuum_edge_estimate == float("inf")


def test_summary_json_dict():
    _, opr = _default()
    d = sp.spectrum(opr).to_json_dict()
    assert set(d) == {"negative_eigenvalues", "kernel_eigenvalues",
                      "kernel_dimension", "continuum_edge_estimate",
                      "lambda0_sq", "kernel_tol"}
    assert d["kernel_dimension"] == 2
    assert isinstance(d["negative_eigenvalues"], list)


# --------------------------------------------------------------------------
# kernel and scaling directions

def test_kernel_directions_annihilated():
    _, opr = _default()
    dirs = sp.directions(cf.BreatherParams(5, 1.0, 1.0), 0.0, opr.window)
    for name, f in (("B1", dirs.B1), ("B2", dirs.B2)):
        ratio = np.linalg.norm(opr.apply(f)) / np.linalg.norm(f)
        print(f"|L {name}| / |{name}| = {ratio:.3e}")
        assert ratio <= 1e-6


def test_kernel_eigenvectors_span_translation_directions():
    _, opr = _default()
    summ = sp.spectrum(opr)
    dirs = sp.directions(cf.BreatherParams(5, 1.0, 1.0), 0.0, opr.window)
    K = summ.kernel_vectors
    for f in (dirs.B1, dirs.B2):
        v = f / np.linalg.norm(f)
        coef, *_ = np.linalg.lstsq(K, v, rcond=None)
        assert np.linalg.norm(K @ coef - v) <= 1e-5


def test_translation_directions_independent():
    _, opr = _default()
    dirs = sp.directions(cf.BreatherParams(5, 1.0, 1.0), 0.0, opr.window)
    C = np.stack([dirs.B1, dirs.B2])
    s = np.linalg.svd(C, compute_uv=False)
    assert s[1] / s[0] > 1e-3


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.2, 0.8)])
def test_scaling_direction_quadratic_forms(alpha, beta):
    # <L La, La> = 16 a^2 b and <L Lb, Lb> = -16 a^2 b
    p, opr = _default(alpha, beta)
    dirs = sp.directions(p, 0.0, opr.window)
    w = opr.window
    qa = w.quad(dirs.lambda_alpha * opr.apply(dirs.lambda_alpha))
    qb = w.quad(dirs.lambda_beta * opr.apply(dirs.lambda_beta))
    target = 16.0 * alpha**2 * beta
    print(f"({alpha},{beta}): <L La,La> = {qa:.9f}, <L Lb,Lb> = {qb:.9f}, "
          f"target +/-{target:.9f}")
    assert abs(qa - target) <= 1e-6 * max(1.0, target)
    assert abs(qb + target) <= 1e-6 * max(1.0, target)


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.2, 0.8)])
def test_b0_relations(alpha, beta):
    p, opr = _default(alpha, beta)
    dirs = sp.directions(p, 0.0, opr.window)
    lhs1, lhs2, residual = sp.b0_relations(p, 0.0, opr, dirs)
    target = 1.0 / (4.0 * beta * (alpha**2 + beta**2))
    print(f"({alpha},{beta}): int B0 B = {lhs1:.10f} (target {target:.10f}), "
          f"(1/2) int B0 L B0 = {lhs2:.10f}, |L B0 + B| rel = {residual:.3e}")
    assert abs(lhs1 - target) <= 1e-5 * target
    assert abs(lhs2 + 0.5 * target) <= 1e-5 * target
    assert residual <= 1e-6
    # the two integrals are tied through L B0 = -B
    assert abs(lhs2 + 0.5 * lhs1) <= 1e-8


@pytest.mark.parametrize("alpha,beta,n", [(4.0, 0.5, 1024), (1.0, 1.0, 512)])
def test_b0_inversion_resolved_on_coarse_grids(alpha, beta, n):
    # both grids, taken as they are, under-resolve the breather (b0_inversion
    # 3.6e-3 and 6.3e-3); the resolved window doubles their points
    p = cf.BreatherParams(5, alpha, beta)
    w = resolved_window(p, 0.0, n)
    opr = sp.build_operator(p, 0.0, w)
    assert sp.b0_relations(p, 0.0, opr, sp.directions(p, 0.0, w))[2] <= 1e-4


# --------------------------------------------------------------------------
# Wronskian of the kernel pair

def test_wronskian_matches_closed_form():
    rng = np.random.default_rng(5)
    p = cf.BreatherParams(5, 1.1, 0.9, 0.15, -0.25)
    xs = rng.uniform(-6.0, 6.0, size=200)
    residual = sp.wronskian_check(p, 0.37, xs)
    print(f"wronskian normalized residual: {residual:.3e}")
    assert residual <= 1e-8


def test_wronskian_odd_at_symmetric_phases():
    # with x1 = x2 = 0 and t = 0 both terms are odd, so W(-x) = -W(x)
    p = cf.BreatherParams(5, 1.3, 0.7)
    x = np.linspace(0.1, 4.0, 50)
    w_pos = sp.wronskian_closed_form(p, 0.0, x)
    w_neg = sp.wronskian_closed_form(p, 0.0, -x)
    assert np.max(np.abs(w_pos + w_neg)) <= 1e-12 * np.max(np.abs(w_pos))
    assert abs(sp.wronskian_closed_form(p, 0.0, np.array([0.0]))[0]) <= 1e-14


# --------------------------------------------------------------------------
# coercivity on the constrained subspace

def test_coercivity_positive_and_stable():
    p, opr = _default()
    vals, vecs = _eigensystem()
    dirs = sp.directions(p, 0.0, opr.window)
    nu0 = sp.coercivity(opr, dirs, vecs[:, 0])
    print(f"nu0 = {nu0:.12f}")
    assert nu0 > 0.0
    assert abs(nu0 - 0.0951925561348069) <= 1e-6


def test_coercivity_needs_kernel_constraint():
    # without B1-orthogonality the kernel direction re-enters and the
    # constrained minimum collapses to zero
    p, opr = _default()
    vals, vecs = _eigensystem()
    dirs = sp.directions(p, 0.0, opr.window)
    loose = _coercivity_oracle(p, 0.0, opr.window,
                               [vecs[:, 0], dirs.B2])
    nu0 = sp.coercivity(opr, dirs, vecs[:, 0])
    print(f"without B1 constraint: {loose:.3e} (constrained {nu0:.6f})")
    assert abs(loose) <= 1e-6
    assert nu0 > 1e3 * abs(loose)


def test_coercivity_rejects_degenerate_constraints():
    p, opr = _default()
    dirs = sp.directions(p, 0.0, opr.window)
    with pytest.raises(ValueError, match="rank-deficient"):
        sp.coercivity(opr, dirs, dirs.B1)


def test_kernel_direction_has_zero_quadratic_form():
    p, opr = _default()
    dirs = sp.directions(p, 0.0, opr.window)
    w = opr.window
    q = w.quad(dirs.B1 * opr.apply(dirs.B1))
    q /= w.quad(dirs.B1 ** 2)
    assert abs(q) <= 1e-6


def _nu0(p, t, w):
    opr = sp.build_operator(p, t, w)
    _, vecs = scipy.linalg.eigh(_physical_matrix(p, t, w))
    return sp.coercivity(opr, sp.directions(p, t, w), vecs[:, 0])


def test_coercivity_refinement_and_phase_covariance():
    p = cf.BreatherParams(5, 1.0, 1.0)
    nus = {}
    for n in (512, 1024):
        w = Window(0.0, 21.0, n)
        nus[n] = _nu0(p, 0.0, w)
    print(f"nu0 at n=512: {nus[512]:.12f}, n=1024: {nus[1024]:.12f}")
    assert abs(nus[512] - nus[1024]) <= 1e-6

    # B(t; x1, x2) = B(0; x1 + delta t, x2 + gamma t): time enters only
    # through the phases.  At (1.2, 0.8) delta != gamma, so the internal
    # phase theta = x1 - x2 moves with t and the profile changes shape.
    p = cf.BreatherParams(5, 1.2, 0.8, x1=0.3, x2=-0.2)
    t, v = 0.45, p.velocities()
    assert abs(v.delta - v.gamma) > 1.0
    moved = replace(p, x1=p.x1 + v.delta * t, x2=p.x2 + v.gamma * t)
    w = _coarse(moved, 0.0)
    at_t, at_0 = _nu0(p, t, w), _nu0(moved, 0.0, w)
    print(f"nu0 at t={t}: {at_t:.15f}, at the moved phases: {at_0:.15f}")
    assert abs(at_t - at_0) <= 1e-9 * at_0
    # nu0 is pi/alpha-periodic and even in theta: both ends of [0, pi/(2 alpha)]
    for x1 in (0.0, math.pi / (2.0 * p.alpha)):
        q = cf.BreatherParams(5, p.alpha, p.beta, x1=x1)
        nu = _nu0(q, 0.0, _coarse(q, 0.0))
        print(f"nu0 at theta={x1:.6f}: {nu:.6f}")
        assert nu > 0


# --------------------------------------------------------------------------
# parity blocks

def _sin_lowest_operator():
    """A two-block operator on 256 points whose sin block holds the lowest
    eigenvalue, -3, and the continuum edge, 2; the cos block holds -1 and
    5 upward.  Returns the operator and the sin block's eigenvectors."""
    n = 256
    h = n // 2
    rng = np.random.default_rng(5)
    de = np.concatenate([[-1.0], 5.0 + np.arange(h)])
    do = np.concatenate([[-3.0, 0.0, 2.0], 7.0 + np.arange(h - 4)])
    Re, _ = np.linalg.qr(rng.normal(size=(len(de), len(de))))
    Ro, _ = np.linalg.qr(rng.normal(size=(len(do), len(do))))
    cos, sin = (R @ np.diag(d) @ R.T for R, d in ((Re, de), (Ro, do)))
    opr = sp.DiscreteOperator(Window(0.0, 10.0, n),
                              ((slice(0, h + 1), (cos + cos.T) / 2.0),
                               (slice(h + 1, n), (sin + sin.T) / 2.0)),
                              1.0, 1.0)
    return opr, Ro


def test_spectrum_merges_the_blocks_in_ascending_order():
    # the sin block holds the lowest eigenvalue and the continuum edge, so
    # the classification must come from the merged, sorted eigenpairs
    opr, Ro = _sin_lowest_operator()
    n = opr.window.n_points
    h = n // 2
    summ = sp.spectrum(opr)
    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    close(summ.negative_eigenvalues, [-3.0, -1.0])
    close(summ.kernel_eigenvalues, [0.0])
    close(summ.continuum_edge_estimate, 2.0)
    lowest = sp.fourier_coordinates(summ.lowest_vector)
    close(lowest[:h + 1], 0.0)
    close(abs(lowest[h + 1:] @ Ro[:, 0]), 1.0)
    # the grid vector is odd: a sin-block eigenvector
    close(summ.lowest_vector[-np.arange(n) % n], -summ.lowest_vector)


def test_parity_blocks_detected_from_the_coefficients():
    # (alpha, beta) = (1, 1) would not do for t != 0: there delta = gamma,
    # and the breather moves rigidly, even about the window centre
    p = cf.BreatherParams(5, 1.2, 0.8)
    w = _coarse(p, 0.0)
    sizes = {name: tuple(len(A) for _, A in opr.blocks)
             for name, opr in (
                 ("centred", sp.build_operator(p, 0.0, w)),
                 ("t=0.45", sp.build_operator(p, 0.45)),
                 ("off-centre", sp.build_operator(
                     p, 0.0, replace(w, center=0.37))),
                 ("zero", sp.build_operator(p, 0.0, w,
                                            background=zero_field(w))))}
    assert sizes == {"centred": (257, 255), "t=0.45": (1024,),
                     "off-centre": (512,), "zero": (257, 255)}


def _counting(monkeypatch, module, name):
    """Rebind module.name to record the size of its first argument, call
    by call; returns the list of sizes."""
    calls = []
    fn = getattr(module, name)

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _counting_eigh(monkeypatch):
    return _counting(monkeypatch, scipy.linalg, "eigh")


def _counting_dpotrf(monkeypatch):
    return _counting(monkeypatch, scipy.linalg.lapack, "dpotrf")


@pytest.mark.parametrize("t,center", [(0.45, None), (0.0, 0.37)])
def test_spectrum_without_symmetry_takes_one_block(t, center, monkeypatch):
    p = cf.BreatherParams(5, 1.2, 0.8)
    w = _coarse(p, t)
    if center is not None:
        w = replace(w, center=center)
    opr = sp.build_operator(p, t, w)
    vals, vecs = scipy.linalg.eigh(_physical_matrix(p, t, w))
    calls = _counting_eigh(monkeypatch)
    summ = sp.spectrum(opr)
    assert calls == [512]
    tol = summ.kernel_tol
    scale = 50.0 * np.finfo(float).eps * np.max(np.abs(vals))
    close = functools.partial(np.testing.assert_allclose, rtol=0, atol=scale)
    close(summ.negative_eigenvalues, vals[vals < -tol])
    close(summ.kernel_eigenvalues, vals[np.abs(vals) <= tol])
    close(summ.continuum_edge_estimate, vals[vals > tol].min())
    v, ref = summ.lowest_vector, vecs[:, 0]
    assert min(np.linalg.norm(v - ref), np.linalg.norm(v + ref)) <= 1e-8
    # so is the constrained problem of coercivity
    dirs = sp.directions(p, t, w)
    got = sp.coercivity(opr, dirs, v)
    assert len(calls) == 2
    want = _coercivity_oracle(p, t, w, [v, dirs.B1, dirs.B2])
    assert abs(got - want) <= 1e-9 * abs(want)


def _coercivity_oracle(p, t, w, constraints):
    # the generalized problem (A_c, G_c) on an explicit orthonormal basis of
    # the complement, with the dense grid matrix and circulant Gram matrix
    Z = scipy.linalg.null_space(np.stack(constraints))
    A = Z.T @ _physical_matrix(p, t, w) @ Z
    G = Z.T @ sp.sobolev_gram(w) @ Z
    return scipy.linalg.eigh(A, G, subset_by_index=[0, 0],
                             eigvals_only=True)[0]


@pytest.mark.parametrize("alpha,beta", [(1.2, 0.8), (1.0, 1.0), (0.7, 1.3),
                                        (0.75, 2.0)])
@pytest.mark.parametrize("first,blocks", [("negative", 2), ("gaussian", 1),
                                          ("odd", 2)])
def test_coercivity_blocks_match_whole_space_oracle(alpha, beta, first,
                                                    blocks, monkeypatch):
    p = cf.BreatherParams(5, alpha, beta)
    opr = sp.build_operator(p, 0.0, Window(0.0, 20.0 / beta + 1.0, 512))
    dirs = sp.directions(p, 0.0, opr.window)
    x = opr.window.grid()
    # the first constraint, in place of the negative direction
    vec = {"negative": sp.spectrum(opr).lowest_vector,
           # even and odd parts both present: the constraints do not split
           "gaussian": np.exp(-(x - 1.3) ** 2),
           # odd like B1 and B2: the even block holds no constraint
           "odd": x * np.exp(-x ** 2)}[first]
    want = _coercivity_oracle(p, 0.0, opr.window,
                              [vec, dirs.B1, dirs.B2])
    calls = _counting_eigh(monkeypatch)
    potrfs = _counting_dpotrf(monkeypatch)
    got = sp.coercivity(opr, dirs, vec)
    print(f"({alpha},{beta}) {first}: nu0 {got:.12f}, oracle {want:.12f}")
    # one eigh on the first block (or the whole space); where the
    # constraints split, the sin block is proved above it, not solved
    assert (len(calls), len(potrfs)) == (1, blocks - 1)
    assert abs(got - want) <= 1e-9 * abs(want)
    # bitwise the minimum of an eigh on every block
    monkeypatch.setattr(sp, "_exceeds", lambda A, value: False)
    assert got == sp.coercivity(opr, dirs, vec)


@pytest.mark.parametrize("t", [0.0, 0.45])
def test_coercivity_rejects_constraints_in_the_kernel_span(t):
    p = cf.BreatherParams(5, 1.2, 0.8)
    opr = sp.build_operator(p, t)
    dirs = sp.directions(p, t, opr.window)
    for vec in (dirs.B1 - 2.0 * dirs.B2,
                np.zeros(opr.window.n_points)):
        with pytest.raises(ValueError, match="rank-deficient"):
            sp.coercivity(opr, dirs, vec)


@pytest.mark.parametrize("alpha,beta", [(1.2, 0.8), (0.75, 2.0)])
def test_coercivity_solves_a_sin_block_below_the_cos_block(alpha, beta,
                                                          monkeypatch):
    # three even constraints leave the kernel, in the sin block,
    # unconstrained: the sin block's minimum (zero to rounding) lies below
    # the cos block's, so its certificate fails and it gets its eigh
    p = cf.BreatherParams(5, alpha, beta)
    opr = sp.build_operator(p, 0.0, Window(0.0, 20.0 / beta + 1.0, 512))
    x = opr.window.grid()
    dirs = replace(sp.directions(p, 0.0, opr.window), B1=np.exp(-x ** 2),
                   B2=x ** 2 * np.exp(-x ** 2))
    vec = sp.spectrum(opr).lowest_vector
    want = _coercivity_oracle(p, 0.0, opr.window, [vec, dirs.B1, dirs.B2])
    calls = _counting_eigh(monkeypatch)
    potrfs = _counting_dpotrf(monkeypatch)
    got = sp.coercivity(opr, dirs, vec)
    print(f"({alpha},{beta}): nu0 {got:.3e}, oracle {want:.3e}")
    assert (calls, potrfs) == ([257 - 3, 255], [255])
    assert abs(got - want) <= 1e-10
    monkeypatch.setattr(sp, "_exceeds", lambda A, value: False)
    assert got == sp.coercivity(opr, dirs, vec)


def _certified_coercivity_block(monkeypatch):
    """The constrained, whitened sin block that coercivity proves to lie
    above the cos block's minimum at the default breather."""
    seen = []
    exceeds = sp._exceeds

    def capturing(A, value):
        seen.append(np.array(A))
        return exceeds(A, value)

    p, opr = _default()
    dirs = sp.directions(p, 0.0, opr.window)
    with monkeypatch.context() as m:
        m.setattr(sp, "_exceeds", capturing)
        sp.coercivity(opr, dirs, sp.spectrum(opr).lowest_vector)
    block, = seen
    return block


@pytest.mark.parametrize("case", ["random-5", "random-60", "random-300",
                                  "coercivity"])
def test_exceeds_agrees_with_eigvalsh_around_the_minimum(case, monkeypatch):
    if case == "coercivity":
        A = _certified_coercivity_block(monkeypatch)
    else:
        m = int(case.split("-")[1])
        G = np.random.default_rng(m).normal(size=(m, m))
        A = (G + G.T) / 2.0
    before = A.copy()
    vals = np.linalg.eigvalsh(A)
    gap = 1e-9 * np.max(np.abs(vals))
    assert sp._exceeds(A, vals[0] - gap)
    assert not sp._exceeds(A, vals[0] + gap)
    assert not sp._exceeds(A, vals[len(vals) // 2])
    # the argument is left as it was
    assert np.array_equal(A, before)


@pytest.mark.parametrize("alpha,beta,t", [(1.0, 1.0, 0.0), (1.2, 0.8, 0.0),
                                          (0.75, 2.0, 0.0), (2.0, 0.5, 0.0),
                                          (1.2, 0.8, 0.45)])
def test_lowest_vector_is_the_spectrums(alpha, beta, t, monkeypatch):
    # at the centred breather (t = 0) the cos block holds the negative
    # eigenvalue: it gets spectrum's solve, and the sin block one
    # factorization.  Without the symmetry the one block is solved
    p = cf.BreatherParams(5, alpha, beta)
    opr = sp.build_operator(p, t, _coarse(p, t))
    want = sp.spectrum(opr).lowest_vector
    calls = _counting_eigh(monkeypatch)
    potrfs = _counting_dpotrf(monkeypatch)
    got = sp.lowest_vector(opr)
    assert (calls, potrfs) == (([512], []) if t else ([257], [255]))
    assert np.array_equal(got, want)


def test_lowest_vector_solves_a_later_block_that_holds_it(monkeypatch):
    opr, _ = _sin_lowest_operator()
    want = sp.spectrum(opr).lowest_vector
    calls = _counting_eigh(monkeypatch)
    potrfs = _counting_dpotrf(monkeypatch)
    got = sp.lowest_vector(opr)
    assert (calls, potrfs) == ([129, 127], [127])
    assert np.array_equal(got, want)
