"""Discrete spectral analysis of the fourth-order operator obtained by
linearizing the stationary breather equation.

The operator is the Frechet derivative of dH/du, H = E5 + 2(b^2-a^2) E +
(a^2+b^2)^2 M, at the breather B (closed_forms.breather_linearization),
with its coefficients sampled by functionals.linearization_coefficients,
which also gives functionals.expansion_remainder its Q[z] = <z, L z>:

    L[z] = z_4x - 2(b^2-a^2) z_xx + (a^2+b^2)^2 z
           + 10 B^2 z_xx + 20 B B_x z_x
           + [10 B_x^2 + 20 B B_xx + 30 B^4 - 12(b^2-a^2) B^2] z

It is the symmetrized Fourier collocation operator (A + A^T)/2 with
A = sum_k diag(c_k) D_k on a periodic window of n points (by default
functionals.resolved_window, n doubled until B is resolved), c_k the sampled
coefficients and D_k the multiplier Window.derivative_multiplier(k).  Only
the bottom of the spectrum is computed.  Expected: one simple negative
eigenvalue, a two-dimensional kernel spanned by the translation directions,
and discrete continuum starting at the minimum of the symbol
k^4 + 2(b^2-a^2) k^2 + (a^2+b^2)^2, attained at k=0 when b >= a and at
k^2 = a^2 - b^2 otherwise.

The operator is held in the orthonormal real Fourier basis of the grid:
the cos modes p = 0 .. n/2, then the sin modes p = 1 .. n/2-1
(`fourier_coordinates`, `grid_values`; one rfft or irfft each way).  Its
matrix is assembled there directly from the FFTs of the coefficients, one
real (n x K) @ (K x (n/2+1)) product read through two Hankel views
(`_assemble`); no physical n x n matrix is formed.

The cos modes are the even vectors of the grid reflection j -> -j mod n and
the sin modes the odd ones, so the parity blocks are the cos and the sin
block.  At t = 0 with x1 = x2 = 0 the breather is even about the centre of
its default window: the even-order coefficients have real spectra, the
odd-order ones imaginary spectra, and the cos-sin coupling vanishes.  The
coupling is dropped when a bound on it from the other parts of the
spectra is within 64 ulps of the largest entry of the blocks, which moves
no eigenvalue by more than the dense solver's own backward error (Weyl).
Then the operator is a cos block of size n/2+1 and a sin block of size
n/2-1, a quarter of the dense work.  Without the symmetry (in general for
t != 0, or for an off-centre window) the whole matrix is the one block.

In this basis the H^2 Gram matrix is diagonal: sobolev_weight(2) of each
mode.  Coercivity is therefore a standard eigenproblem of the whitened
matrix W^-1/2 A W^-1/2, on the orthogonal complement of the whitened
constraints, reached by Householder reflectors.  The negative direction is
even and the translation directions are odd, so the constraints split by
parity as well; constraints that do not split send coercivity to the whole
space.

Coercivity and `lowest_vector` need only the minimum over the blocks.  The
first block is solved; a later block that cannot hold a lower eigenvalue is
proved so by one Cholesky factorization of (block - minimum so far * I),
which succeeds exactly when that matrix is positive definite (`_exceeds`),
and is not solved.  Only a block that fails the proof gets its eigensolve.
At an even background the even (cos) block holds the negative direction
and the minimum, so the sin block costs a factorization, about a quarter
of its solve.

`derivative_matrix` and `sobolev_gram` are the physical circulants of the
same multipliers, kept as dense references; the solvers do not use them.

Parameter derivatives (the scaling directions) are the complex steps of
closed_forms.breather_derivative, exact to machine precision.  The
translation directions, so taken, also give the Wronskian check
(`wronskian_check`), which returns its normalized residual against the
closed form as a float.

scipy.linalg is imported inside the functions that run dense LAPACK
(_circulant, _bottom, _exceeds, coercivity, _reflect), so that the suites
that never call them (verify, evolve, stability) start without it: its
import takes longer than the whole of a small verify run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from .functionals import (SampledField, Window, linearization_coefficients,
                          require_window, resolved_window, sample_breather)


def _circulant(symbol: np.ndarray, odd: bool) -> np.ndarray:
    """Circulant matrix of a Fourier multiplier on the rfft bins.  Its
    column is made exactly odd or even (c[k] against c[-k mod n]), so the
    matrix is exactly antisymmetric or symmetric; FFT rounding alone breaks
    the parity at eps*k^m."""
    import scipy.linalg

    c = np.fft.irfft(symbol)
    mirror = np.roll(c[::-1], 1)
    c = (c - mirror) / 2.0 if odd else (c + mirror) / 2.0
    return scipy.linalg.circulant(c)


def derivative_matrix(w: Window, m: int) -> np.ndarray:
    """Dense m-th derivative by Fourier collocation, the circulant of
    w.derivative_multiplier(m)."""
    return _circulant(w.derivative_multiplier(m), odd=m % 2 == 1)


def sobolev_gram(w: Window) -> np.ndarray:
    """Gram matrix G with h * z^T G z = the squared H^2 norm used throughout,
    the circulant of w.sobolev_weight(2)."""
    return _circulant(w.sobolev_weight(2), odd=False)


# --------------------------------------------------------------------------
# the orthonormal real Fourier basis

_SQRT_HALF = np.sqrt(0.5)


def fourier_coordinates(values: np.ndarray) -> np.ndarray:
    """Coordinates of grid vectors (along axis 0) in the orthonormal real
    Fourier basis: sqrt(2/n) cos(2 pi p j / n) for 0 < p < n/2 and the
    constant and Nyquist vectors 1/sqrt(n), (-1)^j/sqrt(n), in the order
    p = 0 .. n/2; then sqrt(2/n) sin(2 pi p j / n) for 0 < p < n/2."""
    n = len(values)
    h = n // 2
    vh = np.fft.rfft(values, axis=0) * np.sqrt(2.0 / n)
    vh[[0, h]] *= _SQRT_HALF
    return np.concatenate([vh.real, -vh.imag[1:h]])


def grid_values(coords: np.ndarray) -> np.ndarray:
    """The inverse of `fourier_coordinates`."""
    n = len(coords)
    h = n // 2
    vh = np.zeros((h + 1,) + coords.shape[1:], dtype=complex)
    vh.real = coords[:h + 1]
    vh.imag[1:h] = -coords[h + 1:]
    vh[[0, h]] /= _SQRT_HALF
    return np.fft.irfft(vh * np.sqrt(n / 2.0), n=n, axis=0)


def _hankel(R: np.ndarray, h: int) -> np.ndarray:
    """The (h+1) x (h+1) view V[p, q] = R[p + q, q] of a C-contiguous array
    R with h+1 columns and at least 2h+1 rows."""
    step = R.itemsize
    return np.lib.stride_tricks.as_strided(
        R, shape=(h + 1, h + 1), strides=((h + 1) * step, (h + 2) * step),
        writeable=False)


def _assemble(w: Window, coeffs: dict) -> tuple:
    """The blocks of (A + A^T)/2, A = sum_k diag(c_k) D_k, in the real
    Fourier basis; see `DiscreteOperator`.

    In the unitary DFT basis the operator is
    Ahat[p, q] = (1/2n) sum_k chat_k[p - q] (m_k[q] + conj m_k[p]), with
    chat_k the FFT of c_k and m_k = i^k mu_k its derivative multiplier
    (mu_k real).  For 0 <= p, q <= h = n/2 let T[p, q] = Ahat[p, q] and
    H[p, q] = Ahat[p, -q].  With R[d, q] = (1/2n) sum_k i^k chat_k[d] mu_k[q]
    and the c_k real,

        T = Y + Y^H,  Y[p, q] = R[p - q, q]
        H = conj(Z + Z^T),  Z[p, q] = R[-p - q, q]

    The cos block is Re(T + H), with rows and columns 0 and h scaled by
    sqrt(1/2); the sin block is Re(T - H) on 1 .. h-1; the cos-sin coupling
    is Im(T - H), its rows 0 and h scaled likewise.  Re R and Im R are one
    real matmul each, V[r, c] = R[r - h mod n, h - c] for r = 0 .. n + h;
    then Y[p, h - q] = V[p + q, q] and Z[h - p, h - q] = V[h + p + q, q]
    are Hankel views of V, and no (h+1)^2 gather is made.

    Im R comes from the imaginary parts of i^k chat_k alone, so
    4 sum_k max|Im i^k chat_k| max|mu_k| / 2n bounds the coupling.  When
    the bound is within 64 ulps of the largest entry of the two blocks
    (an even background), the coupling is dropped without being formed."""
    n = w.n_points
    h = n // 2
    orders = sorted(coeffs)
    turn = np.array([1j**k for k in orders])[:, None]
    spec = np.fft.fft(np.stack([coeffs[k] for k in orders]), axis=1)
    spec *= turn / (2.0 * n)
    mu = np.stack([w.derivative_multiplier(k) for k in orders]) / turn
    mu = mu.real[:, ::-1]
    rows = (np.arange(n + h + 1) - h) % n

    def views(part):
        R = part[:, rows].T @ mu
        return _hankel(R, h)[:, ::-1], _hankel(R[h:], h)[::-1, ::-1]

    edge = np.ones((h + 1, 1))
    edge[[0, h]] = _SQRT_HALF
    inner = slice(1, h)
    Y, Z = views(spec.real)
    P = Y + Z
    cos = P + P.T
    cos *= edge
    cos *= edge.T
    Q = Y[inner, inner] - Z[inner, inner]
    sin = Q + Q.T
    largest = max(cos.max(), -cos.min(), sin.max(), -sin.min())
    bound = 4.0 * (np.max(np.abs(spec.imag), axis=1)
                   @ np.max(np.abs(mu), axis=1))
    if bound <= 64.0 * np.finfo(float).eps * largest:
        return (slice(0, h + 1), cos), (slice(h + 1, n), sin)
    Y, Z = views(spec.imag)
    coupling = (Y[:, inner] + Z[:, inner]) + (Z[inner] - Y[inner]).T
    coupling *= edge
    return ((slice(0, n), np.block([[cos, coupling], [coupling.T, sin]])),)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The operator on a window in the real Fourier basis
    (`fourier_coordinates`), as the blocks of an invariant splitting:
    (coordinate slice, symmetric matrix) pairs that tile the coordinates in
    order.  Built at an even background (`build_operator`) the blocks are
    the cos and the sin modes, else the whole space is the one block."""
    window: Window
    blocks: tuple
    alpha: float
    beta: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        coords = fourier_coordinates(values)
        return grid_values(np.concatenate([A @ coords[block]
                                           for block, A in self.blocks]))


def build_operator(p: cf.BreatherParams, t: float, w: Window | None = None,
                   background: SampledField | None = None) -> DiscreteOperator:
    """Assemble the linearized operator at the breather, or at an explicit
    background field (pass a zero field for the constant-coefficient part)."""
    if w is None:
        w = resolved_window(p, t)
    require_window(w, p, t)
    coeffs = linearization_coefficients(p, t, w, background)
    return DiscreteOperator(w, _assemble(w, coeffs), p.alpha, p.beta)


def kernel_tolerance(alpha: float, beta: float) -> float:
    # separates the kernel pair from the discrete continuum at n = 512 to 2048
    return 1e-6 * (alpha**2 + beta**2) ** 2


def continuum_edge(alpha: float, beta: float) -> float:
    # min over k of the constant-coefficient symbol; interior minimum exists
    # only when alpha > beta
    if beta >= alpha:
        return (alpha**2 + beta**2) ** 2
    return 4.0 * alpha**2 * beta**2


@dataclass(frozen=True, eq=False)
class SpectrumSummary:
    negative_eigenvalues: tuple
    kernel_eigenvalues: tuple
    kernel_vectors: np.ndarray
    lowest_vector: np.ndarray
    continuum_edge_estimate: float
    lambda0_sq: float
    kernel_tol: float

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel_eigenvalues)

    def to_json_dict(self) -> dict:
        return {
            "negative_eigenvalues": list(self.negative_eigenvalues),
            "kernel_eigenvalues": list(self.kernel_eigenvalues),
            "kernel_dimension": self.kernel_dimension,
            "continuum_edge_estimate": self.continuum_edge_estimate,
            "lambda0_sq": self.lambda0_sq,
            "kernel_tol": self.kernel_tol,
        }


def _bottom(A: np.ndarray, tol: float) -> tuple:
    """The k lowest eigenpairs of the symmetric A, k doubling from 8 until
    the largest clears tol or k reaches the size of A."""
    import scipy.linalg

    m = len(A)
    k = min(8, m)
    while True:
        vals, vecs = scipy.linalg.eigh(A, subset_by_index=[0, k - 1])
        if vals[-1] > tol or k == m:
            return vals, vecs
        k = min(2 * k, m)


def _exceeds(A: np.ndarray, value: float) -> bool:
    """Whether every eigenvalue of the symmetric A lies above value: the
    Cholesky factorization of A - value I succeeds exactly when that matrix
    is positive definite, up to a backward error of the dense solver's own
    order (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
    Like `eigh` it reads the lower triangle.  One factorization costs about
    a quarter of the lowest eigenvalue's solve."""
    import scipy.linalg

    shifted = np.array(A, order="F")
    diag = np.arange(len(A))
    shifted[diag, diag] -= value
    _, info = scipy.linalg.lapack.dpotrf(shifted, lower=1, clean=0,
                                         overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"dpotrf failed with info={info}")
    return info == 0


def spectrum(opr: DiscreteOperator) -> SpectrumSummary:
    """Classify the bottom of the spectrum, block by block (`opr.blocks`).

    In each block the k lowest eigenpairs are computed, k doubling from 8
    until the largest clears the kernel tolerance (it is that block's
    continuum edge) or k reaches the block size.  The blocks' eigenpairs
    are merged in ascending order (stable); the lowest and kernel vectors
    are returned as grid values."""
    tol = kernel_tolerance(opr.alpha, opr.beta)
    n = opr.window.n_points
    vals, vecs = [], []
    for block, A in opr.blocks:
        bvals, bvecs = _bottom(A, tol)
        vals.append(bvals)
        full = np.zeros((n, len(bvals)))
        full[block] = bvecs
        vecs.append(full)
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], np.hstack(vecs)[:, order]
    neg = vals[vals < -tol]
    kmask = np.abs(vals) <= tol
    above = vals[vals > tol]
    edge = float(above[0]) if above.size else float("inf")
    lambda0_sq = float(-neg[0]) if neg.size else 0.0
    kept = grid_values(np.hstack([vecs[:, :1], vecs[:, kmask]]))
    return SpectrumSummary(tuple(neg), tuple(vals[kmask]), kept[:, 1:],
                           kept[:, 0], edge, lambda0_sq, tol)


def lowest_vector(opr: DiscreteOperator) -> np.ndarray:
    """`spectrum(opr).lowest_vector`, solving only the blocks that can hold
    it.  The first block is solved as `spectrum` solves it; a later block
    is solved, the same way, only when it cannot be proved to lie above the
    lowest eigenvalue found so far (`_exceeds`), and it wins only below
    that value, as in `spectrum`'s stable merge."""
    tol = kernel_tolerance(opr.alpha, opr.beta)
    low = None
    for block, A in opr.blocks:
        if low is not None and _exceeds(A, low):
            continue
        bvals, bvecs = _bottom(A, tol)
        if low is None or bvals[0] < low:
            low = bvals[0]
            vec = np.zeros((opr.window.n_points, 1))
            vec[block] = bvecs[:, :1]
    return grid_values(vec)[:, 0]


@dataclass(frozen=True, eq=False)
class DirectionVectors:
    """Grid values of the breather's derivatives in x1, x2, alpha and beta,
    and of B0, the combination of the last two that L maps to -B."""

    B1: np.ndarray
    B2: np.ndarray
    lambda_alpha: np.ndarray
    lambda_beta: np.ndarray
    B0: np.ndarray


def directions(p: cf.BreatherParams, t: float, w: Window) -> DirectionVectors:
    x = w.grid()
    b1, b2, la, lb = (cf.breather_derivative(p, name, t, x)[0]
                      for name in ("x1", "x2", "alpha", "beta"))
    b0 = (p.alpha * lb + p.beta * la) / (
        8.0 * p.alpha * p.beta * (p.alpha**2 + p.beta**2))
    return DirectionVectors(b1, b2, la, lb, b0)


def b0_relations(p: cf.BreatherParams, t: float, opr: DiscreteOperator,
                 dirs: DirectionVectors) -> tuple[float, float, float]:
    """(int B0 B, (1/2) int B0 L[B0], ||L[B0] + B||_2 / ||B||_2)."""
    w = opr.window
    B = sample_breather(p, t, w, m=0).values
    LB0 = opr.apply(dirs.B0)
    lhs1 = float(w.quad(dirs.B0 * B))
    lhs2 = 0.5 * float(w.quad(dirs.B0 * LB0))
    residual = float(np.sqrt(w.quad((LB0 + B) ** 2) / w.quad(B**2)))
    return lhs1, lhs2, residual


def wronskian_closed_form(p: cf.BreatherParams, t: float,
                          x: np.ndarray) -> np.ndarray:
    v = p.velocities()
    y1 = x + v.delta * t + p.x1
    y2 = x + v.gamma * t + p.x2
    a, b = p.alpha, p.beta
    s2 = a**2 + b**2
    num = -8.0 * a**3 * b**3 * s2 * (a * np.sinh(2 * b * y2)
                                     - b * np.sin(2 * a * y1))
    den = (s2 + a**2 * np.cosh(2 * b * y2) - b**2 * np.cos(2 * a * y1)) ** 2
    return num / den


def wronskian_check(p: cf.BreatherParams, t: float, xs: np.ndarray) -> float:
    """Determinant of the Wronskian matrix of the two translation directions
    against its closed form at the points xs: sup |det - closed| over the
    larger of sup |det| and sup |closed|."""
    xs = np.asarray(xs, dtype=float)
    b1, b1x = cf.breather_derivative(p, "x1", t, xs, 1)
    b2, b2x = cf.breather_derivative(p, "x2", t, xs, 1)
    det = b1 * b2x - b2 * b1x
    closed = wronskian_closed_form(p, t, xs)
    sup = float(np.max(np.abs(det - closed)))
    scale = float(max(np.max(np.abs(det)), np.max(np.abs(closed))))
    return sup / scale


def coercivity(opr: DiscreteOperator, dirs: DirectionVectors,
               negative_eigvec: np.ndarray) -> float:
    """Minimum of z^T A z / ||z||_H2^2 over the subspace L2-orthogonal to the
    negative direction (grid values) and the two kernel directions.

    In the real Fourier basis the H^2 Gram matrix (`sobolev_gram`) is
    diagonal, W = the Window.sobolev_weight(2) of each mode, so the minimum
    is the lowest eigenvalue of the whitened matrix W^-1/2 A W^-1/2 on the
    complement of the whitened constraints W^-1/2 Q^T c.  Each constraint
    is normalized over its full row, then restricted to each block of
    `opr.blocks`; each block keeps the singular directions of its
    restriction above 1e-8.  When those ranks add up to 3 the constraints
    split by parity, and the minimum is taken block by block: the first
    block is solved, and a later block only when a Cholesky factorization
    does not prove it to lie above the minimum so far (`_exceeds`).
    Otherwise the whole space is the one block."""
    import scipy.linalg

    weight = opr.window.sobolev_weight(2)
    scale = 1.0 / np.sqrt(np.concatenate([weight, weight[1:-1]]))
    C = fourier_coordinates(np.stack([negative_eigvec, dirs.B1, dirs.B2],
                                     axis=1)).T * scale
    C /= np.maximum(np.linalg.norm(C, axis=1), np.finfo(float).tiny)[:, None]
    blocks = opr.blocks
    bases = [_row_basis(C[:, block]) for block, _ in blocks]
    if sum(len(Y) for Y in bases) != 3:
        whole = scipy.linalg.block_diag(*(A for _, A in blocks))
        blocks = ((slice(0, len(whole)), whole),)
        bases = [_row_basis(C)]
        if len(bases[0]) < 3:
            raise ValueError("orthogonality constraints are rank-deficient")
    nu0 = None
    for (block, A), Y in zip(blocks, bases):
        A = A * np.multiply.outer(scale[block], scale[block])
        r = len(Y)
        if r:  # a block may hold no constraint
            (qr, tau), _ = scipy.linalg.qr(Y.T, mode="raw")
            A = _reflect(qr, tau, A)[r:, r:]
        if nu0 is not None and _exceeds(A, nu0):
            continue  # this block cannot lower the minimum
        low = scipy.linalg.eigh(A, subset_by_index=[0, 0],
                                eigvals_only=True)[0]
        nu0 = low if nu0 is None else min(nu0, low)
    return float(nu0)


def _row_basis(C: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of C, dropping singular values at
    or below 1e-8 (the rows of C have norm at most 1)."""
    _, s, vt = np.linalg.svd(C, full_matrices=False)
    return vt[s > 1e-8]


def _reflect(qr: np.ndarray, tau: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Q^T M Q, for Q held as Householder reflectors (qr, tau) in LAPACK
    layout; Q's leading columns span the constraints.  M is symmetric and
    is overwritten: its transpose is the Fortran-ordered array LAPACK
    works on in place."""
    import scipy.linalg

    M = M.T
    for side, trans in (("L", "T"), ("R", "N")):
        M, _, err = scipy.linalg.lapack.dormqr(side, trans, qr, tau, M,
                                               len(M), overwrite_c=True)
        if err != 0:
            raise RuntimeError(f"dormqr failed with info={err}")
    return M
