"""Discrete spectral analysis of the fourth-order operator obtained by
linearizing the stationary breather equation.

The operator is the Frechet derivative of dH/du, H = E5 + 2(b^2-a^2) E +
(a^2+b^2)^2 M, at the breather B (closed_forms.breather_linearization):

    L[z] = z_4x - 2(b^2-a^2) z_xx + (a^2+b^2)^2 z
           + 10 B^2 z_xx + 20 B B_x z_x
           + [10 B_x^2 + 20 B B_xx + 30 B^4 - 12(b^2-a^2) B^2] z

It is realized by Fourier collocation on a periodic window and symmetrized; the
derivative and H^2 Gram matrices are circulants of the multipliers of
functionals.Window.  Only the bottom of the spectrum is computed.  Expected:
one simple negative eigenvalue, a two-dimensional kernel spanned by the
translation directions, and discrete continuum starting at the minimum of the
symbol k^4 + 2(b^2-a^2) k^2 + (a^2+b^2)^2, attained at k=0 when b >= a and at
k^2 = a^2 - b^2 otherwise.  Coercivity is computed on the orthogonal
complement of its constraints, reached by Householder reflectors.

Dense solves run per parity block.  At t = 0 with x1 = x2 = 0 the breather
is even about the centre of its default window, so the matrix commutes with
the grid reflection j -> -j mod n and splits into an even block of size
n/2+1 and an odd block of size n/2-1; solving each on its own is a quarter
of the dense work.  The symmetry is detected from the assembled matrix, to
a few ulps of its largest entry.  Without it (in general for t != 0, for an
off-centre window or a hand-built matrix) the whole space is the one block.
The negative direction is even and the translation directions are odd, so
the coercivity constraints split as well; constraints that do not split by
parity send coercivity to the whole space.

Parameter derivatives (the scaling directions) are taken with an imaginary
step of 1e-150, which is exact to machine precision; no difference-quotient
tuning is involved.

scipy.linalg is imported inside the four functions that run dense LAPACK
(_circulant, spectrum, coercivity, _reflect), so that the suites that never
call them (verify, evolve, stability) start without it: its import takes
longer than the whole of a small verify run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import closed_forms as cf
from .functionals import SampledField, Window, require_window, sample_breather
from .identities import ResidualReport

_CSTEP = 1e-150


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


_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class ParityBlock:
    """An invariant subspace of the grid reflection j -> -j mod n, with
    orthonormal basis Q:

        sign +1 (even): e_0, (e_j + e_{n-j})/sqrt(2) for 0 < j < n/2, e_{n/2}
        sign -1 (odd):  (e_j - e_{n-j})/sqrt(2) for 0 < j < n/2
        sign  0:        the whole space, Q = I

    Q is never formed: `restrict` (Q^T v, along axis 0), `extend` (Q V) and
    `fold` (Q^T M Q) work on slices of their argument, a few passes over it.
    """
    n: int
    sign: int

    @property
    def size(self) -> int:
        return self.n // 2 + self.sign if self.sign else self.n

    def restrict(self, v: np.ndarray) -> np.ndarray:
        if not self.sign:
            return v
        h = self.n // 2
        pairs = (v[1:h] + self.sign * v[:h:-1]) * _SQRT_HALF
        if self.sign < 0:
            return pairs
        return np.concatenate([v[:1], pairs, v[h:h + 1]])

    def extend(self, V: np.ndarray) -> np.ndarray:
        if not self.sign:
            return V
        h = self.n // 2
        out = np.zeros((self.n,) + V.shape[1:])
        if self.sign > 0:
            out[0], out[h] = V[0], V[-1]
            V = V[1:-1]
        out[1:h] = V * _SQRT_HALF
        out[:h:-1] = self.sign * out[1:h]
        return out

    def fold(self, M: np.ndarray) -> np.ndarray:
        return self.restrict(self.restrict(M).T).T


def _parity_blocks(M: np.ndarray) -> tuple:
    """The even and odd blocks when the symmetric matrix M commutes with
    the grid reflection, to 64 ulps of its largest entry, else the whole
    space.  Dropping an even-odd coupling that small moves no eigenvalue by
    more than the dense solver's own backward error (Weyl)."""
    n = len(M)
    reflected = np.roll(M[::-1, ::-1], 1, axis=(0, 1))  # M[-i, -j]
    defect = np.max(np.abs(reflected - M))
    if defect <= 64.0 * np.finfo(float).eps * np.max(np.abs(M)):
        return ParityBlock(n, 1), ParityBlock(n, -1)
    return (ParityBlock(n, 0),)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    window: Window
    matrix: np.ndarray
    alpha: float
    beta: float
    breather_time: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    @cached_property
    def blocks(self) -> tuple:
        """(block, Q^T A Q) for each block of `_parity_blocks`, folded once
        and shared by `spectrum` and `coercivity`."""
        return tuple((b, b.fold(self.matrix))
                     for b in _parity_blocks(self.matrix))


def spectral_window(p: cf.BreatherParams, t: float,
                    n_points: int = 1024) -> Window:
    """Window balancing periodization tails against interior resolution.

    The breather's nearest complex singularity sits at height ~0.7/beta, so
    the resolvable bandwidth and the tail decay both scale with beta; a
    half-width of 28/beta at n=1024 keeps fourth-derivative errors near
    1e-7 while the tails stay at machine level.
    """
    half = 28.0 / p.beta + max(abs(p.x1), abs(p.x2)) + 2.0
    return Window(p.core(t), half, n_points)


def build_operator(p: cf.BreatherParams, t: float, w: Window | None = None,
                   background: SampledField | None = None) -> DiscreteOperator:
    """Assemble the linearized operator at the breather, or at an explicit
    background field (pass a zero field for the constant-coefficient part)."""
    if w is None:
        w = spectral_window(p, t)
    require_window(w, p, t)
    terms = cf.breather_linearization(p.alpha, p.beta)
    m = max(map(cf.max_order, terms.values()))
    if background is None:
        background = sample_breather(p, t, w, m=m)
    jet = [background.deriv(k) for k in range(m + 1)]
    coeffs = {k: np.broadcast_to(cf.eval_flux_terms(c, jet), w.n_points)
              for k, c in terms.items()}

    raw = np.diag(coeffs[0])
    for k, c in coeffs.items():
        if k:
            D = derivative_matrix(w, k)
            D *= c[:, None]
            raw += D
    matrix = (raw + raw.T) / 2.0
    return DiscreteOperator(w, matrix, p.alpha, p.beta, t)


def kernel_tolerance(alpha: float, beta: float) -> float:
    # separates the kernel pair from the discrete continuum at n in {512, 1024}
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


def spectrum(opr: DiscreteOperator) -> SpectrumSummary:
    """Classify the bottom of the spectrum, block by block (`opr.blocks`).

    In each block the k lowest eigenpairs are computed, k doubling from 8
    until the largest clears the kernel tolerance (it is that block's
    continuum edge) or k reaches the block size.  The blocks' eigenpairs
    are merged in ascending order (stable), the vectors extended back to
    the full grid."""
    import scipy.linalg

    tol = kernel_tolerance(opr.alpha, opr.beta)
    vals, vecs = [], []
    for block, A in opr.blocks:
        m = block.size
        k = min(8, m)
        while True:
            bvals, bvecs = scipy.linalg.eigh(A, subset_by_index=[0, k - 1])
            if bvals[-1] > tol or k == m:
                break
            k = min(2 * k, m)
        vals.append(bvals)
        vecs.append(block.extend(bvecs))
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], np.hstack(vecs)[:, order]
    neg = vals[vals < -tol]
    kmask = np.abs(vals) <= tol
    above = vals[vals > tol]
    edge = float(above[0]) if above.size else float("inf")
    lambda0_sq = float(-neg[0]) if neg.size else 0.0
    return SpectrumSummary(tuple(neg), tuple(vals[kmask]), vecs[:, kmask],
                           vecs[:, 0], edge, lambda0_sq, tol)


@dataclass(frozen=True, eq=False)
class DirectionVectors:
    B1: SampledField
    B2: SampledField
    lambda_alpha: SampledField
    lambda_beta: SampledField
    B0: SampledField


def _imag_step(order, alpha, beta, x1, x2, t, x, m=0):
    """Rows 0..m of the jet's imaginary part over the step."""
    jet = cf.breather_jet_raw(order, alpha, beta, x1, x2, t, x, m)
    return np.vstack((jet.value, jet.dx)).imag / _CSTEP


def directions(p: cf.BreatherParams, t: float, w: Window) -> DirectionVectors:
    x = w.grid()
    ih = 1j * _CSTEP
    b1 = _imag_step(p.order, p.alpha, p.beta, p.x1 + ih, p.x2, t, x)[0]
    b2 = _imag_step(p.order, p.alpha, p.beta, p.x1, p.x2 + ih, t, x)[0]
    la = _imag_step(p.order, p.alpha + ih, p.beta, p.x1, p.x2, t, x)[0]
    lb = _imag_step(p.order, p.alpha, p.beta + ih, p.x1, p.x2, t, x)[0]
    b0 = (p.alpha * lb + p.beta * la) / (
        8.0 * p.alpha * p.beta * (p.alpha**2 + p.beta**2))
    return DirectionVectors(SampledField(w, b1), SampledField(w, b2),
                            SampledField(w, la), SampledField(w, lb),
                            SampledField(w, b0))


def b0_relations(p: cf.BreatherParams, t: float, opr: DiscreteOperator,
                 dirs: DirectionVectors) -> tuple[float, float, float]:
    """(int B0 B, (1/2) int B0 L[B0], ||L[B0] + B||_2 / ||B||_2)."""
    w = opr.window
    B = sample_breather(p, t, w, m=0).values
    LB0 = opr.apply(dirs.B0.values)
    lhs1 = float(w.quad(dirs.B0.values * B))
    lhs2 = 0.5 * float(w.quad(dirs.B0.values * LB0))
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


def wronskian_check(p: cf.BreatherParams, t: float,
                    xs: np.ndarray) -> ResidualReport:
    """Determinant of the Wronskian matrix of the two translation directions
    against its closed form."""
    xs = np.asarray(xs, dtype=float)
    ih = 1j * _CSTEP
    b1, b1x = _imag_step(p.order, p.alpha, p.beta, p.x1 + ih, p.x2, t, xs, 1)
    b2, b2x = _imag_step(p.order, p.alpha, p.beta, p.x1, p.x2 + ih, t, xs, 1)
    det = b1 * b2x - b2 * b1x
    closed = wronskian_closed_form(p, t, xs)
    sup = float(np.max(np.abs(det - closed)))
    scale = float(max(np.max(np.abs(det)), np.max(np.abs(closed))))
    params = {"order": p.order, "alpha": p.alpha, "beta": p.beta,
              "x1": p.x1, "x2": p.x2, "t": t}
    return ResidualReport("wronskian", params,
                          f"user-supplied {xs.size} points t={t:.6g}",
                          sup, scale)


def coercivity(opr: DiscreteOperator, dirs: DirectionVectors,
               negative_eigvec) -> float:
    """Minimum of z^T A z / ||z||_H2^2 over the subspace L2-orthogonal to the
    negative direction and the two kernel directions.

    The three constraints are normalized and restricted to each parity
    block of `opr.blocks`; each block keeps the singular directions of its
    restriction above 1e-8.  When those ranks add up to 3 the constraints
    split by parity, and the minimum is taken block by block on the folded
    A and Gram matrix; otherwise the whole space is the one block."""
    import scipy.linalg

    vec = np.asarray(getattr(negative_eigvec, "values", negative_eigvec),
                     dtype=float)
    C = np.stack([vec, dirs.B1.values, dirs.B2.values])
    C /= np.maximum(np.linalg.norm(C, axis=1), np.finfo(float).tiny)[:, None]
    blocks = opr.blocks
    bases = [_row_basis(block.restrict(C.T).T) for block, _ in blocks]
    if sum(len(Y) for Y in bases) != 3:
        blocks = ((ParityBlock(len(opr.matrix), 0), opr.matrix),)
        bases = [_row_basis(C)]
        if len(bases[0]) < 3:
            raise ValueError("orthogonality constraints are rank-deficient")
    G = sobolev_gram(opr.window)
    nu0 = []
    for (block, A), Y in zip(blocks, bases):
        Gb, r = block.fold(G), len(Y)
        if r:  # a block may hold no constraint
            (qr, tau), _ = scipy.linalg.qr(Y.T, mode="raw")
            A, Gb = (_reflect(qr, tau, M)[r:, r:] for M in (A, Gb))
        nu0.append(scipy.linalg.eigh(A, Gb, subset_by_index=[0, 0],
                                     eigvals_only=True)[0])
    return float(min(nu0))


def _row_basis(C: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of C (unit-norm rows), dropping
    singular values at or below 1e-8."""
    _, s, vt = np.linalg.svd(C, full_matrices=False)
    return vt[s > 1e-8]


def _reflect(qr: np.ndarray, tau: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Q^T M Q, for Q held as Householder reflectors (qr, tau) in LAPACK
    layout; Q's leading columns span the constraints."""
    import scipy.linalg

    for side, trans in (("L", "T"), ("R", "N")):
        M, _, err = scipy.linalg.lapack.dormqr(side, trans, qr, tau, M, len(M))
        if err != 0:
            raise RuntimeError(f"dormqr failed with info={err}")
    return M

