"""Conserved functionals evaluated by quadrature on windowed samples.

Mass M, energy E, the higher-order energies E5 to E11, the breather
functional H (`lyapunov`), Sobolev norms, the coefficients of H's
linearization L at a breather (`linearization_coefficients`, which
`spectral` assembles), and the expansion of H around a breather, whose
quadratic part is Q[z]/2 = (1/2) int z L[z].  Integrals over the real line
are truncated to a uniform periodic window; the integrands decay
super-exponentially inside properly sized windows, so the plain rectangle
(periodic trapezoid) sum converges spectrally.

`Window` owns the Fourier calculus of every module: rfft wavenumbers, the
multipliers (i k)^m with their Nyquist rule, and the H^s weight and inner
product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import closed_forms as cf


class TailWarning(UserWarning):
    """Field magnitude exceeds 1e-10 at a window edge; quadrature suspect."""


@dataclass(frozen=True)
class Window:
    center: float
    half_width: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two >= 256")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    def grid(self) -> np.ndarray:
        # periodic convention: left edge included, right edge excluded
        return self.center - self.half_width + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2 pi j / length of the rfft bins j = 0 .. n/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.spacing)

    def derivative_multiplier(self, m: int) -> np.ndarray:
        """(i k)^m on the rfft bins, m >= 0.  Odd m zero the Nyquist bin,
        which stands for the symmetric interpolant cos(k_N x): its odd
        derivatives vanish on the grid, and the multiplier maps real fields
        to real."""
        mult = (1j * self.wavenumbers()) ** m
        if m % 2:
            mult[-1] = 0.0
        return mult

    def sobolev_weight(self, s: int = 2) -> np.ndarray:
        """The H^s Fourier weight (1 + k^2)^s on the rfft bins."""
        return (1.0 + self.wavenumbers() ** 2) ** s

    def sobolev_inner(self, ah: np.ndarray, bh: np.ndarray,
                      weight: np.ndarray) -> float:
        """H^s inner product of two real fields from their rffts, weight =
        sobolev_weight(s); bins strictly inside (0, k_N) count twice (+-k)."""
        wb = weight * bh
        total = (2.0 * np.vdot(ah, wb) - np.conj(ah[0]) * wb[0]
                 - np.conj(ah[-1]) * wb[-1])
        return float(total.real) * self.length / self.n_points**2

    def quad(self, values) -> float:
        """Periodic trapezoid sum; spectrally accurate for decaying smooth data."""
        return self.spacing * float(np.sum(values))


_RESOLUTION_TAIL = 1e-10  # of the peak: the spectral tail where evolve warns


def _tail_fraction(vhat: np.ndarray) -> float:
    peak = float(np.max(np.abs(vhat)))
    if peak == 0.0:
        return 0.0
    cut = (7 * (vhat.size - 1)) // 8
    return float(np.max(np.abs(vhat[cut:]))) / peak


def _span(p, t: float) -> tuple[float, float]:
    # (core, 28/decay + 2 beyond the breather's phases), decay beta or, for a
    # soliton, sqrt(c); + 0.0 keeps a centre of -0.0 out of the reports
    if isinstance(p, cf.SolitonParams):
        return p.speed() * t + 0.0, 28.0 / math.sqrt(p.c) + 2.0
    return p.core(t) + 0.0, 28.0 / p.beta + max(abs(p.x1), abs(p.x2)) + 2.0


def default_window(p: cf.BreatherParams, t: float,
                   n_points: int = 2048) -> Window:
    """The quadrature window of the breather's functionals: its _span, with
    n_points doubled to at least five points per 1/alpha.  The densities to
    E9 carry products of ten carrier factors cos(alpha y1), which the
    trapezoid aliases on a coarser grid though B's spectral tail does not
    show it: at (6, 0.25) 2048 points miss E9 by 6e5 ulps of term_scale."""
    center, half = _span(p, t)
    while n_points < 10.0 * half * p.alpha:
        n_points *= 2
    return Window(center, half, n_points)


def resolved_window(p, t: float = 0.0, n_points: int = 1024) -> Window:
    """The collocation window of a breather or soliton p at time t: its
    _span, n_points as a floor doubled until the spectral tail of p on the
    grid is at most _RESOLUTION_TAIL.  The error falls as e^(-d k_max), d the
    analyticity strip, which the decay rate does not set."""
    w = Window(*_span(p, t), n_points)
    sample = (sample_soliton if isinstance(p, cf.SolitonParams)
              else sample_breather)
    while _tail_fraction(np.fft.rfft(sample(p, t, w, m=0).values)) \
            > _RESOLUTION_TAIL:
        w = replace(w, n_points=2 * w.n_points)
    return w


def require_window(w: Window, p: cf.BreatherParams, t: float) -> None:
    """Raise unless w holds the breather's decay region at time t, counting
    the offset of w.center from the envelope centre p.core(t)."""
    offset = abs(w.center - p.core(t))
    need = 20.0 / p.beta + max(abs(p.x1), abs(p.x2)) + offset
    if w.half_width < need:
        raise ValueError(f"window half_width {w.half_width} below required {need} "
                         f"for beta={p.beta}, phases ({p.x1}, {p.x2}), centre "
                         f"offset {offset:g}")


def spectral_derivative(values: np.ndarray, w: Window, k: int = 1) -> np.ndarray:
    """k-th derivative by w.derivative_multiplier(k)."""
    return np.fft.irfft(np.fft.rfft(values) * w.derivative_multiplier(k),
                        n=w.n_points)


@dataclass(frozen=True)
class SampledField:
    """Field values on a window, with optional exact derivative arrays.

    derivs[k-1] holds the k-th x-derivative.  A field without them has its
    derivatives computed spectrally on demand (valid while the field stays
    resolved); one with them has no derivative beyond the last, rather than
    a quietly less accurate spectral one.
    """

    window: Window
    values: np.ndarray
    derivs: tuple = ()

    def __post_init__(self):
        if len(self.values) != self.window.n_points:
            raise ValueError("values length must equal window n_points")
        for d in self.derivs:
            if len(d) != self.window.n_points:
                raise ValueError("derivative array length must equal n_points")

    def deriv(self, k: int) -> np.ndarray:
        if k == 0:
            return self.values
        if len(self.derivs) >= k:
            return self.derivs[k - 1]
        if self.derivs:
            raise ValueError(f"derivative {k} is beyond the field's jet of "
                             f"{len(self.derivs)} derivatives")
        return spectral_derivative(self.values, self.window, k)


def zero_field(w: Window) -> SampledField:
    return SampledField(w, np.zeros(w.n_points))


def sample_breather(p: cf.BreatherParams, t: float, w: Window | None = None,
                    m: int = 4) -> SampledField:
    if w is None:
        w = default_window(p, t)
    j = cf.breather_jet(p, t, w.grid(), m=m)
    return SampledField(w, j.value, tuple(j.dx))


def sample_soliton(sp: cf.SolitonParams, t: float, w: Window,
                   m: int = 4) -> SampledField:
    j = cf.soliton_jet(sp, t, w.grid(), m=m)
    return SampledField(w, j.value, tuple(j.dx))


# --------------------------------------------------------------------------
# functionals

def _tail_check(f: SampledField) -> None:
    edge = max(abs(float(f.values[0])), abs(float(f.values[-1])))
    if edge > 1e-10:
        warnings.warn(f"field magnitude {edge:.2e} at window edge", TailWarning,
                      stacklevel=3)


def _density(f: SampledField, kind: str) -> tuple:
    """The terms of closed_forms.density(kind) and the jet of f they read."""
    if kind not in cf.ENERGY_ORDERS:
        raise ValueError(f"unknown functional kind {kind!r}")
    terms = cf.density(kind)
    return terms, [f.deriv(k) for k in range(cf.max_order(terms) + 1)]


def _integral(f: SampledField, terms: tuple, jet: list) -> float:
    return f.window.quad(cf.eval_flux_terms(terms, jet))


def lyapunov(f: SampledField, alpha: float, beta: float) -> float:
    """The breather functional H = E5 + 2(beta^2 - alpha^2) E
    + (alpha^2 + beta^2)^2 M."""
    _tail_check(f)
    return sum(w * _integral(f, *_density(f, k))
               for w, k in cf.breather_weights(alpha, beta))


def functional(f: SampledField, kind: str) -> float:
    """The integral of a density of closed_forms.ENERGY_ORDERS."""
    terms, jet = _density(f, kind)
    _tail_check(f)
    return _integral(f, terms, jet)


def term_scale(f: SampledField, kind: str) -> float:
    """The summed size int sum_i |term_i| dx of the density's terms.  It
    bounds the rounding of functional(f, kind) however far the terms cancel
    (E9's integral is 3e-7 of it at (alpha, beta) = (1, 1.75)), as rel_scale
    does for the identity residuals."""
    terms, jet = _density(f, kind)
    return _integral(f, tuple((abs(c), orders) for c, orders in terms),
                     [np.abs(d) for d in jet])


def sobolev_norm(f: SampledField, s: int = 2) -> float:
    """H^s norm (s = 0, 1, 2) with Fourier weight (1 + k^2)^s on the window."""
    if s not in (0, 1, 2):
        raise ValueError("s must be 0, 1 or 2")
    w = f.window
    uhat = np.fft.rfft(f.values)
    return math.sqrt(w.sobolev_inner(uhat, uhat, w.sobolev_weight(s)))


# --------------------------------------------------------------------------
# closed forms and reductions

def closed_form_energy(kind: str, alpha: float, beta: float) -> float:
    """Breather values: M = 2b and E_{2n+1} = (-1)^(n+1) (2b/(2n+1)) g_{2n+1},
    so E = (2/3)b(3a^2-b^2), E5 = -(2/5)b g5, E7 = +(2/7)b g7, E9 = -(2/9)b g9."""
    if kind == "M":
        return 2.0 * beta
    order = cf.ENERGY_ORDERS.get(kind)
    if order is None:
        raise ValueError(f"no breather closed form for kind {kind!r}")
    sign = (-1) ** ((order + 1) // 2)
    return sign * (2.0 / order) * beta * cf.velocities(order, alpha, beta).gamma


# E = s_n/(2n+1) * int (M)_t dx with int (M)_t = 2 beta gamma and s_n the
# sign of closed_form_energy.  The +1/9 variant in circulation fails the
# closed forms by a sign.
REDUCTION_FACTORS = {order: (-1) ** ((order + 1) // 2) / order
                     for order in (5, 7, 9)}


def energy_reduction(order: int, alpha: float, beta: float,
                     t: float = 0.0) -> tuple[float, float]:
    """(quadrature energy, reduction value s_n/(2n+1) * int (M)_t dx), both
    from one jet, to the highest derivative the energy density reads."""
    if order not in REDUCTION_FACTORS:
        raise ValueError("reduction defined for orders 5, 7, 9")
    p = cf.BreatherParams(order=order, alpha=alpha, beta=beta)
    w = default_window(p, t, n_points=4096)
    kind = cf.energy_kind(order)
    j = cf.breather_jet_raw(order, alpha, beta, 0.0, 0.0, t, w.grid(),
                            cf.max_order(cf.density(kind)), mass=True)
    e = functional(SampledField(w, j.value, tuple(j.dx)), kind)
    return e, REDUCTION_FACTORS[order] * w.quad(j.mass_t)


def higher_energy_conjecture(order: int, alpha: float,
                             beta: float) -> tuple[float, float, float]:
    """(conjectured value, lemma value, term scale) for E_{2n+1}[B].

    The conjectured formula (-1)^(n+1) (2 beta/(2n+1)) gamma_{2n+1} uses its
    own alternating-binomial sum for gamma_{2n+1}, which evaluates to the
    negative of the velocity gamma; the two columns therefore disagree by a
    sign.  Both are returned unreconciled, with the summed size of the
    conjectured formula's terms, which bounds the rounding of either column.
    """
    if order not in (3, 5, 7, 9):
        raise ValueError("conjecture comparison covers orders 3, 5, 7, 9")
    n = (order - 1) // 2
    terms = [(-1) ** j * math.comb(order, 2 * j) * alpha ** (2 * j)
             * beta ** (2 * (n - j)) for j in range(n + 1)]
    factor = (-1) ** (n + 1) * (2.0 * beta / order)
    return (factor * sum(terms),
            closed_form_energy(cf.energy_kind(order), alpha, beta),
            abs(factor) * sum(map(abs, terms)))


# --------------------------------------------------------------------------
# the linearization L at the breather and the expansion of H around it

def linearization_coefficients(p: cf.BreatherParams, t: float, w: Window,
                               background: SampledField | None) -> dict:
    """{k: c_k} with L[z] = sum_k c_k z_{kx}, L = (dH/du)' of
    closed_forms.breather_linearization, sampled on w from the jet of the
    background field, or, for None, of the breather p at time t.  The one
    evaluation of L: spectral.build_operator assembles it, and
    expansion_remainder's Q[z] = <z, L z> reads it."""
    terms = cf.breather_linearization(p.alpha, p.beta)
    m = max(map(cf.max_order, terms.values()))
    if background is None:
        background = sample_breather(p, t, w, m=m)
    jet = [background.deriv(k) for k in range(m + 1)]
    return {k: np.broadcast_to(cf.eval_flux_terms(c, jet), w.n_points)
            for k, c in terms.items()}


def expansion_remainder(p: cf.BreatherParams, z: SampledField,
                        t: float) -> tuple[float, float]:
    """Split H[B+z] - H[B] into (quadratic = Q[z]/2 = (1/2) int z L[z],
    cubic-order remainder).

    The remainder obeys |N[z]| <= K ||z||_H2^3 for small z; callers verify
    the cubic order by a Richardson ratio.  Raises for ||z||_H2 > 0.1 where
    the contract is untestable.
    """
    nz = sobolev_norm(z, 2)
    if nz > 0.1:
        raise ValueError(f"perturbation H2 norm {nz:.3g} exceeds 0.1")
    w = z.window
    fB = sample_breather(p, t, w, m=2)
    Lz = sum(c * z.deriv(k)
             for k, c in linearization_coefficients(p, t, w, fB).items())
    quadratic = 0.5 * w.quad(z.values * Lz)
    fBz = SampledField(w, fB.values + z.values,
                       tuple(d + z.deriv(k)
                             for k, d in enumerate(fB.derivs, 1)))
    dH = lyapunov(fBz, p.alpha, p.beta) - lyapunov(fB, p.alpha, p.beta)
    return quadratic, dH - quadratic
