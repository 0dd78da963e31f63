"""Pseudospectral integration of the fifth-, seventh- and ninth-order flows.

In Fourier space the flow is v' = L v + N(v): L = -(i k)^(2n+1) is the
purely imaginary linear symbol, and N the nonlinear flux divergence
-d/dx f_{2n+1}(u), evaluated pseudospectrally on a zero-padded grid.  Both
are advanced together by the 2-stage Gauss-Legendre method, an implicit
Runge-Kutta method that is stable on the whole imaginary axis, so the time
step is chosen for accuracy alone.  Newton solves the stage equations with
the exact, padded N in the residual, each Newton step by GMRES with the
exact inverse of the linear part as preconditioner.  It starts from the
linear part solved exactly, with N extrapolated from the previous step's
stages, or on a run's first step frozen at v0: one fixed-point sweep, and
where that sweep's contraction predicts that a second meets Newton's
target, the second takes the place of a Krylov solve.  The GMRES operator
applies the Frechet derivative of N on the two-phase (2n-point) grid, which
equals the padded one to rounding on resolved fields and costs 1/1.4,
1/2.8 and 1/4.2 of it per apply at orders 5, 7 and 9.  The stepper notes
below give the scheme, the solver's stopping rules and caps, Newton's
operator, and the polyphase lift with its Nyquist rule.  Multipliers and
the fit's H^2 inner product come from functionals.Window.

Each run steps one field.  A failed step raises BlowUpError, which carries
the trajectory up to it; the experiments that run several fields (the
stability shapes) run them as separate tasks.

Runs may use a uniformly translating window (EvolutionConfig.frame_speed).
The advected term joins the constant-coefficient symbol, which stays purely
dispersive, and snapshot windows ride along so grid positions are always
physical positions.  A frame that makes the profile static (the solitons,
and the order-5 and order-9 breathers) leaves Newton little to do.

The module also carries the modulation machinery for the orbital-stability
experiment: a two-parameter Gauss-Newton fit of the translation phases in the
H^2 norm, with a secant correction of its matrix that a run's fits carry
from one to the next, and a driver that evolves a perturbed breather and
tracks the fitted phases and the modulated distance over the run.  The
fit's template, the breather and its derivatives in x1 and x2, comes in
closed form (closed_forms.breather_phase_derivatives), with no jets and no
complex step.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import closed_forms as cf
from .functionals import SampledField, Window, sobolev_norm

_RESOLUTION_TAIL = 1e-10


class BlowUpError(RuntimeError):
    """A time step failed: the Newton solve for its stage values reached an
    iteration cap, or its residual turned non-finite.

    Carries the time t the step was to reach, the relative Newton residual
    |G| / (|v0| + dt |L v0|) at the last check (inf or nan for a non-finite
    state; see the stepper notes), the trajectory of snapshots taken before
    it, and the Krylov solves and GMRES iterations made since the last of
    them, the failed step's included.
    """

    def __init__(self, t: float, residual: float, trajectory: list,
                 krylov_solves: int, gmres_iterations: int):
        super().__init__(f"time step to t={t:.6g} failed: relative Newton "
                         f"residual {residual:.3g}")
        self.t, self.residual, self.trajectory = t, residual, trajectory
        self.krylov_solves = krylov_solves
        self.gmres_iterations = gmres_iterations


class FitError(RuntimeError):
    """Gauss-Newton modulation fit failed to converge."""


class ResolutionWarning(UserWarning):
    """Spectral tail above the resolved-field threshold."""


def exact_dealias_pad(order: int) -> int:
    # flux degree equals the order; products of degree p need factor (p+1)/2
    return math.ceil((order + 1) / 2)


@dataclass(frozen=True)
class EvolutionConfig:
    """Run parameters.  frame_speed shifts to coordinates moving at that
    speed; the window of every snapshot rides along, so downstream consumers
    (functionals, modulation fits) see physical positions regardless."""

    order: int
    window: Window
    dt: float
    t_end: float
    frame_speed: float = 0.0

    def __post_init__(self):
        if self.order not in (5, 7, 9):
            raise ValueError("time integration covers orders 5, 7 and 9")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not math.isfinite(self.frame_speed):
            raise ValueError("frame_speed must be finite")

    def window_at(self, t: float) -> Window:
        if self.frame_speed == 0.0:
            return self.window
        return replace(self.window,
                       center=self.window.center + self.frame_speed * t)


# Stepper notes.
#
# Scheme.  The Fourier system v' = L v + N(v), with the diagonal, purely
# imaginary L = -(i k)^order + frame_speed i k, is advanced by the 2-stage
# Gauss-Legendre method (order 4, tableau _GAUSS_A).  Gauss methods map the
# imaginary axis onto the unit circle and conserve quadratic invariants
# (Hairer, Lubich and Wanner, Geometric Numerical Integration, ch. IV and
# VI), and the stiff variable-coefficient terms of N (14 u^2 u_4x at order
# 7) are implicit too, so dt is set by accuracy, not by stability.  The stage
# values Y = (Y1, Y2) solve G(Y) = Y - v0 - dt (A (x) I) (L Y + N(Y)) = 0,
# and the new value v1 = v0 + dt (F(Y1) + F(Y2)) / 2, F = L + N, equals
# v0 + sqrt(3) (Y2 - Y1): no further evaluation of N.
#
# Solver.  Newton starts from Y0 = P^-1 (v0 (x) 1 + dt A N0), P = I - dt A
# (x) L, which solves the linear part exactly for a guess N0 of N at the
# stages (Hairer and Wanner, Solving ODEs II, sec. IV.8, on starting
# values).  evolve hands each step the N(Y1), N(Y2) of the step before,
# those of its last residual check, so they cost no transform, and N0
# extrapolates them linearly from their stage times c_i - 1 to c_k.  A run's
# first step, and a step handed nothing, freeze N at v0, N0 = N(v0) (x) 1:
# one sweep Y <- Y - P^-1 G(Y) of the stage equations from (v0, v0).
# G(v0, v0) = -dt (A (x) I)(F(v0), F(v0)), and where |G(Y0)| exceeds it,
# as on fields about to blow up, Newton starts from (v0, v0) instead.  This
# guard costs the frozen start no further transform, since that start
# evaluates N(v0) anyway.  The carried start does not, so there the guard,
# and its N(v0), run only when |G(Y0)| misses the Newton target; a carried
# start that meets it ends the step with one evaluation of N, that of Y0.
# The guard would have kept it, unless |G(v0, v0)| < |G(Y0)|, where both
# starts meet the target.  Where the guard keeps the frozen start, its
# contraction rho = |G(Y0)| / |G(v0, v0)| predicts what one more sweep
# leaves: where rho |G| meets the Newton target at a check, one sweep, one
# evaluation of N, takes the place of a Krylov solve.  It is kept only if
# it lowers |G|, and a step takes at most one.  The carried start is no
# sweep: its rho is nan, so the rule does not fire after it.  With the
# frozen start's formula in its place, the order-9 breather run tried a
# sweep on 44 of its 50 steps and kept none.
# Newton stops once |G| <= 1e-13 (|v0| + dt |L v0|), checked before each
# Krylov solve; the dt |L v0| term keeps the target above the rounding of
# the stiff linear part.  Each Newton step solves G'(Y) dY = -G by
# restarted GMRES to a relative 1e-6, or to half the Newton target if that
# is reached first, right-preconditioned by P^-1, the exact inverse of the
# linear part: one 2x2 block per bin, with det = 1 - a/2 + a^2/12 for
# a = dt L_k.  N'(v) acts on the real field u = irfft(v), so it is
# real-linear but not complex-linear, and GMRES runs over the real and
# imaginary parts as one real vector.  Newton steps and the GMRES iterations
# of a time step are capped; a step that reaches a cap, or whose residual is
# not finite, fails with its last relative residual.  The shipped runs take
# at most 3 Krylov solves and 40 GMRES iterations per step (the order-7
# breather), against caps of 10 and 300; the static order-5 breather (its
# first step one sweep, rho 2.6e-3) and the riding order-5 soliton take
# none, and each of their carried steps evaluates N once.
#
# Newton's operator.  GMRES applies N' on the 2n-point grid, two phases of
# the polyphase lift below, not on the padded one: the slopes dP/du_{kx}
# are evaluated on a two-phase lift of Y, and each Krylov vector is lifted
# to two phases.  A 2n-point transform folds mode m + 2n j of a product
# onto bin m, so the bins up to k_N = n/2 of slope times band-k_N vector
# pick up only modes of the slope above 2 k_N.  The slope is a polynomial
# in u, u_x, ...; where the field is resolved, with a spectral tail under
# _RESOLUTION_TAIL (1e-10 of the peak, the level at which evolve warns),
# those modes sit at rounding, and the operator equals G' to rounding (at
# most 5e-16 relative on the shipped n = 1024 windows, at orders 5, 7 and
# 9).  On an unresolved field it is only close to G': at n = 256, order 9,
# where the tail is 5.6e-4, the two differ by 2.6e-7.  Either way Newton's
# fixed point is that of the exact padded N, which every residual G(Y)
# keeps; the operator sets only how fast Newton gets there (inexact Newton:
# Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19 (1982) 400-408),
# and the shipped runs take the same Krylov solves and GMRES iterations as
# with the padded G'.  The slopes are evaluated only once a Krylov solve
# follows, so the step that converges computes none.  The padded apply
# stays as linearize and stage_system, the exact G' that the tests take as
# oracle.  One phase, the n-point grid itself, is not enough, though it
# was measured to cost a third of the time (an order-9 apply of two stages
# at n = 1024 on a 2-vCPU virtual machine: 185 against 553 us) and to
# leave the shipped solver work nearly as it is (stability at order 5,
# t_end 0.03, three shapes: 121 Krylov solves and 887 GMRES iterations
# either way; default evolve: 333 / 3,176 against 331 / 3,193).  An n-point
# transform folds every mode of slope times a band-k_N vector above k_N
# back into the band, so that operator is an aliased G': it misses the
# exact apply by 64-95 % of its size on a random band-k_N vector on the
# n = 1024 window, and on under-resolved n = 256 runs Newton reaches its
# cap and the step fails.
#
# Polyphase lift.  The padded grid has pad * n points, and padded point
# pad * m + s is coarse point m shifted by s h / pad (h the coarse spacing).
# Its values are therefore those of the coarse grid after the band-limited
# shift exp(i k s h / pad).  Every evaluation of N multiplies vhat by the
# per-config table lift_mult[j, s] = (i k)^j exp(i k s h / pad) (rows j = 0
# .. max_deriv, phases s = 0 .. pad - 1) and makes one n-point irfft of all
# rows shaped (deriv, ..., phase, n).  The flux is evaluated there in
# Horner form (cf.eval_flux_terms), one n-point rfft of the (..., phase)
# rows brings it back, and the sum over phases with the conjugate twiddle
# and -i k / pad (out_mult) gives the first n/2 + 1 bins of the padded rfft.
# The Frechet derivative N'(v) z takes the same two transforms: the
# coefficients dP/du_{kx} of cf.frechet(flux) are evaluated once on the
# lifted rows of v and multiply the lifted rows of z.  Padding by
# ceil((p+1)/2) keeps the degree-p products of the order-p flux free of
# aliasing.  The one lift and back pair takes the multiplier table of its
# grid: the padded one, or the two-phase one of Newton's operator.
#
# Nyquist convention (functionals.Window).  The bin k_N stands for the
# symmetric interpolant cos(k_N x).  The linear symbol and the output
# multiplier are Window.derivative_multiplier, zero there for odd powers, so
# the Nyquist mode never changes.  The lift keeps its odd rows: phase s
# evaluates the interpolant at x + s h / pad, off the grid, where its odd
# derivatives do not vanish.  Each phase's irfft counts the bin once, so
# cos(k_N x) lifts with amplitude 1, no halving.

_GAUSS_A = ((0.25, 0.25 - math.sqrt(3.0) / 6.0),
            (0.25 + math.sqrt(3.0) / 6.0, 0.25))
_NEWTON_TOL = 1e-13
_NEWTON_MAX = 10      # Krylov solves per time step
_GMRES_RTOL = 1e-6
_GMRES_RESTART = 30
_GMRES_MAX = 300      # GMRES iterations per time step, over its solves


def _gmres(op, b: np.ndarray, budget: int, floor: float = 0.0) -> tuple:
    """Restarted GMRES for op(x) = b on real vectors, from x = 0.

    Returns (x, iterations).  It stops once the residual falls to
    max(_GMRES_RTOL |b|, floor) or after `budget` iterations, converged or
    not.
    """
    x = np.zeros_like(b)
    r, beta = b, np.linalg.norm(b)
    target = max(_GMRES_RTOL * beta, floor)
    its = 0
    while beta > target and its < budget:
        m = min(_GMRES_RESTART, budget - its)
        V = np.zeros((m + 1, b.size))
        H = np.zeros((m + 1, m))  # Arnoldi's Hessenberg matrix
        R = np.zeros((m, m))      # H after the Givens rotations
        g = np.zeros(m + 1)
        V[0], g[0] = r / beta, beta
        rotations = []
        for j in range(m):
            w = op(V[j])
            its += 1
            for _ in range(2):  # classical Gram-Schmidt, done twice
                h = V[: j + 1] @ w
                w = w - h @ V[: j + 1]
                H[: j + 1, j] += h
            H[j + 1, j] = math.sqrt(w @ w)
            col = H[: j + 2, j].tolist()  # the rotations in Python floats
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], \
                    c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], col[j + 1])
            c, s = col[j] / rho, col[j + 1] / rho
            rotations.append((c, s))
            R[: j + 1, j] = col[: j + 1]
            R[j, j] = rho
            g[j], g[j + 1] = c * g[j], -s * g[j]
            if abs(g[j + 1]) <= target or H[j + 1, j] == 0.0:
                break
            V[j + 1] = w / H[j + 1, j]
        k = len(rotations)
        y = np.linalg.solve(R[:k, :k], g[:k])
        x = x + y @ V[:k]
        # the residual from the Arnoldi relation: V_{k+1} (beta e1 - H y)
        e = -(H[: k + 1, :k] @ y)
        e[0] += beta
        r = e @ V[: k + 1]
        beta = np.linalg.norm(r)
    return x, its


@dataclass(frozen=True)
class _Step:
    value: np.ndarray | None  # the spectrum one dt later; None: step failed
    stages: np.ndarray        # the last Newton iterate (Y1, Y2)
    solves: int               # Krylov solves made
    krylov: int               # GMRES iterations, over all solves
    residual: float           # |G| / (|v0| + dt |L v0|) at the last check
    nonlinear: np.ndarray     # N at both stages of the last iterate


@dataclass(frozen=True)
class _Stepper:
    lift: object          # vhat -> rows (deriv, ..., phase, n) of u, u_x, ...
    nonlinear: object     # vhat -> Fourier coefficients N(vhat) of -d/dx f(u)
    linearize: object     # vhat -> (N(vhat), zhat -> N'(vhat) zhat), exact
    newton_frechet: object  # vhat -> (zhat -> N'(vhat) zhat) on the 2n
                            # grid, the N' of Newton's operator
    stage_system: object  # (Y, v0) -> (G(Y), the exact Jacobian Z -> G'(Y) Z)
    start: object         # (v0, carried N or None, target) -> Newton's
                          # start Y, G(Y), the point of its first operator,
                          # the start's contraction, and N(Y); a carried
                          # start meeting target skips the guard
    sweep: object         # (Y, G(Y), v0, N(Y)) -> Y - P^-1 G(Y), its G and
                          # N, or the inputs where that raises |G|
    step: object          # (v0, one spectrum (bin,), and the previous
                          # step's _Step.nonlinear or None) -> _Step


@functools.lru_cache(maxsize=8)
def _stepper(cfg: EvolutionConfig) -> _Stepper:
    w, order, dt = cfg.window, cfg.order, cfg.dt
    n = w.n_points
    kr = w.wavenumbers()
    L = (-w.derivative_multiplier(order)
         + cfg.frame_speed * w.derivative_multiplier(1))

    pad = exact_dealias_pad(order)
    terms = cf.flux_terms(order)
    slopes = cf.frechet(terms)
    n_rows = cf.max_order(terms) + 1

    def tables(phases):
        # the lift and back multipliers of the grid `phases` times finer:
        # shift[s] = exp(i k s h / phases) takes the coarse grid to phase s
        shift = np.exp(1j * kr * (np.arange(phases)[:, None]
                                  * (w.spacing / phases)))
        return ((1j * kr) ** np.arange(n_rows)[:, None, None] * shift,
                -w.derivative_multiplier(1) * np.conj(shift) / phases)

    padded, twofold = tables(pad), tables(2)

    def lift(vhat, grid=padded):
        # (..., bin) -> (deriv, ..., phase, n)
        mult = grid[0].reshape((n_rows,) + (1,) * (vhat.ndim - 1)
                               + grid[0].shape[1:])
        return np.fft.irfft(mult * vhat[..., None, :], n=n)

    def back(fvals, grid=padded):
        # grid values (..., phase, n) -> bins (...,) of -d/dx
        return (grid[1] * np.fft.rfft(fvals)).sum(axis=-2)

    def flux(rows):
        # the lifted rows of v -> N(v)
        return back(cf.eval_flux_terms(terms, rows))

    def frechet(rows, grid=padded):
        # the rows of v lifted to grid -> (zhat -> N'(v) zhat on that grid)
        slope_rows = [(k, cf.eval_flux_terms(p, rows)) for k, p in slopes]

        def apply(zhat):
            dz = lift(zhat, grid)
            (k, c), *rest = slope_rows
            total = c * dz[k]
            for k, c in rest:
                total += c * dz[k]
            return back(total, grid)

        return apply

    def newton_frechet(vhat):
        return frechet(lift(vhat, twofold), twofold)

    def nonlinear(vhat):
        return flux(lift(vhat))

    def linearize(vhat):
        rows = lift(vhat)
        return flux(rows), frechet(rows)

    dtA = dt * np.array(_GAUSS_A)[..., None]  # (2, 2, 1): one entry per bin
    dtc = dtA.sum(axis=1)                     # dt times the nodes c = A 1
    # the line through N at the previous step's stage times c_i - 1, at c_k
    r3 = math.sqrt(3.0)
    extrapolate = np.array([[1.0 - r3, r3], [-r3, 1.0 + r3]])[..., None]
    a = dt * L
    # (I - dt A (x) L)^-1, one 2x2 block per bin: (2, 2, bin)
    pinv = (np.array([[1.0 - a / 4.0, dtA[0, 1] * L],
                      [dtA[1, 0] * L, 1.0 - a / 4.0]])
            / (1.0 - a / 2.0 + a * a / 12.0))

    def blocks(M, Z):
        # (M (x) I) Z on a stage pair Z, for M of shape (2, 2, 1 or bin)
        return M[:, 0] * Z[0] + M[:, 1] * Z[1]

    def as_real(Z):
        # a stage pair (2, bin) as one real vector, and back; both are views
        return Z.reshape(-1).view(float)

    def as_pair(x):
        return x.view(complex).reshape(2, -1)

    def stage_residual(Y, v0, NY):
        return Y - v0 - blocks(dtA, L * Y + NY)

    def jacobian(dN):
        # Z -> G'(Y) Z, given Z -> N'(Y) Z at both stages
        return lambda Z: Z - blocks(dtA, L * Z + dN(Z))

    def stage_system(Y, v0):
        NY, dN = linearize(Y)
        return stage_residual(Y, v0, NY), jacobian(dN)

    def sweep(Y, G, v0, NY):
        # Y - P^-1 G(Y) = P^-1 (v0 (x) 1 + dt A N(Y)): N frozen at Y, the
        # linear part solved exactly; kept only if it lowers |G|
        Ys = Y - blocks(pinv, G)
        NYs = nonlinear(Ys)
        Gs = stage_residual(Ys, v0, NYs)
        if np.linalg.norm(Gs) < np.linalg.norm(G):
            return Ys, Gs, NYs
        return Y, G, NY

    def begin(v0, carried, target):
        # the linear part solved exactly for a guess of N at the stages:
        # N(v0) at both, a sweep from (v0, v0) with contraction rho = |G| /
        # |G(v0, v0)|, |G(v0, v0)| = dt |c| |F(v0)|; or the N of the previous
        # step's stages, carried, with rho nan.  Where |G| > |G(v0, v0)|
        # Newton starts from (v0, v0), with rho nan.  N(v0) is evaluated
        # once, and on that fallback Newton's first operator is taken at v0,
        # whose slopes serve both stages.  A carried start whose |G| meets
        # target returns before N(v0), which only the guard reads.  Returns
        # (Y, G, |G|, the point of Newton's first operator, rho, N(Y))
        if carried is None:
            N0 = nonlinear(v0)
            drive = dtc * N0
        else:
            drive = blocks(dtA, blocks(extrapolate, carried))
        Y = blocks(pinv, v0 + drive)
        NY = nonlinear(Y)
        G = stage_residual(Y, v0, NY)
        gnorm = np.linalg.norm(G)
        if carried is not None:
            if gnorm <= target:
                return Y, G, gnorm, Y, math.nan, NY
            N0 = nonlinear(v0)
        still = np.linalg.norm(dtc) * np.linalg.norm(L * v0 + N0)
        if not gnorm <= still:
            Y = np.stack([v0, v0])
            G = stage_residual(Y, v0, N0)
            return Y, G, np.linalg.norm(G), v0, math.nan, np.stack([N0, N0])
        if carried is not None:
            return Y, G, gnorm, Y, math.nan, NY
        return Y, G, gnorm, Y, gnorm / still if still else 0.0, NY

    def start(v0, carried=None, target=0.0):
        Y, G, _, at, rho, NY = begin(v0, carried, target)
        return Y, G, at, rho, NY

    def step(v0, carried=None):
        scale = np.linalg.norm(v0) + dt * np.linalg.norm(L * v0)
        target = _NEWTON_TOL * scale
        Y, G, gnorm, at, rho, NY = begin(v0, carried, target)
        solves = krylov = 0
        while True:
            residual = gnorm / scale if gnorm else 0.0
            if gnorm <= target:
                return _Step(v0 + math.sqrt(3.0) * (Y[1] - Y[0]), Y, solves,
                             krylov, residual, NY)
            if (not math.isfinite(gnorm) or solves == _NEWTON_MAX
                    or krylov >= _GMRES_MAX):
                break
            if rho * gnorm <= target:
                # rho predicts that a sweep meets the target; one per step
                rho = math.nan
                Y, G, NY = sweep(Y, G, v0, NY)
                gnorm, at = np.linalg.norm(G), Y
                continue
            # the slopes only now that a Krylov solve follows; a linear
            # residual under half the Newton target is not seen by the next
            # check
            jac = jacobian(newton_frechet(at))
            x, its = _gmres(lambda z: as_real(jac(blocks(pinv, as_pair(z)))),
                            as_real(-G), _GMRES_MAX - krylov,
                            0.5 * _NEWTON_TOL * scale)
            krylov += its
            solves += 1
            Y = Y + blocks(pinv, as_pair(x))
            NY = nonlinear(Y)
            G, at = stage_residual(Y, v0, NY), Y
            gnorm = np.linalg.norm(G)
        return _Step(None, Y, solves, krylov, residual, NY)

    return _Stepper(lift, nonlinear, linearize, newton_frechet, stage_system,
                    start, sweep, step)


def _tail_fraction(vhat: np.ndarray) -> float:
    peak = float(np.max(np.abs(vhat)))
    if peak == 0.0:
        return 0.0
    cut = (7 * (vhat.size - 1)) // 8
    return float(np.max(np.abs(vhat[cut:]))) / peak


@dataclass(frozen=True)
class Snapshot:
    t: float
    field: SampledField
    functionals: dict
    krylov_solves: int = 0     # the solver's work since the previous snapshot
    gmres_iterations: int = 0
    tail: float = 0.0          # _tail_fraction of the stepped spectrum


def solver_work(run) -> tuple:
    """(Krylov solves, GMRES iterations) of a whole run, given its
    trajectory or the BlowUpError that ended it."""
    if isinstance(run, BlowUpError):
        solves, its = solver_work(run.trajectory)
        return solves + run.krylov_solves, its + run.gmres_iterations
    return (sum(s.krylov_solves for s in run),
            sum(s.gmres_iterations for s in run))


def step_count(t_end: float, dt: float) -> int:
    """The number of dt steps that reach t_end.  ValueError unless t_end / dt
    is a whole number to 1e-9 relative: a rounded count would end the run
    at another time than the one its records and speed fits use."""
    n = t_end / dt
    k = round(n)
    if abs(n - k) > 1e-9 * max(n, 1.0):
        raise ValueError(f"t_end = {t_end:g} is not a whole number of steps "
                         f"of dt = {dt:g}")
    return k


def evolve(u0: SampledField, cfg: EvolutionConfig, monitors: tuple = (),
           snapshot_every: int | None = None) -> list:
    """Run u0 to t_end and return its trajectory: snapshots with the
    monitored functionals.

    Snapshots are taken every snapshot_every steps (default: about fifty per
    run) and always include the initial and final states; each carries the
    Krylov solves and GMRES iterations of the steps since the previous one,
    and the spectral tail of the stepped spectrum (the largest modulus in
    its top eighth of bins over the peak).  A tail above 1e-10 triggers a
    single ResolutionWarning.  A failed step raises BlowUpError; a t_end
    that is not a whole number of steps raises ValueError (see step_count).

    Each monitor (a kind of closed_forms.density) is integrated as
    functionals.functional integrates it, on the snapshot's values and
    their spectral derivatives, bitwise its value on the stored field, but
    with no edge-tail check: radiation that wraps around the periodic
    window is legitimate here, and the trapezoid sum stays exact for it.
    """
    if u0.window != cfg.window:
        raise ValueError("initial field window differs from config window")
    step = _stepper(cfg).step
    n_steps = step_count(cfg.t_end, cfg.dt)
    if snapshot_every is None:
        snapshot_every = max(1, n_steps // 50)

    n = cfg.window.n_points
    # each monitor's density, and the multipliers of the derivatives they
    # read; every snapshot window has the spacing, so the quadrature, of
    # cfg.window
    densities = [(kind, cf.density(kind)) for kind in monitors]
    top = max((cf.max_order(terms) for _, terms in densities), default=0)
    mults = np.array([cfg.window.derivative_multiplier(k)
                      for k in range(1, top + 1)])

    def snapshot(i, spec, work):
        t = i * cfg.dt
        values = np.fft.irfft(spec, n=n)
        # the rows u, u_x, ... from one rfft of the values and one stacked
        # irfft, bitwise those of SampledField.deriv; the snapshot keeps the
        # plain field, so the derivatives do not outlive this call
        rows = values[None]
        if top:
            rows = np.concatenate(
                (rows, np.fft.irfft(np.fft.rfft(values) * mults, n=n)))
        vals = {kind: cfg.window.quad(cf.eval_flux_terms(terms, rows))
                for kind, terms in densities}
        return Snapshot(t, SampledField(cfg.window_at(t), values), vals,
                        *work, _tail_fraction(spec))

    vhat = np.fft.rfft(u0.values)
    traj = [snapshot(0, vhat, (0, 0))]
    warned = traj[0].tail > _RESOLUTION_TAIL
    if warned:
        warnings.warn("initial data spectral tail above 1e-10 of peak",
                      ResolutionWarning, stacklevel=2)
    work = (0, 0)  # since the last snapshot
    carried = None
    for i in range(1, n_steps + 1):
        s = step(vhat, carried)
        work = (work[0] + s.solves, work[1] + s.krylov)
        if s.value is None:
            raise BlowUpError(i * cfg.dt, s.residual, traj, *work)
        vhat, carried = s.value, s.nonlinear
        if i % snapshot_every == 0 or i == n_steps:
            traj.append(snapshot(i, vhat, work))
            work = (0, 0)
            if not warned and traj[-1].tail > _RESOLUTION_TAIL:
                warnings.warn(f"spectral tail above 1e-10 of peak at "
                              f"t={i * cfg.dt:.6g}", ResolutionWarning,
                              stacklevel=2)
                warned = True
    return traj


def functional_drifts(traj: list[Snapshot]) -> dict:
    """Max relative drift of each monitored functional over the trajectory."""
    if not traj:
        return {}
    out = {}
    for kind, start in traj[0].functionals.items():
        scale = max(abs(start), 1e-12)
        worst = max(abs(s.functionals[kind] - start) for s in traj)
        out[kind] = worst / scale
    return out


# --------------------------------------------------------------------------
# modulation fit

_FIT_MAX = 50  # Gauss-Newton iterations per fit


@dataclass
class FitMemory:
    """What a run's fits carry from one to the next: the secant correction
    of the Gauss-Newton matrix, and the objective evaluations made so far."""

    correction: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    evaluations: int = 0


def _psb(C: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Powell symmetric Broyden update of C to the secant condition
    C s = y: the nearest symmetric matrix to C in the Frobenius norm."""
    z, ss = y - C @ s, float(s @ s)
    zs = np.outer(z, s)
    return C + (zs + zs.T) / ss - (z @ s) * np.outer(s, s) / ss**2


def _fit_direction(M: np.ndarray, C: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-(M + C)^-1 g where M + C is positive definite, else the Gauss-Newton
    step -M^-1 g.  M + C is symmetric, so its trace and determinant decide."""
    H = M + C
    if H[0, 0] + H[1, 1] > 0.0 and H[0, 0] * H[1, 1] - H[0, 1] ** 2 > 0.0:
        return np.linalg.solve(H, -g)
    return np.linalg.solve(M, -g)


def fit_modulation(u: SampledField, p: cf.BreatherParams, t: float,
                   seed: tuple = (0.0, 0.0), memory: FitMemory | None = None):
    """Minimize ||u - B(t; x1, x2)||_H2 over the translation phases.

    Gauss-Newton from the seed with backtracking; returns (x1, x2, distance)
    once the gradient norm drops below 1e-10 within _FIT_MAX iterations,
    else raises FitError.  The scaling parameters stay fixed: only the two
    phases are modulated.  Each objective evaluation takes B and both phase
    derivatives from one closed-form pass (cf.breather_phase_derivatives).

    The Gauss-Newton matrix M = J^T J omits the residual's curvature, which
    a large residual makes slow (Dennis, Gay and Welsch, ACM TOMS 7 (1981)
    348-368).  A correction C of it is updated at each iteration by the PSB
    secant condition on the gradient change, and each step solves with
    M + C where that is positive definite, with M alone elsewhere.  C starts
    from memory.correction (zero for a fresh fit) and goes back there, and
    memory.evaluations counts the objective evaluations.
    """
    if memory is None:
        memory = FitMemory()
    w = u.window
    x = w.grid()
    weight, inner = w.sobolev_weight(2), w.sobolev_inner
    xs = np.array([float(seed[0]), float(seed[1])])

    def objective(a):
        # one stacked FFT of the residual and the two phase derivatives
        # serves the objective, the gradient and the Gauss-Newton matrix
        memory.evaluations += 1
        b, d1, d2 = cf.breather_phase_derivatives(p.order, p.alpha, p.beta,
                                                  a[0], a[1], t, x)
        rh, d1h, d2h = np.fft.rfft(np.stack((u.values - b, d1, d2)))
        return 0.5 * inner(rh, rh, weight), rh, d1h, d2h

    phi, rh, d1h, d2h = objective(xs)
    last = None  # the previous iteration's step and gradient
    for _ in range(_FIT_MAX):
        g = np.array([-inner(d1h, rh, weight), -inner(d2h, rh, weight)])
        M = np.array([[inner(d1h, d1h, weight), inner(d1h, d2h, weight)],
                      [0.0, inner(d2h, d2h, weight)]])
        M[1, 0] = M[0, 1]
        if last is not None:
            step, g_last = last
            memory.correction = _psb(memory.correction, step,
                                     g - g_last - M @ step)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-10:
            return float(xs[0]), float(xs[1]), math.sqrt(max(2.0 * phi, 0.0))
        delta = _fit_direction(M, memory.correction, g)
        s = 1.0
        while s > 1e-8:
            trial = objective(xs + s * delta)
            # below gradient 1e-6 (noise floor) objective decreases sit
            # below rounding noise, making Armijo acceptance a coin flip that
            # can crawl on microscopic steps; the undamped step still
            # contracts the gradient geometrically (large-residual
            # Gauss-Newton), so the first trial is taken outright
            if gnorm < 1e-6 or trial[0] <= phi + 1e-4 * s * float(g @ delta):
                break
            s /= 2.0
        else:
            raise FitError(f"line search stalled at gradient {gnorm:.3e}")
        xs = xs + s * delta
        last = (s * delta, g)
        phi, rh, d1h, d2h = trial
    raise FitError(f"no convergence in {_FIT_MAX} iterations; "
                   f"gradient {gnorm:.3e}")


# --------------------------------------------------------------------------
# stability experiment

PERTURBATION_SHAPES = ("gaussian", "B1", "LambdaBeta", "random")


@dataclass(frozen=True)
class StabilityReport:
    times: tuple
    distances: tuple
    phases_x1: tuple
    phases_x2: tuple
    drifts: dict
    eta: float
    blow_up: BlowUpError | None  # set when the run stopped early
    krylov_solves: int           # the solver's work over the run
    gmres_iterations: int
    fit_evaluations: int         # objective evaluations over the run's fits

    def __post_init__(self):
        if any(d < 0 for d in self.distances):
            raise ValueError("distances must be nonnegative")
        if not all(np.isfinite(list(self.drifts.values()))):
            raise ValueError("drifts must be finite")

    @property
    def sup_distance(self) -> float:
        return max(self.distances)

    @property
    def max_phase_speed(self) -> float:
        """Max of (|dx1| + |dx2|) / dt over consecutive snapshots."""
        worst = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            move = (abs(self.phases_x1[i] - self.phases_x1[i - 1])
                    + abs(self.phases_x2[i] - self.phases_x2[i - 1]))
            worst = max(worst, move / dt)
        return worst

    def to_json_dict(self) -> dict:
        out = {
            "times": list(self.times),
            "distances": list(self.distances),
            "phases_x1": list(self.phases_x1),
            "phases_x2": list(self.phases_x2),
            "drifts": dict(self.drifts),
            "eta": self.eta,
            "sup_distance": self.sup_distance,
            "max_phase_speed": self.max_phase_speed,
            "krylov_solves": self.krylov_solves,
            "gmres_iterations": self.gmres_iterations,
            "fit_evaluations": self.fit_evaluations,
        }
        if self.blow_up is not None:
            out.update(t_blowup=self.blow_up.t,
                       newton_residual=self.blow_up.residual)
        return out


def perturbation_shape(name: str, p: cf.BreatherParams, w: Window,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Raw perturbation profiles: a unit-width bump at the breather core, the
    kernel direction B1, the scaling direction along beta, or a seeded random
    superposition of the lowest Fourier modes under a gaussian envelope."""
    from .spectral import directions
    if name == "gaussian":
        return np.exp(-0.5 * (w.grid() - p.core(0.0)) ** 2)
    if name == "B1":
        return directions(p, 0.0, w).B1
    if name == "LambdaBeta":
        return directions(p, 0.0, w).lambda_beta
    if name == "random":
        if rng is None:
            raise ValueError("shape 'random' needs an rng")
        y = w.grid() - p.core(0.0)
        waves = w.wavenumbers()[1:9, None]
        coeff = rng.standard_normal((8, 2))
        mix = (coeff[:, :1] * np.cos(waves * y)
               + coeff[:, 1:] * np.sin(waves * y)).sum(axis=0)
        return np.exp(-0.5 * (y / 3.0) ** 2) * mix
    raise ValueError(f"unknown perturbation shape {name!r}; "
                     f"choose from {PERTURBATION_SHAPES}")


def stability_experiment(p: cf.BreatherParams, eta: float, shape: str,
                         cfg: EvolutionConfig,
                         snapshot_every: int | None = None,
                         seed: int | None = None) -> StabilityReport:
    """Evolve a perturbed breather and track its modulated H^2 distance.

    The perturbation is L2-normalized, scaled to H^2 size eta, and added to
    the breather at t=0; the shape 'random' draws from
    np.random.default_rng(seed).  The snapshots go to track_modulation; a run
    that blows up reports its partial trajectory and carries the BlowUpError.
    """
    if not 0.0 <= eta <= 0.1:
        raise ValueError("eta must lie in [0, 0.1]")
    w = cfg.window
    values = cf.breather_jet(p, 0.0, w.grid(), m=0).value
    if eta > 0.0:
        rng = None if seed is None else np.random.default_rng(seed)
        bump = perturbation_shape(shape, p, w, rng=rng)
        bump = bump / math.sqrt(w.quad(bump**2))
        values = values + bump * (eta / sobolev_norm(SampledField(w, bump), 2))

    monitors = ("M", "E", cf.energy_kind(p.order))
    try:
        traj = evolve(SampledField(w, values), cfg, monitors=monitors,
                      snapshot_every=snapshot_every)
    except BlowUpError as e:
        return track_modulation(p, e.trajectory, eta, e)
    return track_modulation(p, traj, eta)


def track_modulation(p: cf.BreatherParams, traj: list, eta: float,
                     blow_up: BlowUpError | None = None) -> StabilityReport:
    """Fit each snapshot by a phase-modulated breather, seeded with the
    phases of the last two fits extrapolated linearly in time (the last
    fit's phases at the second snapshot, zero at the first).  The report
    carries the run's solver_work.

    For a trajectory cut short by blow_up, the BlowUpError that ended it,
    the report ends before the first snapshot whose fit fails, since the
    last ones before a blow-up may be too far from any breather to fit.
    """
    times, dists, xs1, xs2 = [], [], [], []
    memory = FitMemory()
    for snap in traj:
        seed = (xs1[-1], xs2[-1]) if times else (0.0, 0.0)
        if len(times) > 1:
            r = (snap.t - times[-1]) / (times[-1] - times[-2])
            seed = (xs1[-1] + r * (xs1[-1] - xs1[-2]),
                    xs2[-1] + r * (xs2[-1] - xs2[-2]))
        try:
            x1, x2, dist = fit_modulation(snap.field, p, snap.t, seed=seed,
                                          memory=memory)
        except FitError:
            if blow_up is None:
                raise
            break
        times.append(snap.t)
        dists.append(dist)
        xs1.append(x1)
        xs2.append(x2)

    return StabilityReport(tuple(times), tuple(dists), tuple(xs1), tuple(xs2),
                           functional_drifts(traj[:len(times)]), eta, blow_up,
                           *solver_work(traj if blow_up is None else blow_up),
                           memory.evaluations)


# --------------------------------------------------------------------------
# shipped run configurations
#
# Each dt is an accuracy step, checked by halving it: the H^2 error against
# the closed form at t_end (n = 1024) is
#   breather  order 5, dt 2e-3 / 1e-3 / 5e-4:     1.4e-12 / 1.5e-12 / 1.8e-12
#             order 7, dt 1e-3 / 5e-4 / 2.5e-4:   2.1e-5 / 3.5e-6 / 5.0e-7
#             order 9, dt 2e-3 / 1e-3 / 5e-4:     8.1e-11 / 1.8e-10 / 1.5e-9
#   soliton   order 5, dt 1e-2 / 5e-3 / 2.5e-3:   8.5e-13 / 8.8e-13 / 8.9e-13
#             order 7, dt 6e-3 / 3e-3 / 1.5e-3:   4.0e-12 / 4.2e-12 / 4.5e-12
#             order 9, dt 6e-3 / 3e-3 / 1.5e-3:   5.9e-12 / 8.0e-12 / 8.9e-12
# against the evolve budget of 1e-5; the order-5, 7 and 9 soliton speed
# errors are 1.1e-13 / 1.8e-13 / 7.3e-14, 8e-14 / 3e-13 / 4e-13 and 2e-11 /
# 1e-11 / 2e-12 cells.  Below about 1e-10 the error is that of Newton's
# target, not of the scheme: on the static order-9 breather the target,
# 1e-13 (|v0| + dt |L v0|), is 5.5e-10 |v0| at dt 1e-3, and halving dt
# raises the error.
# The soliton runs ride at the speed law, where the profile is static, and
# each takes the step of least solver work per unit time (Krylov solves and
# GMRES iterations, then steps) among those at rounding-level error that
# divide t_end = 0.3.  At orders 7 and 9 the Krylov solves / GMRES
# iterations of the run are 38 / 115 and 47 / 304 at dt 6e-3, 58 / 140 and
# 72 / 417 at 4e-3, 108 / 220 and 146 / 809 at 2e-3 (50 / 166 and 50 / 150
# at 6e-3 with every step's N frozen at v0).  At order 5 no dt tried from
# 1e-3 to 1e-2 takes a Krylov solve (Newton's start alone meets its target,
# and after the first step one evaluation of N ends each step), so the
# fewest steps win: 1e-2 (30 steps, 32 evaluations of N), the largest step
# that also divides the 0.01 horizon to which perfbench's evolve-o5
# workload cuts this run.  Halving does not lower the error of any of the
# three rows by 2x, against 16x for a fourth-order scheme above the floor
# (a -m slow test checks it).  The breather runs are at RUN_ALPHA_BETA, on
# a window of half width 30/beta, to the whole number of
# steps nearest 0.2/(alpha^2+beta^2)^2 (0.05 at (1, 1)); where the breather is
# a rigid traveling wave (delta = gamma: orders 5 and 9 there) the frame rides
# at its speed -gamma, which freezes the profile on the grid.  The order-7
# breather genuinely oscillates (carrier and envelope counter-propagate), so no
# frame makes it static and its Newton solves do the most work.  An order's
# stability run is its breather run at the stability horizon
# (stability_run_config).  At order 5 its modulated distance at t = 0.1 (eta
# 0.01) moves by under 1% between dt 2e-3, 1e-3 and 5e-4 for every default
# shape (gaussian 0.0914 / 0.0920 / 0.0913).

RUN_ALPHA_BETA = (1.0, 1.0)  # the breather of the evolve and stability runs
_BREATHER_RUNS = {5: 1e-3, 7: 5e-4, 9: 1e-3}  # order: dt

_SOLITON_RUNS = {5: (2.0, 1e-2), 7: (1.2, 6e-3), 9: (1.2, 6e-3)}  # (c, dt)

# the orders the evolve and stability suites can run
EVOLVE_ORDERS = tuple(sorted(_BREATHER_RUNS.keys() & _SOLITON_RUNS.keys()))
STABILITY_ORDERS = (5,)


def breather_fidelity_config(order: int,
                             n_points: int = 1024) -> EvolutionConfig:
    """Reference run reproducing the RUN_ALPHA_BETA breather, in the frame
    of the breather where it is a rigid wave: half width 30/beta, and the
    whole number of the order's steps nearest 0.2/(alpha^2+beta^2)^2."""
    alpha, beta = RUN_ALPHA_BETA
    vel = cf.velocities(order, alpha, beta)
    frame = -vel.gamma if vel.delta == vel.gamma else 0.0
    dt = _BREATHER_RUNS[order]
    t_end = round(0.2 / (alpha**2 + beta**2) ** 2 / dt) * dt
    return EvolutionConfig(order=order,
                           window=Window(0.0, 30.0 / beta, n_points),
                           dt=dt, t_end=t_end, frame_speed=frame)


def soliton_speed_run(order: int,
                      n_points: int = 1024) -> tuple[cf.SolitonParams,
                                                     EvolutionConfig]:
    """Reference soliton run for the speed-law check over t in [0, 0.3].

    At every order the frame rides at the theoretical speed
    c^((order-1)/2), where the profile is static, so any discrepancy from
    the speed law shows up as in-frame drift of the correlation peak.
    """
    c, dt = _SOLITON_RUNS[order]
    return cf.SolitonParams(order, c), EvolutionConfig(
        order=order, window=Window(0.0, 26.0, n_points), dt=dt, t_end=0.3,
        frame_speed=cf.soliton_speed(order, c))


def stability_run_config(order: int, t_end: float) -> EvolutionConfig:
    """The perturbed-breather run: the order's breather_fidelity_config run
    (window, frame and dt) to the horizon t_end."""
    return replace(breather_fidelity_config(order), t_end=t_end)
