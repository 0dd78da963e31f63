"""Exact solutions of the focusing mKdV hierarchy, orders 3 to 11, and the
differential polynomials behind them.

Breathers

    B = 2 d/dx arctan((beta/alpha) sin(alpha y1) / cosh(beta y2)),
    y1 = x + delta t + x1,   y2 = x + gamma t + x2,

sech solitons Q_c(x - v t), the order-dependent velocity polynomials
(delta, gamma) and soliton speeds v, the flux polynomials f_{2n+1} that sit
under the outer d/dx of each hierarchy member, and the breather's partial
mass.

Spatial derivatives are exact to rounding, in closed form; no finite
differences, no symbolic expansion.  Both phases move with x at unit speed,
so d/dx acts as a constant matrix M on a small basis of products of
sin/cos(alpha y1) and sinh/cosh(beta y2): if f = c . basis then its Taylor
coefficients are c_k . basis with c_k = c_{k-1} M / k, all of them from
one matrix product.  With S, C = sin, cos(alpha y1), sh, ch = sinh,
cosh(beta y2) and r = beta/alpha, the breather is B = 2N/D with

    N = beta (C ch - r S sh)                  on (C ch, S sh, S ch, C sh),
    D = (r^2 + 1)/2 - (r^2/2) cos 2 alpha y1 + (1/2) cosh 2 beta y2
                                               on (cos, sin 2 alpha y1,
                                                   cosh, sinh 2 beta y2),

and the rows of B follow from one Taylor-quotient recurrence; the soliton
sqrt(c)/cosh z is the same quotient on (cosh z, sinh z).  Every coefficient
is a polynomial in alpha and beta and every basis function is analytic, so
complex steps in x1, x2, alpha or beta give exact parameter derivatives
(`breather_derivative`).
cosh 2 beta y2 overflows past |beta y2| ~ 354.

The velocity pairs obey

    (alpha + i beta)^(2n+1) = (-1)^(n+1) (alpha delta_{2n+1} + i beta gamma_{2n+1}),

and VELOCITY_TERMS is that binomial expansion; identities.py re-derives the
one contested delta_9 exponent empirically.

Differential polynomials are term lists with d/dx, `reduce_terms` (d/dx F
plus a remainder free of total derivatives) and its case `integrate`, the
Euler operator, the Frechet derivative (Olver, Applications of Lie Groups
to Differential Equations, sections 4-5), and `eliminate`, which rewrites
every derivative at or above an equation's order by that equation (by the
breather equation once per order, its weights left symbolic:
`reduced_evolution_terms`).  No hierarchy coefficient is typed in: from u,
the first flow, the recursion operator gives every u_{2n x} + f_{2n+1}, the
homotopy formula the densities M, E, E5, ..., E11, and those the breather
equation dH/du = 0, H = E5 + 2(beta^2 - alpha^2) E + (alpha^2 + beta^2)^2 M,
whose Frechet derivative is the one linearization L
(`breather_linearization`): H's second variation at B is Q[z] = <z, L z>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ORDERS = (3, 5, 7, 9, 11)


def _velocity_terms(order: int):
    """(delta, gamma) monomials (coefficient, alpha exponent, beta exponent):
    in (alpha + i beta)^order the even powers of i beta make alpha delta and
    the odd ones beta gamma, in ascending powers of beta."""
    sign = (-1) ** ((order + 1) // 2)
    terms = ([], [])
    for j in range(order + 1):
        coef = float(sign * (-1) ** (j // 2) * math.comb(order, j))
        if j % 2:
            terms[1].append((coef, order - j, j - 1))
        else:
            terms[0].append((coef, order - j - 1, j))
    return tuple(terms[0]), tuple(terms[1])


VELOCITY_TERMS = {order: _velocity_terms(order) for order in ORDERS}


def _check_order(order: int) -> None:
    if order not in ORDERS:
        raise ValueError(f"unsupported order {order!r}; expected one of {ORDERS}")


@dataclass(frozen=True)
class Velocities:
    delta: float
    gamma: float


@dataclass(frozen=True)
class BreatherParams:
    order: int
    alpha: float
    beta: float
    x1: float = 0.0
    x2: float = 0.0

    def __post_init__(self):
        _check_order(self.order)
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")

    def velocities(self) -> Velocities:
        return velocities(self.order, self.alpha, self.beta)

    def core(self, t: float) -> float:
        """The envelope centre -gamma t - x2, where y2 = 0."""
        return -self.velocities().gamma * t - self.x2


@dataclass(frozen=True)
class SolitonParams:
    order: int
    c: float

    def __post_init__(self):
        _check_order(self.order)
        if self.order == 11:
            raise ValueError("no soliton speed law is defined for order 11")
        if not self.c > 0:
            raise ValueError("c must be positive")

    def speed(self) -> float:
        return soliton_speed(self.order, self.c)


@dataclass(frozen=True)
class Jet:
    """Value, spatial derivatives 1..m, d/dt of the antiderivative profile
    and, if asked for, d/dt of the breather's partial mass."""

    value: np.ndarray
    dx: np.ndarray
    dt_tilde: np.ndarray
    mass_t: np.ndarray | None = None


def eval_velocity_terms(terms, alpha, beta):
    return sum(c * alpha**i * beta**j for c, i, j in terms)


def velocities(order: int, alpha, beta) -> Velocities:
    _check_order(order)
    dterms, gterms = VELOCITY_TERMS[order]
    return Velocities(eval_velocity_terms(dterms, alpha, beta),
                      eval_velocity_terms(gterms, alpha, beta))


def soliton_speed(order: int, c):
    _check_order(order)
    if order == 11:
        raise ValueError("no soliton speed law is defined for order 11")
    return c ** ((order - 1) // 2)


# --------------------------------------------------------------------------
# Taylor jets from constant derivative matrices


def _taylor(c0, M, basis, K):
    """Taylor coefficients 0..K-1 of f = c0 . basis at every base point.

    basis stacks functions whose x-derivative is basis' = M basis, so the
    coefficient rows obey c_k = c_{k-1} M / k, and all K coefficients come
    from one product of the (K x b) rows with the (b x points) basis.
    """
    rows = [np.asarray(c0)]
    for k in range(1, K):
        rows.append(rows[-1] @ M / k)
    flat = basis.reshape(len(basis), -1)
    return (np.array(rows) @ flat).reshape((K,) + basis.shape[1:])


def _quotient_derivatives(num, den):
    """[q, q', q'', ...] of q = num/den from the Taylor coefficients of num
    and den (axis 0)."""
    q = np.array(num, dtype=np.result_type(num, den))
    K = len(q)
    inv = 1.0 / den[0]
    for k in range(K):
        q[k] *= inv
        q[k + 1:] -= q[k] * den[1:K - k]
    fact = np.array([math.factorial(k) for k in range(K)], dtype=float)
    return q * fact.reshape((-1,) + (1,) * (q.ndim - 1))


# --------------------------------------------------------------------------
# breather evaluation


def _phases(order, alpha, beta, x1, x2, t, x, vel=None):
    """(S, C, sh, ch, vel): sin, cos(alpha y1), sinh, cosh(beta y2)."""
    if vel is None:
        vel = velocities(order, alpha, beta)
    x = np.asarray(x)
    ay1 = alpha * (x + vel.delta * t + x1)
    by2 = beta * (x + vel.gamma * t + x2)
    return np.sin(ay1), np.cos(ay1), np.sinh(by2), np.cosh(by2), vel


def breather_jet_raw(order, alpha, beta, x1, x2, t, x, m, vel=None,
                     mass=False) -> Jet:
    """breather_jet with unvalidated scalar parameters; alpha/beta may be complex
    (complex-step parameter derivatives).  With mass, the jet also holds
    mass_t, the time derivative of partial_mass, (1/2) d/dx d/dt log D,
    from the same phases and under vel."""
    S, C, sh, ch, vel = _phases(order, alpha, beta, x1, x2, t, x, vel)
    r = beta / alpha
    a2, b2 = 2.0 * alpha, 2.0 * beta
    # numerator 2N on (C ch, S sh, S ch, C sh)
    num = _taylor((b2, -b2 * r, 0.0, 0.0),
                  np.array([[0.0, 0.0, -alpha, beta], [0.0, 0.0, beta, alpha],
                            [alpha, beta, 0.0, 0.0], [beta, -alpha, 0.0, 0.0]]),
                  np.stack((C * ch, S * sh, S * ch, C * sh)), m + 1)
    # denominator D on (cos 2a y1, sin 2a y1, cosh 2b y2, sinh 2b y2) plus a
    # constant that only its value sees.  The value is summed from the
    # nonnegative r^2 S^2 and ch^2: the cancelling (r^2+1)/2 - (r^2/2) cos
    # form biases B by about an ulp, and at (alpha, beta) = (0.5, 2) the E9
    # integral, 2e-6 of the summed size of its terms, then misses its
    # closed form by 5e-10, not 7e-11
    cos2, sin2, cosh2, sinh2 = angles = (C * C - S * S, 2.0 * S * C,
                                         ch * ch + sh * sh, 2.0 * sh * ch)
    den = _taylor((-0.5 * r * r, 0.0, 0.5, 0.0),
                  np.array([[0.0, -a2, 0.0, 0.0], [a2, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, b2], [0.0, 0.0, b2, 0.0]]),
                  np.stack(angles), m + 1)
    D = den[0] = r * r * S * S + ch * ch
    # Btilde_t = pval/nval, delta d/dy1 + gamma d/dy2 applied to the
    # antiderivative profile
    nval = alpha**2 * ch * ch + beta**2 * S * S
    pval = 2.0 * (alpha**2 * beta * vel.delta * ch * C
                  - alpha * beta**2 * vel.gamma * sh * S)
    mass_t = None
    if mass:
        # M_t = (1/2) d/dx d/dt log D = (W'D - WD')/D^2, where W = G G_t +
        # F F_t = (beta^2 delta/2 alpha) sin 2 alpha y1 + (beta gamma/2)
        # sinh 2 beta y2 lies in D's basis
        D1 = r * beta * sin2 + beta * sinh2
        W = 0.5 * beta * (r * vel.delta * sin2 + vel.gamma * sinh2)
        W1 = beta * beta * (vel.delta * cos2 + vel.gamma * cosh2)
        mass_t = (W1 * D - W * D1) / (D * D)
    B = _quotient_derivatives(num, den)
    return Jet(value=B[0], dx=B[1:], dt_tilde=pval / nval, mass_t=mass_t)


def breather_jet(p: BreatherParams, t: float, x, m: int = 4) -> Jet:
    """B and its x-derivatives to order m (<= 9) plus Btilde_t at (t, x),
    from the constant derivative matrices of the module docstring.

    Keep |beta (x + gamma t + x2)| below ~354: cosh 2 beta y2 overflows
    beyond that, so evaluation windows should track the core at
    x = -gamma t - x2.
    """
    if not 0 <= m <= 9:
        raise ValueError("jet order m must be in 0..9")
    return breather_jet_raw(p.order, p.alpha, p.beta, p.x1, p.x2, t, x, m)


def b_tilde(p: BreatherParams, t: float, x):
    """Antiderivative profile 2 arctan((beta/alpha) sin(alpha y1)/cosh(beta y2))."""
    S, _, _, ch, _ = _phases(p.order, p.alpha, p.beta, p.x1, p.x2, t, x)
    return 2.0 * np.arctan((p.beta / p.alpha) * S / ch)


def breather_phase_derivatives(order, alpha, beta, x1, x2, t, x):
    """(B, dB/dx1, dB/dx2) on the grid x, in closed form.

    With S, C = sin, cos(alpha y1) and sh, ch = sinh, cosh(beta y2), the
    breather is B = 2N/D where N = beta C ch - (beta^2/alpha) S sh and
    D = (beta/alpha)^2 S^2 + ch^2; the phases enter only through y1 and y2,
    so the quotient rule gives dB/dx_i = 2 (N_i D - N D_i) / D^2.
    """
    s, c, sh, ch, _ = _phases(order, alpha, beta, x1, x2, t, x)
    r = beta / alpha
    num = beta * (c * ch - r * s * sh)
    den = r * r * s * s + ch * ch
    num1 = -beta * (alpha * s * ch + beta * c * sh)
    num2 = beta * beta * (c * sh - r * s * ch)
    den1 = 2.0 * beta * r * s * c
    den2 = 2.0 * beta * ch * sh
    scale = 2.0 / (den * den)
    return (2.0 * num / den, scale * (num1 * den - num * den1),
            scale * (num2 * den - num * den2))


def partial_mass(p: BreatherParams, t: float, x):
    """Cumulative mass (1/2) int_{-inf}^x B^2 = beta + (1/2) D'/D, with
    D = (beta/alpha)^2 S^2 + ch^2 and D' = (beta^2/alpha) sin 2 alpha y1
    + beta sinh 2 beta y2."""
    S, C, sh, ch, _ = _phases(p.order, p.alpha, p.beta, p.x1, p.x2, t, x)
    r = p.beta / p.alpha
    D = r * r * S * S + ch * ch
    D1 = 2.0 * (r * p.beta * S * C + p.beta * sh * ch)
    return p.beta + 0.5 * D1 / D


_CSTEP = 1e-150


def breather_derivative(p: BreatherParams, name: str, t: float, x,
                        m: int = 0) -> np.ndarray:
    """Rows 0..m of the derivative of the breather's jet in the parameter
    `name` (x1, x2, alpha or beta), by an imaginary step of 1e-150: exact
    to rounding, with no difference quotient to tune."""
    params = {"alpha": p.alpha, "beta": p.beta, "x1": p.x1, "x2": p.x2}
    params[name] = params[name] + 1j * _CSTEP
    jet = breather_jet_raw(p.order, t=t, x=x, m=m, **params)
    return np.vstack((jet.value, jet.dx)).imag / _CSTEP


# --------------------------------------------------------------------------
# soliton evaluation


def soliton_jet_raw(order, c, t, x, m) -> Jet:
    """Q = sqrt(c)/cosh z, z = sqrt(c)(x - v t): the quotient of the constant
    sqrt(c) by cosh z, whose jet comes from d/dx (cosh, sinh) = sqrt(c) (sinh, cosh)."""
    v = soliton_speed(order, c)
    rc = np.sqrt(c)
    z = rc * (np.asarray(x) - v * t)
    den = _taylor((1.0, 0.0), np.array([[0.0, rc], [rc, 0.0]]),
                  np.stack((np.cosh(z), np.sinh(z))), m + 1)
    num = np.zeros_like(den)
    num[0] = rc
    Q = _quotient_derivatives(num, den)
    return Jet(value=Q[0], dx=Q[1:], dt_tilde=-v * Q[0])


def soliton_jet(p: SolitonParams, t: float, x, m: int = 4) -> Jet:
    """Q_c(x - v t) and its x-derivatives to order m; dt_tilde = -v Q."""
    if not 0 <= m <= 9:
        raise ValueError("jet order m must be in 0..9")
    return soliton_jet_raw(p.order, p.c, t, x, m)


# --------------------------------------------------------------------------
# differential polynomials
#
# A term list is a tuple of (coefficient, factor orders): the coefficient
# times the product of u_{kx} over the orders k (0 for u itself, () for a
# constant).  The inverse of d/dx runs in Fractions, so a derived
# coefficient is its exact value, rounded once.

def energy_kind(order: int) -> str:
    """The density of the order-th flow, M, E, E5, ...; see ENERGY_ORDERS."""
    return {1: "M", 3: "E"}.get(order, f"E{order}")


ENERGY_ORDERS = {energy_kind(order): order for order in (1,) + ORDERS}


def max_order(terms) -> int:
    """Highest derivative order among the factors; symbols that are not
    orders (the tags of identities.py) are skipped."""
    return max((o for _, orders in terms for o in orders if isinstance(o, int)),
               default=0)


def combine(*weighted):
    """sum_i w_i T_i over (w_i, T_i) pairs, like terms merged and zero terms
    dropped; highest derivative first, then fewest factors."""
    acc = {}
    for w, terms in weighted:
        for coef, orders in terms:
            key = tuple(sorted(orders))
            acc[key] = acc.get(key, 0.0) + w * coef
    keys = sorted((k for k in acc if acc[k]),
                  key=lambda k: (-max(k, default=0), len(k), k))
    return tuple((acc[k], k) for k in keys)


def scale(w, terms):
    """w T, term by term: no merging, so a zero weight keeps every index."""
    return tuple((w * c, orders) for c, orders in terms)


def d_dx(terms):
    """Total x-derivative: the product rule raises each factor in turn."""
    return combine((1.0, [(c, o[:i] + (k + 1,) + o[i + 1:])
                          for c, o in terms for i, k in enumerate(o)]))


def reduce_terms(terms):
    """(F, R), terms = d_dx(F) + R: R holds the powers of u and the terms
    whose highest factor repeats, and no total derivative is made of those
    alone, so R is unique.  Greedy on the highest factor, in Fractions:
    c u_{kx} u_{(k-1)x}^j S, S below order k - 1, leads d/dx of
    c/(j+1) u_{(k-1)x}^{j+1} S, which joins F; its other terms replace it."""
    left = {}
    for c, o in terms:
        key = tuple(sorted(o))
        left[key] = left.get(key, 0) + Fraction(c)
    lifted, kept = [], []
    for k in range(max_order(terms), -1, -1):
        for orders in [o for o in left if max(o, default=0) == k]:
            coef = left.pop(orders)
            if not coef:
                continue
            if k == 0 or orders.count(k) > 1:
                kept.append((float(coef), orders))
                continue
            lift = (k - 1,) * (orders.count(k - 1) + 1)
            rest = tuple(o for o in orders if o < k - 1)
            coef /= len(lift)
            lifted.append((float(coef), lift + rest))
            for i, o in enumerate(rest):
                key = tuple(sorted(lift + rest[:i] + (o + 1,) + rest[i + 1:]))
                left[key] = left.get(key, 0) - coef
    return combine((1.0, lifted)), combine((1.0, kept))


def integrate(terms):
    """The inverse of d_dx, without a constant term; ValueError unless
    `terms` is a total x-derivative."""
    antiderivative, rest = reduce_terms(terms)
    if rest:
        raise ValueError(f"not a total x-derivative: {terms!r}")
    return antiderivative


def partial(terms, k: int):
    """Partial derivative in u_{kx}."""
    return combine((1.0, [(o.count(k) * c, o[:o.index(k)] + o[o.index(k) + 1:])
                          for c, o in terms if k in o]))


def product(a, b):
    """The product of two term lists."""
    return combine((1.0, [(ca * cb, oa + ob) for ca, oa in a for cb, ob in b]))


def eliminate(terms, equation):
    """`terms` with every u_{kx}, k at or above the order n of `equation`,
    rewritten by equation = 0 and its x-derivatives.  The equation must be
    c u_{nx} + R, with c a constant and R of order below n."""
    n = max_order(equation)
    lead = sum(c for c, orders in equation if orders == (n,))
    lower = tuple(t for t in equation if t[1] != (n,))
    if not lead or max_order(lower) >= n:
        raise ValueError("the equation must be c u_{nx} + R, R below order n")
    rules = [scale(-1.0 / lead, lower)]  # u_{(n+i)x} = rules[i]

    def rewrite(poly):
        out = ()
        for coef, orders in poly:
            part = ((coef, tuple(o for o in orders if o < n)),)
            for o in (o for o in orders if o >= n):
                while len(rules) <= o - n:
                    rules.append(rewrite(d_dx(rules[-1])))
                part = product(part, rules[o - n])
            out += part
        return combine((1.0, out))

    return rewrite(terms)


@functools.lru_cache(maxsize=None)
def euler(terms):
    """Variational derivative: the Euler operator sum_k (-d/dx)^k d/du_{kx}."""
    parts = []
    for k in range(max_order(terms) + 1):
        p = partial(terms, k)
        for _ in range(k):
            p = d_dx(p)
        parts.append(((-1.0) ** k, p))
    return combine(*parts)


@functools.lru_cache(maxsize=None)
def frechet(terms):
    """Frechet derivative P'[z] = sum_k (dP/du_{kx}) z_{kx}, as
    (k, coefficient term list) pairs."""
    return tuple((k, p) for k in range(max_order(terms) + 1)
                 if (p := partial(terms, k)))


@functools.lru_cache(maxsize=None)
def evolution_terms(order: int):
    """F_order = u_{(order-1)x} + f_order of the flow u_t = -d/dx F_order,
    any odd order, from F_1 = u by the mKdV recursion operator (Olver,
    J. Math. Phys. 18 (1977) 1212): with K = d/dx F_n,
    F_{n+2} = D^-1 [D^2 K + 4 u^2 K + 4 u_x D^-1 (u K)]."""
    if order < 1 or order % 2 == 0:
        raise ValueError(f"flows have odd positive orders, got {order!r}")
    if order == 1:
        return ((1.0, (0,)),)
    K = d_dx(evolution_terms(order - 2))
    inner = product(((4.0, (1,)),), integrate(product(((1.0, (0,)),), K)))
    return integrate(combine((1.0, d_dx(d_dx(K))), (1.0, inner),
                             (4.0, product(((1.0, (0, 0)),), K))))


@functools.lru_cache(maxsize=None)
def flux_terms(order: int):
    """f_order: evolution_terms(order) without its linear term."""
    _check_order(order)
    return tuple(t for t in evolution_terms(order) if t[1] != (order - 1,))


@functools.lru_cache(maxsize=None)
def density(kind: str):
    """The density `kind` (ENERGY_ORDERS) whose Euler derivative is +-F_order.
    Homotopy formula: P = dL/du for L = int_0^1 u P[s u] ds, so a term c m of
    d factors gives c/(d+1) u m; what reduce_terms leaves of L, scaled to
    lead with +u_{kx}^2/2, is unique."""
    _, rest = reduce_terms([(Fraction(c) / (len(o) + 1), (0,) + o)
                            for c, o in evolution_terms(ENERGY_ORDERS[kind])])
    return scale(0.5 / rest[0][0], rest)


def breather_weights(alpha, beta):
    """(weight, kind) pairs of the breather functional
    H = E5 + 2(beta^2 - alpha^2) E + (alpha^2 + beta^2)^2 M, whose critical
    points are the breathers of every order."""
    a2, b2 = alpha**2, beta**2
    return ((1.0, "E5"), (2.0 * (b2 - a2), "E"), ((a2 + b2) ** 2, "M"))


def _weighted_euler(weights):
    return sum((scale(w, euler(density(kind))) for w, kind in weights), ())


def breather_equation(alpha, beta):
    """dH/du = 0, the stationary fourth-order breather equation."""
    return _weighted_euler(breather_weights(alpha, beta))


class _Weights(dict):
    """A polynomial {(i, j): c} in the weights w_E = 2(beta^2 - alpha^2) and
    w_M = (alpha^2 + beta^2)^2 of H, for the sum of c w_E^i w_M^j, with no
    zero terms.  It has the arithmetic that combine, product and eliminate
    ask of a coefficient, so a term list may carry it."""

    def __add__(self, other):
        if not isinstance(other, _Weights):
            if not other:
                return self
            other = {(0, 0): other}
        out = dict(self)
        for key, c in other.items():
            out[key] = out.get(key, 0.0) + c
        return _Weights((key, c) for key, c in out.items() if c)

    def __mul__(self, other):
        if not isinstance(other, _Weights):
            return _Weights({key: c * other for key, c in self.items()}
                            if other else {})
        out = {}
        for (i, j), c in self.items():
            for (k, l), d in other.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0.0) + c * d
        return _Weights((key, c) for key, c in out.items() if c)

    __radd__, __rmul__ = __add__, __mul__

    def monomials(self):
        """((c, i, j), ...), the form eval_velocity_terms evaluates."""
        return tuple((c, i, j) for (i, j), c in sorted(self.items()))


@functools.lru_cache(maxsize=None)
def reduced_evolution_terms(order: int):
    """evolution_terms(order) with every u_{kx}, k >= 4, eliminated by the
    breather equation, once for every (alpha, beta): the equation's u_4x
    comes from E5 alone, so each coefficient is a polynomial in (w_E, w_M),
    a tuple of monomials (c, i, j) for c w_E^i w_M^j.  `at_weights`
    evaluates it at a point."""
    symbolic = ((1.0, "E5"), (_Weights({(1, 0): 1.0}), "E"),
                (_Weights({(0, 1): 1.0}), "M"))
    reduced = eliminate(evolution_terms(order), _weighted_euler(symbolic))
    return tuple((w.monomials() if isinstance(w, _Weights) else ((w, 0, 0),),
                  orders) for w, orders in reduced)


def at_weights(terms, alpha, beta):
    """A term list of reduced_evolution_terms with its coefficients evaluated
    at the weights of (alpha, beta); the terms that vanish there (w_E = 0 at
    alpha = beta) dropped, as eliminate drops them."""
    _, (w_e, _), (w_m, _) = breather_weights(alpha, beta)
    evaluated = ((eval_velocity_terms(monos, w_e, w_m), orders)
                 for monos, orders in terms)
    return tuple(term for term in evaluated if term[0])


def breather_linearization(alpha, beta):
    """L = (dH/du)' as {k: coefficient of z_{kx}}, functions of u: the
    second variation of H, Q[z] = <z, L z>."""
    out = {}
    for w, kind in breather_weights(alpha, beta):
        for k, terms in frechet(euler(density(kind))):
            out[k] = out.get(k, ()) + scale(w, terms)
    return out


@functools.lru_cache(maxsize=None)
def _horner_plan(terms):
    """Group a term list by its power of u, highest power first.

    Returns (groups, tail): each group is (gap, const, products), where gap
    is the drop in power from the previous group, const the summed
    coefficient of the terms that are a pure power of u, and products the
    (coefficient, other factor orders) of the rest; tail is the lowest power.
    """
    by_power = {}
    for coef, orders in terms:
        others = tuple(o for o in orders if o != 0)
        by_power.setdefault(len(orders) - len(others), []).append((coef, others))
    powers = sorted(by_power, reverse=True)
    groups = []
    for prev, p in zip(powers[:1] + powers, powers):
        const = sum(c for c, others in by_power[p] if not others)
        products = tuple((c, others) for c, others in by_power[p] if others)
        groups.append((prev - p, const, products))
    return tuple(groups), (powers[-1] if powers else 0)


def eval_flux_terms(terms, d):
    """Evaluate a term list on d = [u, u_x, u_xx, ...] (scalars or arrays of
    one shape, real or complex; a stacked 2-D array of rows works as is).

    The list is evaluated in Horner form, as a polynomial in u whose
    coefficients are products of the other factors, with the grouping cached
    per `terms` tuple.  Intermediates are updated in place; the inputs are
    never written.
    """
    groups, tail = _horner_plan(terms)
    d = np.asarray(d)
    u = d[0]
    acc = 0.0
    for gap, const, products in groups:
        for _ in range(gap):
            acc *= u
        if const:
            acc += const
        for coef, others in products:
            prod = coef * d[others[0]]
            for o in others[1:]:
                prod *= d[o]
            acc += prod
    for _ in range(tail):
        acc *= u
    return acc


def flux(order: int, jet: Jet):
    """f_{2n+1} evaluated on a jet (needs derivatives to order 2n-2)."""
    terms = flux_terms(order)
    need = max_order(terms)
    if len(jet.dx) < need:
        raise ValueError(f"flux of order {order} needs a jet with {need} derivatives, "
                         f"got {len(jet.dx)}")
    return eval_flux_terms(terms, [jet.value, *jet.dx])
