"""Truncated Taylor (jet) arithmetic, vectorized over base points.

A Series stores coefficients c[k], k = 0..K-1, of f(x0 + s) = sum_k c[k] s^k
with one trailing axis entry per base point x0.  Products and quotients are
truncated Cauchy convolutions; sin/cos and sinh/cosh use the standard ODE
recurrences seeded by the (possibly complex) values at s = 0.  The k-th
derivative at the base point is k! c[k].

Complex coefficients are supported throughout; complex-step directional
derivatives of any quantity built from Series operations are therefore exact
to rounding.

The package evaluates its jets in closed form; this module stays with the
tests as an independent oracle for them (test_jet_oracle.py).
"""

from __future__ import annotations

import math

import numpy as np


class Series:
    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    # ------------------------------------------------------------- builders
    @staticmethod
    def variable(x0, order: int) -> "Series":
        """Series of the identity map s -> x0 + s."""
        x0 = np.asarray(x0)
        dtype = np.result_type(x0.dtype, np.float64)
        c = np.zeros((order,) + x0.shape, dtype=dtype)
        c[0] = x0
        if order > 1:
            c[1] = 1.0
        return Series(c)

    @staticmethod
    def constant(value, order: int, shape=()) -> "Series":
        value = np.asarray(value)
        dtype = np.result_type(value.dtype, np.float64)
        c = np.zeros((order,) + np.broadcast_shapes(value.shape, shape), dtype=dtype)
        c[0] = value
        return Series(c)

    # ------------------------------------------------------------ accessors
    @property
    def order(self) -> int:
        return self.c.shape[0]

    def value(self):
        return self.c[0]

    def trunc(self, order: int) -> "Series":
        return Series(self.c[:order])

    def deriv(self) -> "Series":
        """Series of f', one order shorter."""
        k = np.arange(1, self.order).reshape((-1,) + (1,) * (self.c.ndim - 1))
        return Series(self.c[1:] * k)

    def derivatives(self, m: int | None = None) -> np.ndarray:
        """Stack [f, f', ..., f^(m)] at the base points (k! c[k])."""
        if m is None:
            m = self.order - 1
        fact = np.array([math.factorial(k) for k in range(m + 1)])
        return self.c[: m + 1] * fact.reshape((-1,) + (1,) * (self.c.ndim - 1))

    # ------------------------------------------------------------ arithmetic
    def __neg__(self) -> "Series":
        return Series(-self.c)

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            K = min(self.order, other.order)
            return Series(self.c[:K] + other.c[:K])
        c = self.c.copy()
        c[0] = c[0] + other
        return Series(c)

    __radd__ = __add__

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series) else -np.asarray(other))

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series(self.c * other)
        K = min(self.order, other.order)
        a, b = self.c, other.c
        dtype = np.result_type(a.dtype, b.dtype)
        out = np.zeros((K,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=dtype)
        for k in range(K):
            for j in range(k + 1):
                out[k] += a[j] * b[k - j]
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series(self.c / other)
        K = min(self.order, other.order)
        a, b = self.c, other.c
        dtype = np.result_type(a.dtype, b.dtype)
        out = np.zeros((K,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=dtype)
        out[0] = a[0] / b[0]
        for k in range(1, K):
            acc = a[k].astype(dtype) + np.zeros_like(out[k])
            for j in range(k):
                acc = acc - out[j] * b[k - j]
            out[k] = acc / b[0]
        return Series(out)

    def __rtruediv__(self, other) -> "Series":
        return Series.constant(other, self.order, self.c.shape[1:]) / self


def sin_cos(f: Series) -> tuple[Series, Series]:
    """(sin f, cos f) from s' = f' cos f, c' = -f' sin f."""
    K = f.order
    a = f.c
    dtype = np.result_type(a.dtype, np.float64)
    s = np.zeros_like(a, dtype=dtype)
    c = np.zeros_like(a, dtype=dtype)
    s[0] = np.sin(a[0])
    c[0] = np.cos(a[0])
    for k in range(1, K):
        ds = np.zeros_like(s[0])
        dc = np.zeros_like(c[0])
        for j in range(1, k + 1):
            ds = ds + j * a[j] * c[k - j]
            dc = dc - j * a[j] * s[k - j]
        s[k] = ds / k
        c[k] = dc / k
    return Series(s), Series(c)


def sinh_cosh(f: Series) -> tuple[Series, Series]:
    """(sinh f, cosh f); same recurrence with both signs positive."""
    K = f.order
    a = f.c
    dtype = np.result_type(a.dtype, np.float64)
    s = np.zeros_like(a, dtype=dtype)
    c = np.zeros_like(a, dtype=dtype)
    s[0] = np.sinh(a[0])
    c[0] = np.cosh(a[0])
    for k in range(1, K):
        ds = np.zeros_like(s[0])
        dc = np.zeros_like(c[0])
        for j in range(1, k + 1):
            ds = ds + j * a[j] * c[k - j]
            dc = dc + j * a[j] * s[k - j]
        s[k] = ds / k
        c[k] = dc / k
    return Series(s), Series(c)
