"""The two small optimisers the bounds need, in numpy alone.

``bounded_minimum`` follows scipy.optimize's ``_minimize_scalar_bounded`` step
for step, so it visits the same points and returns the same result as
``minimize_scalar(method="bounded")`` with the default options.
``simplex_lstsq`` is least squares on the simplex c . x = 1, x >= 0: the
Lawson-Hanson active-set method with the equality held exactly, each passive
set solved afresh by one reduced numpy QR, as the Poisson-mixture fit's weight
step needs it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_BOUNDED_XATOL = 1e-5
_BOUNDED_MAXFUN = 500


def bounded_minimum(fun: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, bool]:
    """(x, fun(x), closed) at Brent's minimum of ``fun`` on [lo, hi] (golden section plus
    parabolas), to 1e-5 absolute in x within 500 evaluations; ``closed`` is False when the
    budget ran out first, where scipy reports status 1."""
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _BOUNDED_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _BOUNDED_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXFUN:
            return xf, fx, False
    return xf, fx, True


def _sign_or_one(v: float) -> float:
    """sign(v), with +1 at zero."""
    return -1.0 if v < 0.0 else 1.0


def simplex_lstsq(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """argmin of ||a x - b|| over x >= 0 with c . x = 1 held exactly (c > 0): the
    active-set method of Lawson and Hanson (Solving Least Squares Problems, 1974,
    ch. 23) on the simplex, started at its best vertex e_j / c_j.

    Each passive set P is solved afresh: the weight of x's largest share c_i x_i
    on P is eliminated through c . x = 1, the rest solved by one reduced numpy QR.
    On P, g = a^T (a x - b) equals -lam c, and c . x = 1 gives lam = -x . g, so
    the multipliers w = (x . g) c - g need no penalty row.  A candidate is skipped
    until w is next formed if it makes P numerically dependent (a pivot of R at
    most 1e-14 of a's largest column norm on P) or gets no positive weight.  The
    inner loop, which interpolates back to feasibility and drops every weight it
    or rounding leaves at <= 0, runs at most 3n steps in all; past them, or on a
    dependent set, the current feasible point is returned.
    """
    m, n = a.shape
    passive = np.arange(n) == np.argmin(np.linalg.norm(a / c - b[:, None], axis=0))
    x = np.where(passive, 1.0 / c, 0.0)
    steps = 0

    def solve(cols: np.ndarray) -> np.ndarray | None:
        """z on ``cols`` with c . z = 1, or None where ``cols`` are numerically dependent."""
        idx = np.flatnonzero(cols)
        i = idx[np.argmax(c[idx] * x[idx])]
        rest = idx[idx != i]
        q, r = np.linalg.qr(a[:, rest] - np.outer(a[:, i] / c[i], c[rest]))
        if not np.all(np.abs(r.diagonal()) > 1e-14 * np.linalg.norm(a[:, idx], axis=0).max()):
            return None
        z = np.zeros(n)
        z[rest] = np.linalg.solve(r, q.T @ (b - a[:, i] / c[i]))
        z[i] = (1.0 - c[rest] @ z[rest]) / c[i]
        return z

    while np.count_nonzero(passive) <= m:
        g = a.T @ (a @ x - b)
        w = np.where(passive, -np.inf, (x @ g) * c - g)
        while True:  # the candidate of largest multiplier that passes both tests
            j = int(np.argmax(w))
            if not w[j] > 0.0:
                return x
            w[j] = -np.inf
            z = solve(passive | (np.arange(n) == j))
            if z is not None and z[j] > 0.0:
                break
        passive[j] = True
        while True:  # step back towards x until every weight in P is positive
            steps += 1
            if steps > 3 * n or z is None:
                return x
            hit = passive & (z <= 0.0)
            if not hit.any():
                break
            ratios = x[hit] / (x[hit] - z[hit])
            x += ratios.min() * (z - x)
            x[np.flatnonzero(hit)[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0  # rounding may leave more weights at <= 0; they leave too
            x[~passive] = 0.0
            z = solve(passive)
        x = z
    return x
