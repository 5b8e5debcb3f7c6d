"""The two small optimisers the bounds need, in numpy alone.

``bounded_minimum`` follows scipy.optimize's ``_minimize_scalar_bounded`` step
for step, so it visits the same points and returns the same result as
``minimize_scalar(method="bounded")`` with the default options.  ``nnls`` is
the Lawson-Hanson active-set method, each passive set solved afresh by one
numpy QR, with guards for the degenerate problems of the Poisson-mixture fit.
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


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin of ||a x - b|| over x >= 0: the active-set method of Lawson and Hanson
    (Solving Least Squares Problems, 1974, ch. 23).

    Each passive set P is solved from scratch by one complete QR, a[:, P] =
    [Q1 Q2] R.  The dual vector is a^T Q2 Q2^T b, a^T applied to the part of b
    off the span of P's columns: that is the residual b - a x without the
    cancellation a heavy row (the Poisson-mixture fit's sum row) brings to it.
    A candidate column is skipped until the dual vector is next formed if it
    makes P numerically dependent (R's smallest pivot at most 1e-14 of its
    largest) or if its own weight in the solve that would admit it is not
    positive.  The inner loop, which interpolates back to feasibility and drops
    every weight it or rounding leaves at <= 0, runs at most 3n steps in all;
    past them the current feasible point is returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b  # the part of b off the span of P's columns
    steps = 0

    def solve(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """z on ``cols`` from the complete QR of a[:, cols], the part of b off their
        span, and R's pivots in magnitude."""
        q, r = np.linalg.qr(a[:, cols], mode="complete")
        k = np.count_nonzero(cols)
        qtb = q.T @ b
        z = np.zeros(n)
        z[cols] = np.linalg.solve(r[:k], qtb[:k])
        return z, q[:, k:] @ qtb[k:], np.abs(r.diagonal())

    while np.count_nonzero(passive) < m:
        w = a.T @ resid
        skip = passive.copy()
        while True:  # the candidate of largest dual value that passes both tests
            dual = np.where(skip, -np.inf, w)
            j = int(np.argmax(dual))
            if not dual[j] > 0.0:
                return x
            skip[j] = True
            trial = passive.copy()
            trial[j] = True
            z, resid, pivots = solve(trial)
            if pivots.min() > 1e-14 * pivots.max() and z[j] > 0.0:
                break
        passive[j] = True
        while True:  # step back towards x until every weight in P is positive
            steps += 1
            if steps > 3 * n:
                return x
            hit = passive & (z <= 0.0)
            if not hit.any():
                break
            ratios = x[hit] / (x[hit] - z[hit])
            x += ratios.min() * (z - x)
            x[np.flatnonzero(hit)[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0  # rounding may leave more weights at <= 0; they leave too
            x[~passive] = 0.0
            z, resid, _ = solve(passive)
        x = z
    return x
