"""The three small optimisers the bounds need, in numpy alone.

``nelder_mead`` and ``bounded_minimum`` follow scipy.optimize's
``_minimize_neldermead`` and ``_minimize_scalar_bounded`` step for step, so
they visit the same points and return the same results as
``minimize(method="Nelder-Mead")`` and ``minimize_scalar(method="bounded")``
called with the same options.  ``nnls`` is the Lawson-Hanson active-set
method with guards for the degenerate problems of the Poisson-mixture fit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


class SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int  # iterations, counted from 1 as scipy counts them
    success: bool  # False once maxiter stopped the search


# the standard coefficients: reflection, expansion, contraction, shrink
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025  # the start simplex moves a coordinate by 5 %, or to 0.00025 from 0


def nelder_mead(
    fun: Callable[[np.ndarray], float],
    x0,
    *,
    maxiter: int,
    xatol: float = 1e-4,
    fatol: float = 1e-4,
) -> SimplexResult:
    """Unbounded Nelder-Mead from scipy's default start simplex around ``x0``.

    Stops once every vertex lies within ``xatol`` of the best one in each
    coordinate and every value within ``fatol`` of the best, or once the
    iteration count reaches ``maxiter``.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim[k + 1] = y
    fsim = np.array([fun(v) for v in sim], dtype=float)
    for _ in range(2):  # scipy sorts twice here; the default argsort need not be stable
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = fun(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = fun(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # outside contraction
            xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
            fxc = fun(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:  # inside contraction
            xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
            fxcc = fun(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                fsim[j] = fun(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return SimplexResult(sim[0], float(np.min(fsim)), iterations, iterations < maxiter)


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_BOUNDED_XATOL = 1e-5
_BOUNDED_MAXFUN = 500


def bounded_minimum(fun: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """(x, fun(x)) at Brent's minimum of ``fun`` on [lo, hi] (golden section plus parabolas),
    to 1e-5 absolute in x within 500 evaluations."""
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
            break
    return xf, fx


def _sign_or_one(v: float) -> float:
    """sign(v), with +1 at zero."""
    return -1.0 if v < 0.0 else 1.0


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin of ||a x - b|| over x >= 0: the NNLS routine of Lawson and Hanson
    (Solving Least Squares Problems, 1974, ch. 23), as scipy runs it.

    Columns enter the passive set P through Householder reflections and leave
    it through Givens rotations, so the dual vector a^T (b - a x) is formed
    from the rows below the triangle, free of the cancellation a heavy row
    would bring.  A candidate column that is numerically dependent on P, or
    whose own weight in the solve that would admit it is not positive, is
    skipped until the dual vector is next formed.  The inner loop, which
    interpolates back to feasibility, runs at most 3n steps in all; past them
    the current feasible point is returned.
    """
    a = np.array(a, dtype=float)  # both are transformed in place
    b = np.array(b, dtype=float)
    m, n = a.shape
    x = np.zeros(n)
    w = np.zeros(n)
    index = np.arange(n)  # index[:k] is P in triangle order, index[k:] the rest
    k = 0
    steps = 0

    def back_substitute(z: np.ndarray) -> np.ndarray:
        for i in range(k - 1, -1, -1):
            col = index[i]
            z[i] /= a[i, col]
            z[:i] -= a[:i, col] * z[i]
        return z

    while k < min(m, n):
        w[index[k:]] = b[k:] @ a[k:, index[k:]]
        while True:  # the candidate of largest dual value that passes both tests
            pos = k + int(np.argmax(w[index[k:]]))
            j = index[pos]
            if not w[j] > 0.0:
                return x
            saved = a[k, j]
            up = _householder(a[k:, j])
            unorm = math.sqrt(float(a[:k, j] @ a[:k, j]))
            if (unorm + abs(a[k, j]) * 0.01) - unorm > 0.0:
                z = b.copy()
                _reflect(a[k:, j], up, z[k:, None])
                if z[k] / a[k, j] > 0.0:
                    break
            a[k, j] = saved
            w[j] = 0.0
        b = z
        index[pos], index[k] = index[k], j
        k += 1
        rest = index[k:]
        block = a[k - 1:, rest]
        _reflect(a[k - 1:, j], up, block)
        a[k - 1:, rest] = block
        a[k:, j] = 0.0
        w[j] = 0.0
        z = back_substitute(b.copy())
        while True:  # step back towards x until every weight in P is positive
            steps += 1
            if steps > 3 * n:
                return x
            hit = np.flatnonzero(z[:k] <= 0.0)
            if hit.size == 0:
                break
            passive = index[:k]
            ratios = -x[passive[hit]] / (z[hit] - x[passive[hit]])
            x[passive] += ratios.min() * (z[:k] - x[passive])
            out = int(hit[np.argmin(ratios)])
            while True:  # rounding may leave more weights at <= 0; they leave too
                x[index[out]] = 0.0
                k = _leave(a, b, index, k, out)
                bad = np.flatnonzero(x[index[:k]] <= 0.0)
                if bad.size == 0:
                    break
                out = int(bad[0])
            z = back_substitute(b.copy())
        x[index[:k]] = z[:k]
    return x


def _householder(u: np.ndarray) -> float | None:
    """Make u the store of a Householder reflection that zeroes u[1:]: u[0] becomes
    the new pivot and u[1:] the vector's tail; returns the vector's head, or None
    where there is nothing to reflect."""
    cl = float(np.abs(u).max()) if u.size > 1 else 0.0
    if cl <= 0.0:
        return None
    norm = cl * math.sqrt(float(np.sum((u / cl) ** 2)))
    if u[0] > 0.0:
        norm = -norm
    up = u[0] - norm
    u[0] = norm
    return up


def _reflect(u: np.ndarray, up: float | None, c: np.ndarray) -> None:
    """Apply the reflection stored in (up, u) to the columns of c, in place."""
    if up is None or c.size == 0 or not up * u[0] < 0.0:
        return
    sm = (up * c[0] + u[1:] @ c[1:]) * (1.0 / (up * u[0]))
    c[0] += sm * up
    c[1:] += np.outer(u[1:], sm)


def _leave(a: np.ndarray, b: np.ndarray, index: np.ndarray, k: int, out: int) -> int:
    """Move the column at triangle position ``out`` from P to the rest, restoring the
    triangle of a (and b with it) by Givens rotations; returns the new size of P."""
    gone = index[out]
    for pos in range(out + 1, k):
        col = index[pos]
        index[pos - 1] = col
        c, s, sig = _givens(a[pos - 1, col], a[pos, col])
        top = a[pos - 1].copy()
        a[pos - 1] = c * top + s * a[pos]
        a[pos] = -s * top + c * a[pos]
        a[pos - 1, col], a[pos, col] = sig, 0.0
        b[pos - 1], b[pos] = c * b[pos - 1] + s * b[pos], -s * b[pos - 1] + c * b[pos]
    index[k - 1] = gone
    return k - 1


def _givens(p: float, q: float) -> tuple[float, float, float]:
    """(c, s, r) with c p + s q = r and -s p + c q = 0."""
    if abs(p) > abs(q):
        ratio = q / p
        root = math.sqrt(1.0 + ratio * ratio)
        c = math.copysign(1.0 / root, p)
        return c, c * ratio, abs(p) * root
    if q != 0.0:
        ratio = p / q
        root = math.sqrt(1.0 + ratio * ratio)
        s = math.copysign(1.0 / root, q)
        return s * ratio, s, abs(q) * root
    return 0.0, 1.0, 0.0
