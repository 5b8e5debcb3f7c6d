"""The three small optimisers the bounds need, in numpy alone.

``bounded_minimum`` follows scipy.optimize's ``_minimize_scalar_bounded`` step
for step, so it visits the same points and returns the same result as
``minimize_scalar(method="bounded")`` with the default options.
``simplex_lstsq`` is least squares on the simplex c . x = 1, x >= 0: the
Lawson-Hanson active-set method with the equality held exactly, each passive
set solved afresh by one reduced numpy QR, as the Poisson-mixture fit's weight
step needs it.  ``mixture_newton`` takes damped Newton steps on the atoms and
weights of that mixture together, for the fit's last rounds, where the weight
step alone converges only linearly.
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


_NEWTON_MERGE = 0.02  # atoms closer than this in sqrt(t) merge before a Newton step
_NEWTON_DECREMENT = 1e-10  # a first Newton decrement below this skips the second step
_NEWTON_BACKTRACKS = 30  # halvings of a Newton step before it counts as no ascent


def mixture_newton(p: np.ndarray, ks: np.ndarray, atoms: np.ndarray, w: np.ndarray,
                   pois: np.ndarray, columns: Callable[[np.ndarray], np.ndarray], t_cap: float):
    """Up to two damped Newton steps on the atoms t and weights w of a Poisson mixture
    q = pois @ w, pois[k, j] = pois(ks_k; t_j) as ``columns(t)`` makes it, that ascend
    F = sum_k p_k ln q_k over sum_j w_j = 1, w >= 0 and t in [0, t_cap].

    Atoms closer than 0.02 in sqrt(t) first merge at their weighted mean.  Each step
    eliminates the largest weight through sum w = 1 and moves every atom with t > 0 in
    x = ln t, where ln pois is k x - e^x - ln k!, so no step takes an atom to 0 or
    below; an atom at 0 holds still, and one past t_cap is put back there (phi falls
    past the top level, so F never pulls an atom out).  A failed Cholesky factorisation
    of the negated Hessian H (``_newton_system``) returns None.  The step d = H^-1 g is
    cut where the first weight reaches 0, and that atom leaves.  Armijo backtracking
    takes it once sum_k p_k ln(q1_k/q_k) - ln(sum w1/sum w) >= (step/3) g.d: q1 - q is
    formed from the weight changes and expm1 of the columns' log changes, and the
    second term takes out the rounding of the weights' sum, so the test keeps its
    digits where the gain is far below the rounding of q, as on far-tail atoms of tiny
    weight.  The second step is skipped once the Newton decrement g.d is below 1e-10.
    Returns (atoms, w, pois), or None when the first step finds no ascent.
    """
    order = np.argsort(atoms)
    atoms, w, pois = atoms[order], w[order], pois[:, order]
    head = np.concatenate([[True], np.diff(np.sqrt(atoms)) >= _NEWTON_MERGE])
    if not head.all():
        group = np.cumsum(head) - 1
        merged = np.bincount(group) > 1
        w_sum = np.bincount(group, weights=w)
        atoms = np.where(merged, np.bincount(group, weights=w * atoms) / w_sum, atoms[head])
        pois = pois[:, head].copy()
        pois[:, merged] = columns(atoms[merged])
        w = w_sum
    for attempt in range(2):
        q = pois @ w
        i, free, grad, hess = _newton_system(p, ks, atoms, w, pois, q)
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            return None
        delta = np.linalg.solve(hess, grad)
        decrement = float(grad @ delta)
        dw = np.insert(delta[:w.size - 1], i, -delta[:w.size - 1].sum())
        dx = delta[w.size - 1:]
        t, ln_room = atoms[free], np.log(t_cap / atoms[free])
        falling = np.flatnonzero(dw < 0.0)
        cuts = w[falling] / -dw[falling]
        cut = min(1.0, float(cuts.min())) if cuts.size else 1.0
        step = cut
        for _ in range(_NEWTON_BACKTRACKS):
            w1 = np.maximum(w + step * dw, 0.0)
            if step == cut < 1.0:
                w1[falling[np.argmin(cuts)]] = 0.0
            ln_move = np.minimum(step * dx, ln_room)
            t_move = t * np.expm1(ln_move)
            grow = pois[:, free] * np.expm1(ks[:, None] * ln_move - t_move)
            # a step that empties a level scores -inf (or nan, rounded below -1): no ascent
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = p @ np.log1p((pois @ (w1 - w) + grow @ w1[free]) / q)
            gain -= math.log1p(float(np.sum(w1 - w)) / float(np.sum(w)))
            if gain >= step * decrement / 3.0:
                break
            step *= 0.5
        else:
            return None if attempt == 0 else (atoms, w, pois)
        atoms = atoms.copy()
        atoms[free] = np.minimum(t + t_move, t_cap)
        pois = pois.copy()
        pois[:, free] = columns(atoms[free])
        keep = w1 > 0.0
        atoms, w, pois = atoms[keep], w1[keep], pois[:, keep]
        if decrement < _NEWTON_DECREMENT:
            break
    return atoms, w, pois


def _newton_system(p, ks, atoms, w, pois, q):
    """(i, free, g, H) for ``mixture_newton``: the eliminated weight i, the indices of the
    atoms that move, and the gradient and negated Hessian of F = sum_k p_k ln q_k in (the
    weights other than w_i, ln t of the atoms in ``free``).

    With J the Jacobian of q in those variables (columns pois_j - pois_i, then w_j
    d pois_j/dx_j), H = J^T diag(p/q^2) J - sum_k (p_k/q_k) d^2 q_k.  The second
    derivatives of q are d pois_j/dx_j between w_j and x_j (its negative between every
    weight and x_i) and w_j d^2 pois_j/dx_j^2 on the diagonal, where
    d pois/dx = pois (k - t) and d^2 pois/dx^2 = pois ((k - t)^2 - t).
    """
    ratio = p / q
    free = np.flatnonzero(atoms > 0.0)
    i = int(np.argmax(w))
    rest = np.flatnonzero(np.arange(w.size) != i)
    lin = ks[:, None] - atoms[free]
    d1 = pois[:, free] * lin
    jac = np.hstack([pois[:, rest] - pois[:, i:i + 1], d1 * w[free]])
    hess = (jac.T * (ratio / q)) @ jac
    c1 = ratio @ d1
    diag = rest.size + np.arange(free.size)
    at_i = free == i
    hess[free[~at_i] - (free[~at_i] > i), diag[~at_i]] -= c1[~at_i]
    hess[:rest.size, diag[at_i]] += c1[at_i]
    hess[rest.size:, :rest.size] = hess[:rest.size, rest.size:].T
    hess[diag, diag] -= w[free] * (ratio @ (pois[:, free] * (lin * lin - atoms[free])))
    return i, free, ratio @ jac, hess
