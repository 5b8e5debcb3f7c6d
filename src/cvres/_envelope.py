"""The envelope of <alpha|L|alpha> and its certified supremum.

For a Fock-basis matrix L, F(t) = e^(-t) sum_s W_s t^(s/2), W_s from |L_jk|/sqrt(j!k!)
over j + k = s, dominates <alpha|L|alpha> at |alpha|^2 = t for every phase.  It is
kept as the finite ln W_s and their powers s/2, so cutoffs in the hundreds stay
finite.  ``_envelope_sup_certified`` bounds sup_t min(F, cap) by branch-and-bound.
``_peak_polisher`` polishes the maxima of F sampled on a grid by Newton steps in
sqrt(t), for the even-cat search and the Poisson-mixture fit, which need an
uncertified peak; ``_basel_envelope_sup`` bounds the basel state's envelope over
dyadic windows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fock_core import log_factorials


class CertifiedSup(NamedTuple):
    value: float  # certified upper bound on sup_alpha <alpha|L|alpha>
    argmax_t: float  # best observed |alpha|^2
    radius_sq: float  # search radius in t = |alpha|^2
    gap: float  # certification slack (upper bound minus best evaluation)
    levels: int  # branch-and-bound levels that split segments
    splits: int  # interior nodes evaluated, SUP_FANOUT - 1 per split segment


_HALF_LOG_FACTORIALS: dict[int, np.ndarray] = {}


def _half_log_factorials(d: int) -> np.ndarray:
    """(ln j! + ln k!)/2 for 0 <= j, k < d, cached per d and read-only since callers share it."""
    if d not in _HALF_LOG_FACTORIALS:
        log_fact = log_factorials(d)
        table = 0.5 * (log_fact[:, None] + log_fact[None, :])
        table.setflags(write=False)
        _HALF_LOG_FACTORIALS[d] = table
    return _HALF_LOG_FACTORIALS[d]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order; np.unique would import numpy.ma on first use."""
    out = np.sort(values)
    return out[np.concatenate([[True], np.diff(out) > 0.0])]


def _envelope_log_weights(entries: np.ndarray) -> np.ndarray:
    """log W_s for the envelope e^(-t) sum_s W_s t^(s/2), W_s from |L_jk|/sqrt(j!k!)."""
    mag = np.abs(np.asarray(entries))
    d = mag.shape[0]
    j = np.arange(d)
    with np.errstate(divide="ignore"):
        ln_c = np.log(mag) - _half_log_factorials(d)
    by_s = np.full((2 * d - 1, d), -np.inf)  # row s = j + k holds the terms of W_s
    by_s[j[:, None] + j[None, :], j[:, None]] = ln_c
    m = np.max(by_s, axis=1)
    out = np.full(2 * d - 1, -np.inf)
    ok = np.isfinite(m)
    out[ok] = m[ok] + np.log(np.sum(np.exp(by_s[ok] - m[ok, None]), axis=1))
    return out


def _envelope_terms(entries) -> tuple[float, np.ndarray, np.ndarray]:
    """The cap max(largest eigenvalue of L, 0), and the finite ln W_s of the envelope
    with their powers s/2 (``_envelope_log_weights``)."""
    entries = np.asarray(entries)
    cap = max(float(np.max(np.linalg.eigvalsh(0.5 * (entries + entries.conj().T)))), 0.0)
    ln_w = _envelope_log_weights(entries)
    finite = np.isfinite(ln_w)
    return cap, ln_w[finite], (0.5 * np.arange(ln_w.size))[finite]


def _envelope_at(ln_w: np.ndarray, powers: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The envelope F(t) = e^(-t) sum_s W_s t^(s/2) at each t > 0 (at t = 0 the
    constant term would meet 0 * log 0)."""
    vals = ln_w + powers * np.log(t)[:, None] - t[:, None]
    m = vals.max(axis=1)
    return np.exp(m) * np.exp(vals - m[:, None]).sum(axis=1)


SUP_MAX_SPLITS = 20000  # branch-and-bound budget of one certified supremum, in interior nodes
SUP_FANOUT = 8  # pieces each live segment is cut into per branch-and-bound level


def _curvature_table(
    powers: np.ndarray, ln_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents e, coefficients c_e and log bound coefficients of F''(t) = e^(-t) sum_e c_e t^e.

    Each W_s t^p of F(t) = e^(-t) sum_s W_s t^p, W_s = exp(ln_w_s), contributes
    W_s [p(p-1) t^(p-2) - 2p t^(p-1) + t^p]; the exponents are multiples of 1/2, so
    the integer 2e + 4 keys them exactly and opposite signs cancel.  Each group is
    summed relative to its largest term, so weights far outside the float range
    keep their share.  ln(|c_e| + 1e-14 sum|terms of e|) covers the rounding of
    c_e, so sum_e exp(ln_bound_e) max t^e e^(-t) bounds |F''| on a segment.
    """
    exps = np.concatenate([powers - 2.0, powers - 1.0, powers])
    factors = np.concatenate([powers * (powers - 1.0), -2.0 * powers, np.ones_like(powers)])
    keep = factors != 0.0
    key = np.rint(2.0 * exps[keep]).astype(np.intp) + 4
    ln_terms = np.concatenate([ln_w, ln_w, ln_w])[keep] + np.log(np.abs(factors[keep]))
    top = np.full(key.max() + 1, -np.inf)
    np.maximum.at(top, key, ln_terms)
    present = np.isfinite(top)
    scaled = np.sign(factors[keep]) * np.exp(ln_terms - top[key])
    coefs = np.bincount(key, weights=scaled)[present]
    mags = np.bincount(key, weights=np.abs(scaled))[present]
    top = top[present]
    exps = 0.5 * (np.flatnonzero(present) - 4)
    return exps, coefs * np.exp(top), top + np.log(np.abs(coefs) + 1e-14 * mags)


def _monomial_max(exps: np.ndarray, ln_coef: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """sum over e of the max over [lo_i, hi_i] (rows, lo > 0) of exp(ln_coef_e) t^e e^(-t).

    Each term peaks at t = e clipped into the segment; ln_coef_e enters the exponent,
    so neither the weight nor the peak of a high power leaves the float range."""
    t = np.maximum(exps, lo[:, None])
    np.minimum(t, hi[:, None], out=t)
    # in place: this pass runs twice per segment bound and dominates the supremum
    v = np.log(t)
    v *= exps
    v -= t
    v += ln_coef
    return np.exp(v, out=v).sum(axis=1)


def _envelope_sup_certified(cap: float, ln_w: np.ndarray, powers: np.ndarray, *,
                            tol: float) -> CertifiedSup:
    """Certified upper bound on sup over t >= 0 of min(F(t), cap), F(t) = e^(-t) sum_s W_s
    t^(p_s), from the finite ln W_s and their ascending powers p_s >= 0.

    The segment bounds combine per-monomial maxima with the curvature bound of
    ``_curvature_table``.  Each level of the branch-and-bound retires the
    segments whose bound is within ``tol`` (relative) of the best attained
    envelope value and cuts every other segment into ``SUP_FANOUT`` equal
    pieces: one envelope pass evaluates all interior nodes and one pass bounds
    all the pieces.  The result is the largest bound of any segment, live or
    retired.  Beyond the largest power the envelope decreases, so the search
    radius t <= max(p_s, 1) is exhaustive.
    """
    if not ln_w.size or cap == 0.0:
        return CertifiedSup(0.0, 0.0, 0.0, 0.0, 0, 0)
    t_max = max(float(powers[-1]), 1.0)
    curve_exps, _, ln_curve_bound = _curvature_table(powers, ln_w)

    def segment_bounds(a, b, fa, fb):
        lo = np.maximum(a, 1e-300)
        peak = _monomial_max(powers, ln_w, lo, b)
        # F'' is unbounded at t = 0 only when a half-integer power leaves a negative exponent
        at_zero = (a <= 0.0) & (curve_exps[0] < 0.0)
        d2 = _monomial_max(curve_exps, ln_curve_bound, np.where(at_zero, b, lo), b)
        smooth = np.where(at_zero, np.inf, np.maximum(fa, fb) + 0.125 * (b - a) ** 2 * d2)
        return np.minimum(peak, smooth)

    probes = _distinct(np.concatenate([[0.0, t_max], powers[powers > 0.0]]))
    values = np.concatenate([[math.exp(ln_w[0]) if powers[0] == 0.0 else 0.0],
                             _envelope_at(ln_w, powers, probes[1:])])
    i_best = int(np.argmax(values))
    best, best_t = float(values[i_best]), float(probes[i_best])
    a, b, fa, fb = probes[:-1], probes[1:], values[:-1], values[1:]
    bound = segment_bounds(a, b, fa, fb)
    retired = 0.0
    levels = splits = 0
    grid = np.arange(SUP_FANOUT + 1) / SUP_FANOUT
    while a.size:
        live = np.minimum(bound, cap) - best > tol * max(best, 1e-300) + 1e-300
        if not live.all():
            retired = max(retired, float(bound[~live].max()))
            a, b, fa, fb, bound = a[live], b[live], fa[live], fb[live], bound[live]
        if not a.size or splits + a.size * (SUP_FANOUT - 1) > SUP_MAX_SPLITS:
            break
        levels += 1
        splits += a.size * (SUP_FANOUT - 1)
        # row i holds the edges a_i = node_0 < node_1 < ... < node_k = b_i of its pieces
        nodes = a[:, None] + (b - a)[:, None] * grid
        nodes[:, -1] = b
        inner = nodes[:, 1:-1].ravel()
        f_inner = _envelope_at(ln_w, powers, inner)
        i_node = int(f_inner.argmax())
        if f_inner[i_node] > best:
            best, best_t = float(f_inner[i_node]), float(inner[i_node])
        f_nodes = np.column_stack([fa, f_inner.reshape(a.size, -1), fb])
        a, b = nodes[:, :-1].ravel(), nodes[:, 1:].ravel()
        fa, fb = f_nodes[:, :-1].ravel(), f_nodes[:, 1:].ravel()
        bound = segment_bounds(a, b, fa, fb)
    top = max(best, retired, float(bound.max()) if a.size else 0.0)
    certified = max(min(top, cap), 0.0)
    return CertifiedSup(certified, best_t, t_max, max(0.0, certified - min(best, certified)),
                        levels, splits)


# where the uncertified peak samples F, as fractions of the search radius: uniform in sqrt(t)
ENVELOPE_GRID = np.linspace(0.0, 1.0, 33)[1:] ** 2


def _envelope_grid(powers: np.ndarray) -> np.ndarray:
    """Where the uncertified peak samples F, the grid of its ``_peak_polisher``:
    ``ENVELOPE_GRID`` times the search radius, and every power, where its monomials peak."""
    return _distinct(np.concatenate([max(float(powers[-1]), 1.0) * ENVELOPE_GRID,
                                     powers[powers > 0.0]]))


def _peak_polisher(powers: np.ndarray, grid: np.ndarray):
    """(ln_w, values) -> every local maximum (t, F) of F(t) = e^(-t) sum_p W_p t^p, from its
    ``values`` on ``grid``; what depends on the powers and the grid alone is formed once.

    Each local maximum of the samples is polished by Newton steps on
    g(u) = ln F(u^2), u = sqrt(t), whose derivatives are 2E[p]/u - 2u and
    (4Var[p] - 2E[p])/u^2 - 2 under the softmax weights W_p t^p over the powers.
    Unlike ln F, g stays smooth at 0 where a half-integer power makes ln F steep.
    Each point moves within its grid neighbours, the first almost to t = 0, and
    replaces its grid point only where higher.  A grid point at t = 0 is read as
    it is.  F(0) = W_0 is the caller's, so a sample maximum at the first grid
    point t_1 > 0 skips its polish where F provably falls on (0, t_1].  ln_w may
    hold -inf for a weight that is zero.
    """
    edges = np.sqrt(np.maximum(np.concatenate([[0.0], grid, [grid[-1]]]), 1e-300)).tolist()
    two_p, moments = 2.0 * powers, powers[:, None] ** np.arange(3.0)
    # with S(t) = sum_p W_p t^p, F' = e^(-t)(S' - S) <= e^(-t)(S'(t_1) - W_0) on (0, t_1],
    # since S >= W_0 and S' rises: F falls there if S'(t_1) <= W_0
    first_cell = grid[0] > 0.0 and powers[0] == 0.0 and powers[1:].min(initial=1.0) >= 1.0
    if first_cell:
        ln_p, ln_t1 = np.log(powers[1:]), (powers[1:] - 1.0) * math.log(grid[0])

    def polish(ln_w: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        padded = np.concatenate([[-np.inf], values, [-np.inf]])
        peaks = np.flatnonzero((values > padded[:-2]) & (values >= padded[2:]))
        ts, fs = grid[peaks], values[peaks]
        for j, i in enumerate(peaks.tolist()):
            if grid[i] == 0.0:
                continue
            if i == 0 and first_cell and np.logaddexp.reduce(
                    ln_w[1:] + ln_p + ln_t1, initial=-np.inf) <= ln_w[0]:
                continue
            lo, u, hi = edges[i:i + 3]
            # at most 8 steps: Newton converges quadratically, so once a step moves u by
            # at most 1e-5 of itself, ln F sits at its peak to rounding; the pass after
            # the last step only reads F at the final u
            done = False
            for k in range(9):
                terms = ln_w + two_p * math.log(u)
                top = float(terms.max())
                total, first, second = (np.exp(terms - top) @ moments).tolist()
                if done or k == 8:
                    break
                mean = first / total
                curv = (4.0 * (second / total - mean * mean) - 2.0 * mean) / (u * u) - 2.0
                u_next = min(max(u + 2.0 * (u - mean / u) / curv, lo), hi) if curv < 0.0 else u
                done = abs(u_next - u) <= 1e-5 * u
                u = u_next
            polished = math.exp(top - u * u) * total
            if polished > fs[j]:
                ts[j], fs[j] = min(u * u, grid[-1]), polished
        return ts, fs

    return polish


def _basel_envelope_sup(n_max: int) -> float:
    """Certified sup over t of sum_n (2^(n/3)-1) e^(-t) t^(2^n) / (2^n)!.

    Each term is unimodal with peak at t = 2^n and the peaks are geometrically
    separated, so bounding every term by its maximum over dyadic windows
    [2^(j-1/2), 2^(j+1/2)] is tight; far terms decay doubly exponentially.
    """
    if n_max < 1:
        return 0.0
    j_cap = min(n_max, 64)
    n = np.arange(1, min(n_max, 400) + 1, dtype=float)
    ln_w = np.log(np.exp2(n / 3.0) - 1.0)
    k = np.exp2(n)
    # stable Stirling form: e^(-t) t^k / k! <= exp(-k D(t/k)) / sqrt(2 pi k),
    # D(r) = r - 1 - ln r, avoiding the catastrophic k ln k - lgamma cancellation
    ln_stirling = -0.5 * np.log(2.0 * math.pi * k)

    def window_sum(t_lo: float, t_hi: float) -> float:
        r = np.clip(k, max(t_lo, 1e-300), t_hi) / k
        ln_terms = ln_w - k * (r - 1.0 - np.log(r)) + ln_stirling
        return float(np.sum(np.exp(np.clip(ln_terms, -745.0, 700.0))))

    best = 0.0
    for j in range(1, j_cap + 1):
        lo = 0.0 if j == 1 else 2.0 ** (j - 0.5)
        best = max(best, window_sum(lo, 2.0 ** (j + 0.5)))
    if n_max > j_cap:
        # region t > 2^(j_cap + 1/2): computed terms sit on their decreasing side,
        # the rest are bounded by their Stirling peak 2^(-n/6)/sqrt(2 pi)
        t_edge = 2.0 ** (j_cap + 0.5)
        edge_sum = window_sum(t_edge, t_edge)
        geo = (2.0 ** (-(j_cap + 1) / 6.0)) / (math.sqrt(2 * math.pi) * (1 - 2 ** (-1.0 / 6.0)))
        best = max(best, edge_sum + geo)
    if n_max > 400:
        best += (2.0 ** (-401.0 / 6.0)) / (math.sqrt(2 * math.pi) * (1 - 2 ** (-1.0 / 6.0)))
    return best
