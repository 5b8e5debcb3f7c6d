"""Certified lower and upper bounds on the nonclassicality monotones.

Lower bounds come from the variational program

    sup over positive L of  Tr[rho log2 L] - log2 sup_alpha <alpha|L|alpha>,

whose every feasible L yields a valid lower bound; the inner supremum always
enters through a certified upper bound, so reported values never overshoot.
Upper bounds come from explicit classical ansatz states, the energy bound
m*g(E/m), Wehrl-entropy estimates, and the Gaussian closed forms.  Bounds for
the ideal (untruncated) state are obtained by folding in the spectral
truncation certificate m*eps*g(2E/(m*eps)) + g(eps), at the energy E of the
ideal state that ``make_state`` recorded on the state (``ideal_energy``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar, nnls
from scipy.special import gammaln, xlogy

from .entropies import (
    _ZERO_BIN,
    LN2,
    LOG2E,
    SUPPORT_TOL,
    OptimizerReport,
    ascend,
    entropy_of_probabilities,
    exp_frechet_gradient,
    exp_hermitian,
    husimi_sup,
    von_neumann_entropy,
    wehrl_entropy,
)
from .errors import BoundConsistencyError, UsageError
from .fock_core import DensityOperator, coherent_vector
from .states import (
    FockDiagonalState,
    GaussianDescriptor,
    cat_amplitudes,
    exact_energy,
    gaussian_descriptor,
)


# ---------------------------------------------------------------------------
# shared small pieces
# ---------------------------------------------------------------------------

def g_thermal(x: float) -> float:
    """g(x) = (x+1) log2(x+1) - x log2(x), the entropy of a thermal state of mean x."""
    if x < 0:
        raise UsageError("g is defined for x >= 0")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def truncation_certificate(eps: float, energy: float, modes: int = 1) -> float:
    """Monotone error bar for a trace-distance-eps spectral truncation at energy <= E.

    m*eps*g(x) at x = 2E/(m*eps) is taken as m*eps*log2(1 + x) + 2E*log2(1 + 1/x)
    with only ln x formed: x overflows for tiny eps or huge E, and g's own form
    cancels to NaN there.  Once 1/x underflows, 2E*ln(1 + 1/x) is its limit m*eps.
    g(eps) takes ln(1 + eps) from log1p, which keeps its share for tiny eps.
    """
    if not (0.0 <= eps <= 1.0):
        raise UsageError("eps must lie in [0, 1]")
    if not (0.0 <= energy < math.inf) or modes < 1:
        raise UsageError("energy must be finite and >= 0, and modes >= 1")
    if eps == 0.0:
        return 0.0
    nats = (1.0 + eps) * math.log1p(eps) - eps * math.log(eps)  # g(eps)
    if energy > 0.0:
        m_eps = modes * eps
        ln_x = math.log(energy) + LN2 - math.log(m_eps)
        nats += m_eps * (max(ln_x, 0.0) + math.log1p(math.exp(-abs(ln_x))))  # m*eps*ln(1 + x)
        if ln_x < 0.0:
            nats += 2.0 * energy * (math.log1p(math.exp(ln_x)) - ln_x)  # 2E*ln(1 + 1/x)
        else:
            inv_x = math.exp(-ln_x)  # 2E*ln(1 + 1/x) = m*eps * ln(1 + 1/x)/(1/x)
            nats += m_eps * (math.log1p(inv_x) / inv_x if inv_x > 0.0 else 1.0)
    return LOG2E * nats


def truncation_epsilon(rho: DensityOperator) -> float:
    """Trace-distance bound between the renormalized truncation and the ideal state.

    Diagonal states lose exactly the deficit; for general states the gentle
    measurement estimate sqrt(delta) + delta/2 applies.
    """
    delta = rho.trace_deficit
    if delta <= 0.0:
        return 0.0
    if rho.fock_diagonal:
        return min(1.0, delta)
    return min(1.0, math.sqrt(delta) + 0.5 * delta)


def fock_closed_form(n: int) -> float:
    """log2(n! e^n / n^n) via log-gamma; zero for the vacuum."""
    if n < 0:
        raise UsageError("n must be >= 0")
    if n == 0:
        return 0.0
    return (float(gammaln(n + 1)) + n - n * math.log(n)) / LN2


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 300
    objective_tol: float = 1e-8  # bits

    def __post_init__(self):
        if self.objective_tol <= 0:
            raise UsageError("objective_tol must be positive")


@dataclass(frozen=True)
class MonotoneBound:
    quantity: str  # NCM | NC | free_energy
    direction: str  # lower | upper
    value: float
    certificate: dict = field(default_factory=dict)
    converged: bool = True

    def __post_init__(self):
        if self.direction not in ("lower", "upper"):
            raise UsageError("direction must be lower or upper")
        if self.direction == "lower" and self.value < 0:
            raise UsageError("lower bounds must be floored at zero before construction")

    def to_json(self) -> str:
        return json.dumps(
            {
                "quantity": self.quantity,
                "direction": self.direction,
                "value": self.value,
                "certificate": self.certificate,
                "converged": self.converged,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MonotoneBound":
        doc = json.loads(text)
        return cls(
            doc["quantity"],
            doc["direction"],
            float(doc["value"]),
            dict(doc["certificate"]),
            bool(doc["converged"]),
        )


def ideal_energy(rho: DensityOperator | FockDiagonalState) -> float:
    """The certificate energy: that of the ideal state when ``make_state`` built ``rho``
    from a spec, else the mean photon number of the matrix itself, which is all there is."""
    return exact_energy(rho.spec) if rho.spec is not None else rho.energy


def _certified(
    rho: DensityOperator | FockDiagonalState,
    quantity: str,
    direction: str,
    raw: float,
    certificate: dict,
    *,
    sup: CertifiedSup | None = None,
    converged: bool = True,
) -> MonotoneBound:
    """The bound for the ideal state from ``raw``, a bound computed on the truncated ``rho``.

    Folds in ``truncation_certificate`` at eps = ``truncation_epsilon(rho)`` and
    energy ``ideal_energy(rho)``: a lower bound drops by the correction and is
    floored at zero, an upper bound rises by it (+inf stays +inf).  The
    certificate leads with the eps and correction used, then the radius and
    slack of the inner supremum ``sup``, then the caller's keys.
    """
    eps = truncation_epsilon(rho)
    correction = truncation_certificate(eps, ideal_energy(rho), rho.modes)
    value = max(0.0, raw - correction) if direction == "lower" else raw + correction
    head = {"truncation_epsilon": eps, "truncation_correction_bits": correction}
    if sup is not None:
        head.update(inner_sup_radius=sup.radius_sq, inner_sup_grid_error=sup.gap)
    return MonotoneBound(quantity, direction, value, {**head, **certificate}, converged)


# ---------------------------------------------------------------------------
# certified coherent supremum
# ---------------------------------------------------------------------------

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
        log_fact = gammaln(np.arange(d) + 1)
        table = 0.5 * (log_fact[:, None] + log_fact[None, :])
        table.setflags(write=False)
        _HALF_LOG_FACTORIALS[d] = table
    return _HALF_LOG_FACTORIALS[d]


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


SUP_MAX_SPLITS = 20000  # branch-and-bound budget of one certified supremum, in interior nodes
SUP_FANOUT = 8  # pieces each live segment is cut into per branch-and-bound level
INNER_TOL = 1e-9  # relative slack of the certified inner sup in every lower-bound engine


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


def coherent_sup_certified(entries, *, tol: float = 1e-10) -> CertifiedSup:
    """Certified upper bound on sup over all alpha in C of <alpha|L|alpha>.

    Works on the absolute-coefficient envelope F(t) = e^(-t) sum_s W_s t^(s/2),
    which dominates the target for every phase of alpha; the segment bounds
    combine per-monomial maxima with the curvature bound of ``_curvature_table``.
    Each level of the branch-and-bound retires the segments whose bound is within
    ``tol`` (relative) of the best attained envelope value and cuts every other
    segment into ``SUP_FANOUT`` equal pieces: one envelope pass evaluates all
    interior nodes and one pass bounds all the pieces.  The result is the largest
    bound of any segment, live or retired.  Beyond the largest power the
    envelope decreases, so the search radius t <= d-1 is exhaustive; the
    largest eigenvalue of L caps the result since truncated coherent vectors
    have norm at most one.
    """
    entries = np.asarray(entries)
    cap = max(float(np.max(np.linalg.eigvalsh(0.5 * (entries + entries.conj().T)))), 0.0)
    ln_w = _envelope_log_weights(entries)
    powers = 0.5 * np.arange(ln_w.size)
    finite = np.isfinite(ln_w)
    if not np.any(finite) or cap == 0.0:
        return CertifiedSup(0.0, 0.0, 0.0, 0.0, 0, 0)
    ln_w = ln_w[finite]
    powers = powers[finite]
    t_max = max(float(powers[-1]), 1.0)
    curve_exps, _, ln_curve_bound = _curvature_table(powers, ln_w)

    def envelope_at(t: np.ndarray) -> np.ndarray:
        # t > 0 only: at t = 0 the constant term would meet 0 * log 0
        vals = ln_w + powers * np.log(t)[:, None] - t[:, None]
        m = vals.max(axis=1)
        return np.exp(m) * np.exp(vals - m[:, None]).sum(axis=1)

    def segment_bounds(a, b, fa, fb):
        lo = np.maximum(a, 1e-300)
        peak = _monomial_max(powers, ln_w, lo, b)
        # F'' is unbounded at t = 0 only when a half-integer power leaves a negative exponent
        at_zero = (a <= 0.0) & (curve_exps[0] < 0.0)
        d2 = _monomial_max(curve_exps, ln_curve_bound, np.where(at_zero, b, lo), b)
        smooth = np.where(at_zero, np.inf, np.maximum(fa, fb) + 0.125 * (b - a) ** 2 * d2)
        return np.minimum(peak, smooth)

    probes = np.unique(np.concatenate([[0.0, t_max], powers[powers > 0.0]]))
    values = np.concatenate([[math.exp(ln_w[0]) if powers[0] == 0.0 else 0.0],
                             envelope_at(probes[1:])])
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
        f_inner = envelope_at(inner)
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


# ---------------------------------------------------------------------------
# generic variational lower bound (gradient ascent on H with L = exp(H))
# ---------------------------------------------------------------------------

def _coherent_witness_weight(entries: np.ndarray, t_star: float) -> np.ndarray:
    d = entries.shape[0]
    k = np.arange(d)
    if t_star <= 0.0:
        v = np.zeros(d)
        v[0] = 1.0
    else:
        v = np.exp(0.5 * (k * math.log(t_star) - gammaln(k + 1)) - 0.5 * t_star)
    mag = np.abs(entries)
    phase = np.where(mag > 0, entries / np.where(mag > 0, mag, 1.0), 1.0)
    return phase * np.outer(v, v)


def _gamma_ascent_dense(rho_m: np.ndarray, cfg: OptimizerConfig) -> tuple[float, CertifiedSup, OptimizerReport]:
    delta = 1e-9
    evals, vecs = np.linalg.eigh(rho_m)
    h = (vecs * np.log(np.maximum(evals, delta))) @ vecs.conj().T
    h = 0.5 * (h + h.conj().T)

    def evaluate(h_mat):
        l_mat, evals, vecs = exp_hermitian(h_mat)
        cert = coherent_sup_certified(l_mat, tol=INNER_TOL)
        aux = (cert, l_mat, evals, vecs)
        if cert.value <= 0.0:
            return -math.inf, aux
        lin = float(np.real(np.trace(rho_m @ h_mat)))
        return LOG2E * lin - math.log2(cert.value), aux

    def gradient(h_mat, aux):
        cert, l_mat, evals, vecs = aux
        weight = _coherent_witness_weight(l_mat, cert.argmax_t)
        grad_tr = exp_frechet_gradient(evals, vecs, weight)
        return LOG2E * (rho_m - grad_tr / max(cert.value, 1e-300))

    _, best_value, (best_cert, *_), report = ascend(
        evaluate, gradient, h, cfg.max_iters, cfg.objective_tol)
    return best_value, best_cert, report


def gamma_lower_bound(rho: DensityOperator, cfg: OptimizerConfig | None = None) -> MonotoneBound:
    """Certified lower bound on the measured relative entropy of nonclassicality.

    Any iterate of the ascent is feasible, so the best value found (minus the
    truncation correction, floored at zero) is a valid bound for the ideal
    state whose truncation this is.
    """
    if rho.modes != 1:
        raise UsageError("gamma_lower_bound operates on single-mode states; use product "
                         "ansatz helpers for tensor inputs")
    raw, cert, report = _gamma_ascent_dense(rho.renormalized().entries, cfg or OptimizerConfig())
    return _certified(rho, "NCM", "lower", raw,
                      {"ansatz_description": "dense exp(H) ascent", "raw_value_bits": raw,
                       "iterations": report.iterations},
                      sup=cert, converged=report.converged)


def cat_gamma_lower_bound(rho: DensityOperator) -> MonotoneBound:
    """Parity-block lower bound for a cat state built by ``make_state``.

    L acts on the cat's own parity block: |cat><cat| alone for the odd cat
    (and for an even cat whose span holds no other even direction), or
    exp(log M) on span{cat+, v0} with v0 the vacuum orthogonalised against
    cat+, plus a 1e-12 floor on the complement so L stays positive definite.
    The other parity block would only raise <beta|L|beta>, and the scale of L
    is fixed by <cat|log L|cat> = 0, so Tr[rho log L] vanishes and the bound
    is -log2 of the certified supremum; the even cat searches the two free
    entries of log M.
    """
    if rho.spec is None or rho.spec.family != "cat":
        raise UsageError("cat_gamma_lower_bound takes a cat state built by make_state")
    sign = rho.spec.params["sign"]
    psi = cat_amplitudes(rho.spec.params["alpha"], sign, rho.cutoff)
    psi = psi / np.linalg.norm(psi)
    v0 = -psi[0] * psi
    v0[0] += 1.0
    norm_v0 = np.linalg.norm(v0)
    floor = 1e-12

    if sign == "-" or norm_v0 < 1e-8:
        cert = coherent_sup_certified(np.outer(psi, psi), tol=INNER_TOL)
        raw, iterations, converged = -math.log2(cert.value + floor), 0, True
        ansatz = "cat parity-block ansatz |cat><cat|"
    else:
        basis = np.stack([psi, v0 / norm_v0])
        best = (-math.inf, None)

        def objective(x):
            # only the top is clipped, since a floor would flatten the objective and stall
            # the search; log M[0, 0] = 0 keeps the trace term at zero at every point
            nonlocal best
            x1, x2 = np.minimum(x, 50.0)
            m, _, _ = exp_hermitian(np.array([[0.0, x1], [x1, x2]]))
            cert = coherent_sup_certified(basis.T @ m @ basis, tol=INNER_TOL)
            value = -math.log2(cert.value + floor)
            if value > best[0]:
                best = (value, cert)
            return -value

        res = minimize(objective, np.array([0.0, -8.0]), method="Nelder-Mead",
                       options={"maxiter": 250, "xatol": 1e-6, "fatol": 1e-9})
        raw, cert = best
        iterations, converged = int(res.nit), bool(res.success)
        ansatz = "cat parity-block ansatz on span{cat+, vacuum}"
    return _certified(rho, "NCM", "lower", raw,
                      {"ansatz_description": ansatz, "raw_value_bits": raw, "iterations": iterations},
                      sup=cert, converged=converged)


# ---------------------------------------------------------------------------
# exact Fock-diagonal program (Poisson-mixture dual + certified primal)
# ---------------------------------------------------------------------------

class FockDiagonalResult(NamedTuple):
    lower: MonotoneBound
    upper: MonotoneBound


def _log_poisson(ks: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """ln pois(k; t) for k (rows) and t (cols); t = 0 is the point mass at 0 (xlogy(0, 0) = 0)."""
    return xlogy(ks[:, None], ts[None, :]) - ts[None, :] - gammaln(ks + 1)[:, None]


FD_TOL_BITS = 1e-7  # half the primal-dual gap the Fock-diagonal program may leave
FD_MAX_ROUNDS = 500  # exchange rounds of the Poisson-mixture fit
FD_SUM_ROW = 1e4  # weight of the least-squares row that holds the mixture weights to sum 1


def _phi_maxima(ks, a, grid, log_pois_grid):
    """Local maxima (t, ln phi(t)) of ln phi(t) = logsumexp_k(a_k + ln pois(k; t)).

    The maxima of the grid values are polished together by Newton steps on ln phi,
    whose derivatives are E[k]/t - 1 and (Var[k] - E[k])/t^2 under the softmax
    weights over k.  Each step stays between the point's grid neighbours, and a
    polished point replaces its grid point only where it is higher.
    """
    def log_phi(log_pois):  # and the softmax weights over k
        v = a[:, None] + log_pois
        top = v.max(axis=0)
        v = np.exp(v - top)
        total = v.sum(axis=0)
        return top + np.log(total), v / total

    ln_phi, _ = log_phi(log_pois_grid)
    left = np.concatenate([[-np.inf], ln_phi[:-1]])
    right = np.concatenate([ln_phi[1:], [-np.inf]])
    idx = np.flatnonzero((ln_phi > left) & (ln_phi >= right))
    ts, best = grid[idx], ln_phi[idx]
    inner = ts > 0.0
    i = idx[inner]
    lo = np.maximum(grid[np.maximum(i - 1, 0)], 0.5 * grid[i])  # Newton needs t > 0
    hi = grid[np.minimum(i + 1, grid.size - 1)]
    t = grid[i]
    for _ in range(6):
        _, weights = log_phi(_log_poisson(ks, t))
        mean = ks @ weights
        curv = (ks**2 @ weights - mean**2 - mean) / t**2
        step = np.where(curv < 0.0, (1.0 - mean / t) / np.where(curv < 0.0, curv, -1.0), 0.0)
        t = np.clip(t + step, lo, hi)
    polished, _ = log_phi(_log_poisson(ks, t))
    ts[inner] = np.where(polished > best[inner], t, ts[inner])
    best[inner] = np.maximum(polished, best[inner])
    return ts, best


def _poisson_mixture_fit(ks: np.ndarray, p: np.ndarray, t_cap: float):
    """Minimize KL(p || q), q_k = sum_j w_j pois(k; t_j), over mixing measures on [0, t_cap].

    The fit is optimal iff phi(t) = sum_k (p_k/q_k) pois(k; t) <= 1 for all t
    (Lindsay, Ann. Statist. 11, 1983); phi averages to exactly 1 under the
    mixing measure, and past the largest supported level it only falls, so
    [0, t_cap] is exhaustive.  One exchange loop (the constrained Newton method
    of Y. Wang, J. R. Stat. Soc. B 69, 2007): each round finds the local maxima of
    ln phi on one grid, uniform in sqrt(t) where Poisson bumps have constant
    width.  It stops once log2 sup phi <= FD_TOL_BITS/4, or once KL(p || q) is
    that small, since [0, KL] is then already that narrow.  Otherwise it adds the
    maxima with phi > 1 as atoms of zero weight and takes one weight step: NNLS
    on the quadratic model sum_k p_k (sum_j w_j pois(k; t_j)/q_k - 2)^2 with a
    heavy row for sum_j w_j = 1, then an Armijo backtrack on sum_k p_k ln q_k.
    Atoms left at weight 0 are dropped, and a step that no backtrack makes an
    ascent ends the loop.

    With L = p/q on the supported levels, Tr[rho log2 L] = KL(p || q), so the
    primal value of L is exactly the dual minus log2 sup phi.  Returns the atoms,
    q on the supported levels and the number of rounds.
    """
    grid = t_cap * np.linspace(0.0, 1.0, max(257, int(32.0 * math.sqrt(t_cap)) + 1)) ** 2
    if ks.min() > 0.0:
        grid = grid[1:]  # without the vacuum level phi(0) = 0
    log_pois_grid = _log_poisson(ks, grid)
    root_p = np.sqrt(p)
    # start with one atom per half unit of sqrt(t), carrying the weight of its nearest levels
    atoms, nearest = np.unique(np.minimum(np.round(2.0 * np.sqrt(ks)) ** 2 / 4.0, t_cap),
                               return_inverse=True)
    w = np.bincount(nearest, weights=p)
    pois = np.exp(_log_poisson(ks, atoms))
    q = pois @ w
    rounds = 0
    while rounds < FD_MAX_ROUNDS:
        ln_ell = np.log(p / q)
        ts, ln_phi = _phi_maxima(ks, ln_ell, grid, log_pois_grid)
        if LOG2E * min(float(ln_phi.max()), float(p @ ln_ell)) <= 0.25 * FD_TOL_BITS:
            break
        rounds += 1
        new = ts[ln_phi > 0.0]
        atoms = np.concatenate([atoms, new])
        w = np.concatenate([w, np.zeros(new.size)])
        pois = np.hstack([pois, np.exp(_log_poisson(ks, new))])
        ratio = pois / q[:, None]
        model = root_p[:, None] * ratio
        scale = np.linalg.norm(model, axis=0)  # unit columns keep small tail weights resolvable
        target = nnls(np.vstack([model / scale, FD_SUM_ROW / scale]),
                      np.append(2.0 * root_p, FD_SUM_ROW))[0] / scale
        direction = target / target.sum() - w
        slope = float(p @ ratio @ direction)
        for step in 0.5 ** np.arange(34):
            with np.errstate(divide="ignore"):  # a step that empties a level scores -inf
                if p @ np.log(pois @ (w + step * direction) / q) >= step * slope / 3.0:
                    break
        else:
            break  # no step ascends: the fit has stalled
        w = w + step * direction
        keep = w > 0.0
        atoms, w, pois = atoms[keep], w[keep], pois[:, keep]
        q = pois @ w
    return atoms, q, rounds


def fock_diagonal_ncm(state) -> FockDiagonalResult:
    """Exact (to tolerance) nonclassicality of a single-mode Fock-diagonal state.

    For this class the whole monotone hierarchy collapses to one number, so a
    matched lower/upper pair is emitted.  The dual side is KL(p || q) for the
    Poisson mixture q of ``_poisson_mixture_fit``.  The primal side is L = p/q
    on the supported levels and 0 elsewhere, whose value is the dual minus
    log2 sup phi; the certified supremum of diag(L) over all amplitudes bounds
    sup phi, so its log2 is the duality gap.
    """
    if isinstance(state, FockDiagonalState):
        ks = np.array([float(k) for k in state.indices])
        weights = np.asarray(state.weights, dtype=float)
        if max(state.indices) > 4096:
            raise UsageError("support reaches too high a Fock level for the dense program; "
                             "use basel_divergence_bound for the basel family")
    else:
        if state.modes != 1:
            raise UsageError("fock_diagonal_ncm handles single-mode states")
        if not state.fock_diagonal:
            raise UsageError("state is not Fock-diagonal; dephase it or use gamma_lower_bound")
        weights = np.clip(state.diagonal(), 0.0, None)
        ks = np.arange(weights.size, dtype=float)
    support = weights > 1e-15
    if not np.any(support):
        raise UsageError("empty support")
    ks = ks[support]
    p = weights[support]
    p = p / p.sum()
    m_top = float(ks.max())

    atoms, q, rounds = _poisson_mixture_fit(ks, p, max(m_top, 1e-9))
    ell = p / q
    # KL against a normalized mixture is nonnegative; guard float dust
    dual_bits = max(LOG2E * float(p @ np.log(ell)), 0.0)
    ell_full = np.zeros(int(m_top) + 1)
    ell_full[ks.astype(int)] = ell
    cert = coherent_sup_certified(np.diag(ell_full), tol=1e-12)
    # primal = dual - log2 sup phi; gap is the width of [max(primal, 0), dual]
    gap = min(max(math.log2(cert.value), 0.0), dual_bits)

    certificate = {
        "ansatz_description": f"diagonal L = p/q vs Poisson mixture ({atoms.size} atoms)",
        "duality_gap_bits": gap,
        "iterations": rounds,
    }
    fold = dict(sup=cert, converged=gap <= 2 * FD_TOL_BITS)
    return FockDiagonalResult(_certified(state, "NCM", "lower", dual_bits - gap, certificate, **fold),
                              _certified(state, "NC", "upper", dual_bits, certificate, **fold))


def noisy_fock_closed_form(p: float) -> float:
    """Analytic value for p|1><1| + (1-p)|0><0| in bits."""
    if not (0.0 <= p <= 1.0):
        raise UsageError("p must lie in [0, 1]")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return LOG2E
    return p * LOG2E + (1.0 - p) * math.log2(1.0 - p)


# ---------------------------------------------------------------------------
# closed-form and estimate-based bounds
# ---------------------------------------------------------------------------

def energy_upper_bound(energy: float, modes: int = 1) -> MonotoneBound:
    """m*g(E/m) upper bound from the mean photon number."""
    if energy < 0 or modes < 1:
        raise UsageError("need energy >= 0 and modes >= 1")
    value = modes * g_thermal(energy / modes)
    return MonotoneBound("NC", "upper", value, {"ansatz_description": f"thermal family at E={energy}"})


def wehrl_upper_bound(rho: DensityOperator) -> MonotoneBound:
    """S_W - S plus the quadrature tail, valid for the regularized monotone too."""
    rho_n = rho.renormalized()
    est = wehrl_entropy(rho_n)
    return _certified(rho, "NC", "upper", est.bits + est.tail_bits - von_neumann_entropy(rho_n),
                      {"grid_tail_bits": est.tail_bits,
                       "ansatz_description": "Wehrl-entropy estimate"})


def husimi_lower_bound(rho: DensityOperator) -> MonotoneBound:
    """-log2(pi^m sup Q) - S, floored at zero."""
    rho_n = rho.renormalized()
    raw = -math.log2(max(math.pi**rho.modes * husimi_sup(rho_n), 1e-300)) - von_neumann_entropy(rho_n)
    return _certified(rho, "NCM", "lower", raw,
                      {"ansatz_description": "Husimi-peak estimate", "raw_value_bits": raw})


def _gaussian_entropy_bits(gd: GaussianDescriptor) -> float:
    """Von Neumann entropy g((nu - 1)/2) of a single-mode state, nu = sqrt(det V)."""
    (a, b), (c, d) = gd.V
    nu = math.sqrt(a * d - b * c)
    # nu within rounding of 1 is a pure state: g's infinite slope at 0 would turn
    # that last-ulp noise into entropy of order 1e-14 bits
    return g_thermal(0.5 * (nu - 1.0)) if nu > 1.0 + 1e-14 else 0.0


def gaussian_bounds(gd: GaussianDescriptor) -> tuple[MonotoneBound, MonotoneBound]:
    """Closed-form pair for a single-mode Gaussian state from its covariance matrix.

    The state's entropy is read off the same covariance matrix.
    """
    if gd.modes != 1:
        raise UsageError("Gaussian bounds are single mode")
    excess = 0.5 * math.log2(np.linalg.det(gd.V + np.eye(2))) - _gaussian_entropy_bits(gd)
    meta = {"ansatz_description": "Gaussian covariance closed form"}
    return (
        MonotoneBound("NCM", "lower", max(0.0, excess - 1), dict(meta, raw_value_bits=excess - 1)),
        MonotoneBound("NC", "upper", excess + LOG2E, meta),
    )


def _coherent_mixture_divergence(rho: DensityOperator, points: Sequence[complex]):
    """w -> D(rho || sigma_w / Tr sigma_w) for sigma_w = sum_i w_i |a_i><a_i|, in bits.

    Works in the Gram frame of the atoms: with V the d x n matrix of truncated
    coherent vectors, G = V^+ V and R = V^+ rho V, the nonzero spectrum
    (lam_k, y_k) of sigma_w is that of sqrt(w) G sqrt(w), and its eigenvectors
    are V c_k with c_k = sqrt(w) y_k / sqrt(lam_k).  So D = -S(rho) - sum_k
    c_k^+ R c_k log2 lam_k, and +inf once rho keeps more than ``SUPPORT_TOL`` of
    its trace outside that span; each evaluation is one n x n ``eigh``.
    """
    vecs = np.stack([coherent_vector(a, rho.cutoff)[0] for a in points], axis=1)
    gram = vecs.conj().T @ vecs
    gram_diag = np.real(np.diagonal(gram))
    overlap = vecs.conj().T @ rho.entries @ vecs
    tr_rho = float(np.real(np.trace(rho.entries)))
    # as in relative_entropy, eigenvalues at rounding level carry no entropy
    rho_vals = np.linalg.eigvalsh(rho.entries)
    s_bits = entropy_of_probabilities(rho_vals[rho_vals > _ZERO_BIN])

    def divergence(weights: np.ndarray) -> float:
        tr = float(np.dot(weights, gram_diag))
        if tr <= 1e-12:
            return math.inf
        root_w = np.sqrt(weights / tr)
        lam, y = np.linalg.eigh(root_w[:, None] * gram * root_w[None, :])
        # numerical support of sigma: eigenvalues at machine-zero relative scale
        keep = lam > max(float(lam[-1]) * 1e-15, 1e-300)
        c = root_w[:, None] * y[:, keep] / np.sqrt(lam[keep])
        mass = np.real(np.einsum("ik,ij,jk->k", c.conj(), overlap, c))
        if tr_rho - float(mass.sum()) > SUPPORT_TOL:
            return math.inf
        return -s_bits - float(np.dot(mass, np.log2(lam[keep])))

    return divergence


SQUEEZE_GRID = np.linspace(0.01, 2.5, 120)  # squeezing parameters s scanned before refinement


def classical_ansatz_upper_bound(
    rho: DensityOperator,
    family: str,
    *,
    points: Sequence[complex] | None = None,
) -> MonotoneBound:
    """Upper bound from the infimum restricted to an explicit classical family.

    family is one of "thermal" (exact optimum nu = <n>), "squeezed_thermal"
    (``SQUEEZE_GRID`` of s, refined, squeezed along the quadrature that <a^2>
    picks out), or "coherent_mixture" (support points, weights optimized).
    """
    if rho.modes != 1:
        raise UsageError("classical ansatz families are single mode")
    rho_n = rho.renormalized()
    d = rho.cutoff
    meta = {}
    best = math.inf
    best_param = None

    if family == "thermal":
        # D(rho || tau_nu) = -S(rho) + log2(1+nu) - <n> log2(nu/(1+nu)) is least at
        # nu = <n>, where it equals g(<n>) - S(rho)
        mean = max(rho_n.energy, 0.0)
        best = g_thermal(mean) - von_neumann_entropy(rho_n)
        meta["ansatz_description"] = f"thermal ansatz, best nu={mean:.6g}"
    elif family == "squeezed_thermal":
        s_bits = von_neumann_entropy(rho_n)
        ent = rho_n.entries
        mean = float(np.dot(np.arange(d), np.real(np.diagonal(ent))))
        k = np.arange(d - 2)
        weights, off2 = np.sqrt((k + 1.0) * (k + 2.0)), np.diagonal(ent, offset=2)
        abs_a2 = math.hypot(np.dot(weights, off2.real), np.dot(weights, off2.imag))

        def d_squeezed(s: float) -> float:
            # D(rho||sigma_s) via the analytic log of sigma_s = S tau_N S^T:
            # log2 sigma = -log2(1+N) + log2(N/(1+N)) S n S^T, and the squeezed-frame
            # mean photon number is Tr[rho S n S^T] = cosh(2s)<n> + sinh^2 s - sinh(2s) |<a^2>|
            # once S squeezes along the quadrature that <a^2> picks out
            n_s = 0.5 * (math.exp(2.0 * s) - 1.0)
            frame_energy = (math.cosh(2.0 * s) * mean + math.sinh(s) ** 2
                            - math.sinh(2.0 * s) * abs_a2)
            return -s_bits + math.log2(1 + n_s) - frame_energy * math.log2(n_s / (1 + n_s))

        for s in SQUEEZE_GRID:
            val = d_squeezed(float(s))
            if val < best:
                best, best_param = val, float(s)
        if best_param is not None:
            res = minimize_scalar(d_squeezed, method="bounded",
                                  bounds=(max(best_param - 0.1, 1e-3), best_param + 0.1))
            if res.fun < best:
                best, best_param = float(res.fun), float(res.x)
        meta["ansatz_description"] = f"squeezed-thermal ansatz, best s={best_param}"
    elif family == "coherent_mixture":
        if not points:
            raise UsageError("coherent_mixture needs support points")
        divergence = _coherent_mixture_divergence(rho_n, points)
        n_pts = len(points)
        best_w = np.full(n_pts, 1.0 / n_pts)
        best = divergence(best_w)
        if n_pts > 1:
            res = minimize(
                lambda x: divergence(np.exp(x) / np.sum(np.exp(x))),
                np.zeros(n_pts),
                method="Nelder-Mead",
                options={"maxiter": 400, "fatol": 1e-12},
            )
            cand = np.exp(res.x) / np.sum(np.exp(res.x))
            val = divergence(cand)
            if val < best:
                best, best_w = val, cand
        best_param = [round(float(w), 9) for w in best_w]
        meta["ansatz_description"] = f"coherent mixture on {list(map(str, points))}, weights {best_param}"
    else:
        raise UsageError(f"unknown ansatz family {family!r}")

    if not math.isfinite(best):
        best, meta["support_mismatch"] = math.inf, True
    return _certified(rho, "NC", "upper", best, meta)


# ---------------------------------------------------------------------------
# basel-family divergence bound (log-domain throughout)
# ---------------------------------------------------------------------------

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


def basel_divergence_bound(n_max: int) -> float:
    """Certified lower bound (bits) on the nonclassicality of the basel state.

    Uses the diagonal ansatz with exponent n/3 on |2^n>, n <= n_max; the trace
    term grows harmonically while the certified coherent supremum stays
    bounded, so the bound diverges with n_max.  All arithmetic is log-domain;
    no state is materialized.
    """
    n_cap = int(n_max)
    if n_cap < 0:
        raise UsageError("n_max must be >= 0")
    n = np.arange(0, n_cap + 1, dtype=float)
    trace_bits = (2.0 / math.pi**2) * float(np.sum(n / (n + 1.0) ** 2))
    u = 1.0 + _basel_envelope_sup(n_cap) + 1e-12
    return trace_bits - math.log2(u)


# ---------------------------------------------------------------------------
# interval sandwich
# ---------------------------------------------------------------------------

SANDWICH_SLACK = 1e-9


def _family_bounds(rho: DensityOperator) -> list[MonotoneBound]:
    """The family-specific bounds of ``rho.spec`` that can set an endpoint of the sandwich.

    Left out because they never do: the Gaussian upper bound (at least 1 bit
    above the winning upper on every Gaussian family, squeezing of either
    sign included), the Gaussian lower bound on coherent and thermal states
    (identically 0, since g(nu) >= log2(1+nu)) and the thermal ansatz on
    squeezed states (above the squeezed-thermal ansatz from |r| = 0.02, equal
    to the energy bound to rounding below).
    """
    fam, params = rho.spec.family, rho.spec.params
    if fam == "fock":
        exact = fock_closed_form(params["n"])
        return [MonotoneBound("NCM", "lower", exact, {"ansatz_description": "Fock closed form"}),
                MonotoneBound("NC", "upper", exact, {"ansatz_description": "Fock closed form"})]
    if fam == "cat":
        a = params["alpha"]
        return [cat_gamma_lower_bound(rho),
                classical_ansatz_upper_bound(rho, "coherent_mixture", points=[a, -a, 0.0])]
    if fam == "coherent":
        return [classical_ansatz_upper_bound(rho, "coherent_mixture", points=[params["alpha"]])]
    if fam == "thermal":
        return [classical_ansatz_upper_bound(rho, "thermal")]
    if fam == "squeezed":
        g_lower, _ = gaussian_bounds(gaussian_descriptor(rho.spec))
        return [g_lower, classical_ansatz_upper_bound(rho, "squeezed_thermal")]
    return []


def bound_sandwich(
    rho: DensityOperator,
    cfg: OptimizerConfig | None = None,
) -> tuple[MonotoneBound, MonotoneBound]:
    """Best available interval [lower on NCM, upper on NC] for one state.

    One list of candidate bounds, the best of each side taken: the energy
    bound for every state; the exact program for single-mode Fock-diagonal
    states; for a state built from a spec, its family's bounds
    (``_family_bounds``); for any other single-mode state that is not
    Fock-diagonal, the dense exp(H) ascent.  A nonempty interval is enforced
    loudly.
    """
    candidates = [energy_upper_bound(ideal_energy(rho), rho.modes)]
    if rho.modes == 1 and rho.fock_diagonal:
        candidates.extend(fock_diagonal_ncm(rho))
    if rho.spec is not None:
        candidates.extend(_family_bounds(rho))
    elif rho.modes == 1 and not rho.fock_diagonal:
        candidates.append(gamma_lower_bound(rho, cfg))

    # max and min keep the first of equal values, so list order settles ties
    lowers = [b for b in candidates if b.direction == "lower"] or [
        MonotoneBound("NCM", "lower", 0.0, {"ansatz_description": "trivial nonnegativity"})]
    uppers = [b for b in candidates if b.direction == "upper"]
    best_lower = max(lowers, key=lambda b: b.value)
    best_upper = min(uppers, key=lambda b: b.value)
    if best_lower.value > best_upper.value + SANDWICH_SLACK:
        raise BoundConsistencyError(
            f"certified lower {best_lower.value} exceeds certified upper {best_upper.value}: "
            f"{best_lower.certificate} vs {best_upper.certificate}"
        )
    return best_lower, best_upper


def product_interval(
    intervals: Sequence[tuple[MonotoneBound, MonotoneBound]],
) -> tuple[MonotoneBound, MonotoneBound]:
    """Interval for an explicit tensor product from per-factor (lower, upper) intervals.

    The lower endpoint adds factor lower bounds (the product ansatz is feasible
    and its objective additive); the upper endpoint adds factor upper bounds.
    """
    if not intervals:
        raise UsageError("need at least one factor")
    lowers, uppers = zip(*intervals)
    return (
        MonotoneBound(
            "NCM",
            "lower",
            sum(b.value for b in lowers),
            {
                "ansatz_description": "product ansatz, sum of factor lower bounds",
                "factors": [b.certificate.get("ansatz_description", "") for b in lowers],
            },
            converged=all(b.converged for b in lowers),
        ),
        MonotoneBound(
            "NC",
            "upper",
            sum(b.value for b in uppers),
            {
                "ansatz_description": "product of factor ansatz states",
                "factors": [b.certificate.get("ansatz_description", "") for b in uppers],
            },
            converged=all(b.converged for b in uppers),
        ),
    )
