"""Certified lower and upper bounds on the nonclassicality monotones.

Lower bounds come from the variational program

    sup over positive L of  Tr[rho log2 L] - log2 sup_alpha <alpha|L|alpha>,

whose every feasible L yields a valid lower bound; the inner supremum always
enters through a certified upper bound, so reported values never overshoot.
Upper bounds come from explicit classical ansatz states, the energy bound
m*g(E/m), Wehrl-entropy estimates, and the Gaussian closed forms.  Bounds for
the ideal (untruncated) state are obtained by folding in the spectral
truncation certificate m*eps*g(2E/(m*eps)) + g(eps).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import gammaln

from .entropies import (
    LN2,
    LOG2E,
    OptimizerReport,
    ascend,
    exp_frechet_gradient,
    exp_hermitian,
    husimi_sup,
    relative_entropy,
    von_neumann_entropy,
    wehrl_entropy,
)
from .errors import BoundConsistencyError, UsageError
from .fock_core import DensityOperator, coherent_vector
from .states import (
    FockDiagonalState,
    GaussianDescriptor,
    StateSpec,
    cat_amplitudes,
    exact_energy,
    gaussian_descriptor,
    make_state,
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
    """Monotone error bar for a trace-distance-eps spectral truncation at energy <= E."""
    if not (0.0 <= eps <= 1.0):
        raise UsageError("eps must lie in [0, 1]")
    if energy < 0 or modes < 1:
        raise UsageError("energy must be >= 0 and modes >= 1")
    if eps == 0.0:
        return 0.0
    return modes * eps * g_thermal(2.0 * energy / (modes * eps)) + g_thermal(eps)


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
    symmetry: str = "auto"  # auto | none | phase | reflection

    def __post_init__(self):
        if self.objective_tol <= 0:
            raise UsageError("objective_tol must be positive")
        if self.symmetry not in ("auto", "none", "phase", "reflection"):
            raise UsageError(f"unknown symmetry tag {self.symmetry!r}")


@dataclass(frozen=True)
class MonotoneBound:
    quantity: str  # NCM | NC | NCM_regularized_interval | free_energy
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


# ---------------------------------------------------------------------------
# certified coherent supremum
# ---------------------------------------------------------------------------

class CertifiedSup(NamedTuple):
    value: float  # certified upper bound on sup_alpha <alpha|L|alpha>
    argmax_t: float  # best observed |alpha|^2
    radius_sq: float  # search radius in t = |alpha|^2
    gap: float  # certification slack (upper bound minus best evaluation)


def _envelope_log_weights(entries: np.ndarray) -> np.ndarray:
    """log W_s for the envelope e^(-t) sum_s W_s t^(s/2), W_s from |L_jk|/sqrt(j!k!)."""
    mag = np.abs(np.asarray(entries))
    d = mag.shape[0]
    j = np.arange(d)
    with np.errstate(divide="ignore"):
        ln_c = np.log(mag) - 0.5 * (gammaln(j + 1)[:, None] + gammaln(j + 1)[None, :])
    by_s = np.full((2 * d - 1, d), -np.inf)  # row s = j + k holds the terms of W_s
    by_s[j[:, None] + j[None, :], j[:, None]] = ln_c
    m = np.max(by_s, axis=1)
    out = np.full(2 * d - 1, -np.inf)
    ok = np.isfinite(m)
    out[ok] = m[ok] + np.log(np.sum(np.exp(by_s[ok] - m[ok, None]), axis=1))
    return out


SUP_MAX_SPLITS = 20000  # branch-and-bound budget of one certified supremum
INNER_TOL = 1e-9  # relative slack of the certified inner sup in every lower-bound engine


def _curvature_table(
    powers: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents e, coefficients c_e and bound coefficients of F''(t) = e^(-t) sum_e c_e t^e.

    Each W_s t^p of F(t) = e^(-t) sum_s W_s t^p contributes W_s [p(p-1) t^(p-2)
    - 2p t^(p-1) + t^p]; the exponents are multiples of 1/2, so equal ones match
    exactly and opposite signs cancel.  |c_e| + 1e-14 sum|terms of e| covers the
    rounding of c_e, so sum_e bound_e max t^e e^(-t) bounds |F''| on a segment.
    """
    exps = np.concatenate([powers - 2.0, powers - 1.0, powers])
    terms = np.concatenate([weights * powers * (powers - 1.0), -2.0 * weights * powers, weights])
    keep = terms != 0.0
    exps, index = np.unique(exps[keep], return_inverse=True)
    coefs = np.bincount(index, weights=terms[keep])
    mags = np.bincount(index, weights=np.abs(terms[keep]))
    return exps, coefs, np.abs(coefs) + 1e-14 * mags


def _monomial_max(exps: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max of t^e e^(-t) over [lo_i, hi_i] (rows, lo > 0) for each exponent e (columns),
    attained at t = e clipped into the segment."""
    t = np.minimum(np.maximum(exps, lo[:, None]), hi[:, None])
    return np.exp(exps * np.log(t) - t)


def coherent_sup_certified(entries, *, tol: float = 1e-10) -> CertifiedSup:
    """Certified upper bound on sup over all alpha in C of <alpha|L|alpha>.

    Works on the absolute-coefficient envelope F(t) = e^(-t) sum_s W_s t^(s/2),
    which dominates the target for every phase of alpha; the segment bounds
    combine per-monomial maxima with the curvature bound of ``_curvature_table``.
    Each level of the branch-and-bound retires the segments whose bound is within
    ``tol`` (relative) of the best attained envelope value and bisects all the
    others in a few (segments x exponents) array passes; the result is the
    largest bound of any segment, live or retired.  Beyond the largest power
    the envelope decreases, so the search radius t <= d-1 is exhaustive; the
    largest eigenvalue of L caps the result since truncated coherent vectors
    have norm at most one.
    """
    entries = np.asarray(entries)
    cap = max(float(np.max(np.linalg.eigvalsh(0.5 * (entries + entries.conj().T)))), 0.0)
    ln_w = _envelope_log_weights(entries)
    powers = 0.5 * np.arange(ln_w.size)
    finite = np.isfinite(ln_w)
    if not np.any(finite) or cap == 0.0:
        return CertifiedSup(0.0, 0.0, 0.0, 0.0)
    ln_w = ln_w[finite]
    powers = powers[finite]
    t_max = max(float(powers[-1]), 1.0)
    weights = np.exp(ln_w)
    curve_exps, _, curve_bound = _curvature_table(powers, weights)

    def envelope_at(t: np.ndarray) -> np.ndarray:
        # t > 0 only: at t = 0 the constant term would meet 0 * log 0
        vals = ln_w + powers * np.log(t)[:, None] - t[:, None]
        m = vals.max(axis=1)
        return np.exp(m) * np.exp(vals - m[:, None]).sum(axis=1)

    def segment_bounds(a, b, fa, fb):
        lo = np.maximum(a, 1e-300)
        peak = _monomial_max(powers, lo, b) @ weights
        # F'' is unbounded at t = 0 only when a half-integer power leaves a negative exponent
        at_zero = (a <= 0.0) & (curve_exps[0] < 0.0)
        d2 = _monomial_max(curve_exps, np.where(at_zero, b, lo), b) @ curve_bound
        smooth = np.where(at_zero, np.inf, np.maximum(fa, fb) + 0.125 * (b - a) ** 2 * d2)
        return np.minimum(peak, smooth)

    probes = np.unique(np.concatenate([[0.0, t_max], powers[powers > 0.0]]))
    values = np.concatenate([[weights[0] if powers[0] == 0.0 else 0.0], envelope_at(probes[1:])])
    i_best = int(np.argmax(values))
    best, best_t = float(values[i_best]), float(probes[i_best])
    a, b, fa, fb = probes[:-1], probes[1:], values[:-1], values[1:]
    bound = segment_bounds(a, b, fa, fb)
    retired = 0.0
    splits = 0
    while a.size:
        live = np.minimum(bound, cap) - best > tol * max(best, 1e-300) + 1e-300
        if not live.all():
            retired = max(retired, float(bound[~live].max()))
            a, b, fa, fb, bound = a[live], b[live], fa[live], fb[live], bound[live]
        if not a.size or splits + a.size > SUP_MAX_SPLITS:
            break
        splits += a.size
        mid = 0.5 * (a + b)
        f_mid = envelope_at(mid)
        i_mid = int(f_mid.argmax())
        if f_mid[i_mid] > best:
            best, best_t = float(f_mid[i_mid]), float(mid[i_mid])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        fa, fb = np.concatenate([fa, f_mid]), np.concatenate([f_mid, fb])
        bound = segment_bounds(a, b, fa, fb)
    top = max(best, retired, float(bound.max()) if a.size else 0.0)
    certified = max(min(top, cap), 0.0)
    return CertifiedSup(certified, best_t, t_max, max(0.0, certified - min(best, certified)))


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


def _gamma_ascent_diagonal(
    p: np.ndarray, cfg: OptimizerConfig, h0: np.ndarray | None = None
) -> tuple[float, CertifiedSup, OptimizerReport]:
    delta = 1e-9
    d = p.size
    k = np.arange(d)
    log_fact = gammaln(k + 1)
    h = np.log(np.maximum(p, delta)) if h0 is None else np.array(h0, dtype=float)

    def evaluate(h_vec):
        ell = np.exp(h_vec)
        cert = coherent_sup_certified(np.diag(ell), tol=INNER_TOL)
        if cert.value <= 0.0:
            return -math.inf, (cert, ell)
        return LOG2E * float(np.dot(p, h_vec)) - math.log2(cert.value), (cert, ell)

    def gradient(h_vec, aux):
        cert, ell = aux
        t = cert.argmax_t
        if t <= 0.0:
            pois = np.zeros(d)
            pois[0] = 1.0
        else:
            pois = np.exp(k * math.log(t) - t - log_fact)
        return LOG2E * (p - pois * ell / max(cert.value, 1e-300))

    _, best_value, (best_cert, _), report = ascend(
        evaluate, gradient, h, cfg.max_iters, cfg.objective_tol)
    return best_value, best_cert, report


def gamma_lower_bound(
    rho: DensityOperator,
    cfg: OptimizerConfig | None = None,
    *,
    energy: float | None = None,
    epsilon: float | None = None,
) -> MonotoneBound:
    """Certified lower bound on the measured relative entropy of nonclassicality.

    Any iterate of the ascent is feasible, so the best value found (minus the
    truncation correction, floored at zero) is a valid bound for the ideal
    state whose truncation this is.
    """
    if rho.modes != 1:
        raise UsageError("gamma_lower_bound operates on single-mode states; use product "
                         "ansatz helpers for tensor inputs")
    cfg = cfg or OptimizerConfig()
    rho_n = rho.renormalized() if rho.trace_deficit > 0 else rho
    if cfg.symmetry == "phase" or (cfg.symmetry == "auto" and rho.fock_diagonal):
        raw, cert, report = _gamma_ascent_diagonal(np.clip(rho_n.diagonal(), 0.0, None), cfg)
        ansatz = "diagonal exp(h) ascent"
    elif cfg.symmetry == "reflection":
        raise UsageError("reflection symmetry path needs the cat parameters; "
                         "use cat_gamma_lower_bound")
    else:
        raw, cert, report = _gamma_ascent_dense(rho_n.entries, cfg)
        ansatz = "dense exp(H) ascent"
    eps = truncation_epsilon(rho) if epsilon is None else epsilon
    e_used = rho.energy if energy is None else energy
    correction = truncation_certificate(eps, e_used, rho.modes)
    return MonotoneBound(
        "NCM",
        "lower",
        max(0.0, raw - correction),
        {
            "truncation_epsilon": eps,
            "truncation_correction_bits": correction,
            "inner_sup_radius": cert.radius_sq,
            "inner_sup_grid_error": cert.gap,
            "ansatz_description": ansatz,
            "raw_value_bits": raw,
            "iterations": report.iterations,
        },
        converged=report.converged,
    )


def cat_gamma_lower_bound(
    alpha: float,
    sign: str,
    cutoff: int,
) -> MonotoneBound:
    """Reflection-symmetric lower bound for cat states.

    The ansatz L lives on span{|alpha>, |-alpha>, |0>} and commutes with the
    alpha -> -alpha reflection, so it splits into a 2x2 even block (cat+ and
    the orthogonalized vacuum) and a scalar odd block.
    """
    rho = make_state(StateSpec("cat", {"alpha": alpha, "sign": sign}, cutoff), deficit_tol=1e-6)
    psi = cat_amplitudes(alpha, sign, cutoff)
    b_plus = cat_amplitudes(alpha, "+", cutoff)
    b_plus = b_plus / np.linalg.norm(b_plus)
    b_minus = cat_amplitudes(alpha, "-", cutoff)
    b_minus = b_minus / np.linalg.norm(b_minus)
    e0 = np.zeros(cutoff)
    e0[0] = 1.0
    v0 = e0 - np.dot(b_plus, e0) * b_plus
    norm_v0 = np.linalg.norm(v0)
    if norm_v0 < 1e-8:
        basis = np.stack([b_plus, b_minus])
        even_dim = 1
    else:
        basis = np.stack([b_plus, v0 / norm_v0, b_minus])
        even_dim = 2
    floor = 1e-12
    coords = basis @ psi
    outside = max(0.0, float(np.dot(psi, psi) - np.dot(coords, coords)))

    best = (-math.inf, None)

    def objective(x):
        # the clipped log L is both exponentiated and traced, so every point is feasible;
        # only the top is clipped, since a floor would flatten the objective and stall the search
        nonlocal best
        x = np.minimum(x, 50.0)
        if even_dim == 2:
            log_m = np.array([[x[0], x[1], 0.0], [x[1], x[2], 0.0], [0.0, 0.0, x[3]]])
        else:
            log_m = np.diag(x)
        m, _, _ = exp_hermitian(log_m)
        cert = coherent_sup_certified(basis.T @ m @ basis, tol=INNER_TOL)
        lin = float(coords @ log_m @ coords) * LOG2E + outside * math.log2(floor)
        value = lin - math.log2(cert.value + floor)
        if value > best[0]:
            best = (value, cert)
        return -value

    x0 = np.array([0.0, 0.0, -8.0, -8.0]) if sign == "+" else np.array([-8.0, 0.0, -8.0, 0.0])
    if even_dim == 1:
        x0 = np.array([0.0, -8.0]) if sign == "+" else np.array([-8.0, 0.0])
    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxiter": 250, "xatol": 1e-6, "fatol": 1e-9},
    )
    raw, cert = best
    eps = truncation_epsilon(rho)
    energy = exact_energy(StateSpec("cat", {"alpha": alpha, "sign": sign}, cutoff))
    correction = truncation_certificate(eps, energy, 1)
    return MonotoneBound(
        "NCM",
        "lower",
        max(0.0, raw - correction),
        {
            "truncation_epsilon": eps,
            "truncation_correction_bits": correction,
            "inner_sup_radius": cert.radius_sq,
            "inner_sup_grid_error": cert.gap,
            "ansatz_description": "reflection-symmetric rank-3 ansatz on span{|a>,|-a>,|0>}",
            "raw_value_bits": raw,
        },
        converged=bool(res.success or raw > -math.inf),
    )


# ---------------------------------------------------------------------------
# exact Fock-diagonal program (Poisson-mixture dual + certified primal)
# ---------------------------------------------------------------------------

class FockDiagonalResult(NamedTuple):
    lower: MonotoneBound
    upper: MonotoneBound
    value_truncated: float  # midpoint value for the truncated state
    gap: float


def _log_poisson(ks: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """ln pois(k; t) for k (rows) and t (cols); t = 0 handled as the point mass at 0."""
    ts_safe = np.maximum(ts, 1e-300)
    out = ks[:, None] * np.log(ts_safe)[None, :] - ts[None, :] - gammaln(ks + 1)[:, None]
    zero_t = ts <= 0.0
    if np.any(zero_t):
        out[:, zero_t] = np.where(ks[:, None] == 0, 0.0, -np.inf)
    return out


def _reduced_mixture_weights(pmf: np.ndarray, p: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Minimize KL(p || pmf @ w) over the simplex, softmax-parametrized L-BFGS."""
    n = pmf.shape[1]
    if n == 1:
        return np.ones(1)

    def objective(x):
        x = x - np.max(x)
        w = np.exp(x)
        w = w / w.sum()
        q = np.maximum(pmf @ w, 1e-300)
        val = -float(np.dot(p, np.log(q)))
        g = pmf.T @ (p / q)  # dval/dw = -g
        grad = -w * (g - float(np.dot(w, g)))
        return val, grad

    x0 = np.log(np.maximum(w0, 1e-12))
    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 200, "ftol": 1e-15, "gtol": 1e-11})
    x = res.x - np.max(res.x)
    w = np.exp(x)
    return w / w.sum()


def _poisson_mixture_fit(ks: np.ndarray, p: np.ndarray, t_cap: float, tol_bits: float):
    """Minimize KL(p || Poisson mixture) with atoms in [0, t_cap].

    Active-set loop: jointly refine atom positions and weights, then add the
    maximizers of phi(t) = sum_i (p_i/q_i) pois(k_i; t); at the optimum phi <= 1
    everywhere (its mixture average is exactly 1), and the optimal measure has
    at most |support| atoms.
    """
    atoms = np.unique(np.clip(np.concatenate([
        ks.astype(float), [float(np.dot(p, ks)), 0.0, t_cap]]), 0.0, t_cap))
    w = np.full(atoms.size, 1.0 / atoms.size)
    dense = np.linspace(0.0, t_cap, 4097)
    target = 0.25 * max(tol_bits, 1e-14)
    best = (math.inf, atoms, w)
    prev_sup = math.inf
    stall = 0
    for round_idx in range(16):
        pmf = np.exp(_log_poisson(ks, atoms))
        w = _reduced_mixture_weights(pmf, p, w)
        if round_idx % 3 == 2 or round_idx >= 12:
            atoms, w = _joint_mixture_polish(ks, p, atoms, w, t_cap)
        pmf = np.exp(_log_poisson(ks, atoms))
        q = np.maximum(pmf @ w, 1e-300)
        kl = float(np.dot(p, np.log(p) - np.log(q)))
        if kl < best[0]:
            best = (kl, atoms.copy(), w.copy())
        ell = p / q

        grid = np.unique(np.concatenate([dense, atoms]))
        phi_vals = np.exp(_log_poisson(ks, grid)).T @ ell

        def phi(t):
            return float(np.dot(ell, np.exp(_log_poisson(ks, np.array([t]))[:, 0])))

        order = np.argsort(phi_vals)[::-1][:4]
        new_atoms = []
        sup_phi = float(phi_vals.max())
        for idx in order:
            lo = grid[max(idx - 1, 0)]
            hi = grid[min(idx + 1, grid.size - 1)]
            if hi <= lo:
                continue
            res = minimize_scalar(lambda t: -phi(t), bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-13})
            new_atoms.append(float(res.x))
            sup_phi = max(sup_phi, -float(res.fun))
        if math.log2(max(sup_phi, 1.0)) <= target:
            break
        stall = stall + 1 if sup_phi >= prev_sup - 1e-14 else 0
        prev_sup = sup_phi
        if stall >= 3:
            break
        keep = w > 1e-14
        keep[int(np.argmax(w))] = True
        atoms = np.concatenate([atoms[keep], new_atoms])
        w = np.concatenate([w[keep] * (1.0 - 1e-3),
                            np.full(len(new_atoms), 1e-3 / max(len(new_atoms), 1))])
        order2 = np.argsort(atoms)
        atoms, w = atoms[order2], w[order2]
        w = w / w.sum()
    else:
        _, atoms, w = best
    q = np.maximum(np.exp(_log_poisson(ks, atoms)) @ w, 1e-300)
    return atoms, w, q


def _joint_mixture_polish(ks, p, atoms, w, t_cap):
    """Smooth local refinement of atom positions and weights together."""
    keep = w > 1e-13
    if not np.any(keep):
        keep[int(np.argmax(w))] = True
    atoms = atoms[keep]
    w = w[keep] / w[keep].sum()
    n = atoms.size
    scale = max(t_cap, 1e-9)

    def unpack(z):
        x = z[:n] - np.max(z[:n])
        weights = np.exp(x)
        weights = weights / weights.sum()
        ts = scale / (1.0 + np.exp(-z[n:]))
        return weights, ts

    def objective(z):
        weights, ts = unpack(z)
        pmf = np.exp(_log_poisson(ks, ts))
        q = np.maximum(pmf @ weights, 1e-300)
        val = -float(np.dot(p, np.log(q)))
        ratio = p / q
        g_w = pmf.T @ ratio
        grad_x = -weights * (g_w - float(np.dot(weights, g_w)))
        ts_safe = np.maximum(ts, 1e-12)
        dpmf = pmf * (ks[:, None] / ts_safe[None, :] - 1.0)
        g_t = weights * (dpmf.T @ ratio)
        sig = ts / scale
        grad_u = -g_t * scale * sig * (1.0 - sig)
        return val, np.concatenate([grad_x, grad_u])

    frac = np.clip(atoms / scale, 1e-9, 1.0 - 1e-9)
    z0 = np.concatenate([np.log(np.maximum(w, 1e-12)), np.log(frac / (1.0 - frac))])
    res = minimize(objective, z0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 400, "ftol": 1e-16, "gtol": 1e-12})
    w_new, t_new = unpack(res.x)
    base = -float(np.dot(p, np.log(np.maximum(np.exp(_log_poisson(ks, atoms)) @ w, 1e-300))))
    if res.fun <= base:
        return t_new, w_new
    return atoms, w


def fock_diagonal_ncm(
    state,
    cfg: OptimizerConfig | None = None,
    *,
    energy: float | None = None,
    tol_bits: float = 1e-7,
) -> FockDiagonalResult:
    """Exact (to tolerance) nonclassicality of a single-mode Fock-diagonal state.

    For this class the whole monotone hierarchy collapses to one number, so a
    matched lower/upper pair is emitted.  The dual side fits a Poisson mixture
    supported on [0, M]; the primal side certifies L = p/q through the
    polynomial-envelope supremum over all amplitudes.
    """
    if isinstance(state, FockDiagonalState):
        ks = np.array([float(k) for k in state.indices])
        weights = np.asarray(state.weights, dtype=float)
        deficit = state.trace_deficit
        if max(state.indices) > 4096:
            raise UsageError("support reaches too high a Fock level for the dense program; "
                             "use basel_divergence_bound for the basel family")
        diag_energy = state.energy
    else:
        rho: DensityOperator = state
        if rho.modes != 1:
            raise UsageError("fock_diagonal_ncm handles single-mode states")
        if not rho.fock_diagonal:
            raise UsageError("state is not Fock-diagonal; dephase it or use gamma_lower_bound")
        weights = np.clip(rho.diagonal(), 0.0, None)
        ks = np.arange(weights.size, dtype=float)
        deficit = rho.trace_deficit
        diag_energy = rho.energy
    support = weights > 1e-15
    if not np.any(support):
        raise UsageError("empty support")
    ks = ks[support]
    p = weights[support]
    p = p / p.sum()
    m_top = float(ks.max())

    atoms, w, q = _poisson_mixture_fit(ks, p, max(m_top, 1e-9), tol_bits)
    # KL against a (sub)normalized mixture is nonnegative; guard float dust
    dual_bits = max(float(np.sum(p * (np.log2(p) - np.log2(q)))), 0.0)
    # primal L = p/q on levels that carry weight; negligible levels get ell = p,
    # whose contributions to both the trace and the envelope are themselves negligible
    significant = p >= 1e-9
    ell = np.where(significant, p / q, p)
    full = int(m_top) + 1
    p_full = np.zeros(full)
    p_full[ks.astype(int)] = p
    h_full = np.full(full, -60.0)
    h_full[ks.astype(int)] = np.log(np.maximum(ell, 1e-26))
    cert = coherent_sup_certified(np.diag(np.exp(h_full)), tol=1e-12)
    primal_bits = LOG2E * float(np.dot(p_full, h_full)) - math.log2(max(cert.value, 1e-300))

    def effective_gap(primal: float) -> float:
        # zero is always a valid lower bound, so the interval width floors there
        return dual_bits - min(max(primal, 0.0), dual_bits)

    if effective_gap(primal_bits) > 2 * tol_bits:
        # dual-informed L is not tight enough on its own; ascend the primal directly
        cfg_p = cfg or OptimizerConfig(max_iters=800, objective_tol=1e-10)
        ascent_bits, cert_a, _ = _gamma_ascent_diagonal(p_full, cfg_p, h0=h_full)
        if ascent_bits > primal_bits:
            primal_bits, cert = ascent_bits, cert_a
    primal_bits = min(primal_bits, dual_bits)
    gap = effective_gap(primal_bits)

    eps = min(1.0, deficit)
    e_used = diag_energy if energy is None else energy
    correction = truncation_certificate(eps, e_used, 1)
    certificate = {
        "truncation_epsilon": eps,
        "truncation_correction_bits": correction,
        "inner_sup_radius": cert.radius_sq,
        "inner_sup_grid_error": cert.gap,
        "ansatz_description": f"diagonal L = p/q vs Poisson mixture ({atoms.size} atoms)",
        "duality_gap_bits": gap,
    }
    lower = MonotoneBound("NCM", "lower", max(0.0, primal_bits - correction), certificate,
                          converged=gap <= 2 * tol_bits + 1e-12)
    upper = MonotoneBound("NC", "upper", dual_bits + correction, certificate,
                          converged=gap <= 2 * tol_bits + 1e-12)
    return FockDiagonalResult(lower, upper, 0.5 * (primal_bits + dual_bits), gap)


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


def wehrl_upper_bound(rho: DensityOperator, *, energy: float | None = None) -> MonotoneBound:
    """S_W - S plus the quadrature tail, valid for the regularized monotone too."""
    rho_n = rho.renormalized() if rho.trace_deficit > 0 else rho
    est = wehrl_entropy(rho_n)
    s_bits = von_neumann_entropy(rho_n)
    eps = truncation_epsilon(rho)
    correction = truncation_certificate(eps, rho.energy if energy is None else energy, rho.modes)
    value = est.bits + est.tail_bits - s_bits + correction
    return MonotoneBound(
        "NC",
        "upper",
        value,
        {
            "truncation_epsilon": eps,
            "truncation_correction_bits": correction,
            "grid_tail_bits": est.tail_bits,
            "ansatz_description": "Wehrl-entropy estimate",
        },
    )


def husimi_lower_bound(rho: DensityOperator, *, energy: float | None = None) -> MonotoneBound:
    """-log2(pi^m sup Q) - S, floored at zero."""
    rho_n = rho.renormalized() if rho.trace_deficit > 0 else rho
    sup_q = husimi_sup(rho_n)
    s_bits = von_neumann_entropy(rho_n)
    eps = truncation_epsilon(rho)
    correction = truncation_certificate(eps, rho.energy if energy is None else energy, rho.modes)
    raw = -math.log2(max(math.pi**rho.modes * sup_q, 1e-300)) - s_bits
    return MonotoneBound(
        "NCM",
        "lower",
        max(0.0, raw - correction),
        {
            "truncation_epsilon": eps,
            "truncation_correction_bits": correction,
            "ansatz_description": "Husimi-peak estimate",
            "raw_value_bits": raw,
        },
    )


def gaussian_bounds(gd: GaussianDescriptor, entropy_bits: float) -> tuple[MonotoneBound, MonotoneBound]:
    """Closed-form pair for Gaussian states from the covariance matrix."""
    m = gd.modes
    half_logdet = 0.5 * math.log2(np.linalg.det(gd.V + np.eye(2 * m)))
    lower = max(0.0, half_logdet - entropy_bits - m)
    upper = half_logdet - entropy_bits + m * LOG2E
    meta = {"ansatz_description": "Gaussian covariance closed form"}
    return (
        MonotoneBound("NCM", "lower", lower, dict(meta, raw_value_bits=half_logdet - entropy_bits - m)),
        MonotoneBound("NC", "upper", upper, meta),
    )


def squeezed_thermal_closed_form(r: float, s: float) -> float:
    """Printed closed form log2(1+N(s)) + 2 sinh^2(r-s) log2(1+1/N(s))."""
    n_s = 0.5 * (math.exp(2.0 * s) - 1.0)
    if n_s <= 0.0:
        return math.inf if r != s else 0.0
    return math.log2(1.0 + n_s) + 2.0 * math.sinh(r - s) ** 2 * math.log2(1.0 + 1.0 / n_s)


def classical_ansatz_upper_bound(
    rho: DensityOperator,
    family: str,
    *,
    grid: Sequence[float] | None = None,
    points: Sequence[complex] | None = None,
    energy: float | None = None,
    squeeze_r: float | None = None,
) -> MonotoneBound:
    """Upper bound from the infimum restricted to an explicit classical family.

    family is one of "thermal" (grid of nu), "squeezed_thermal" (grid of s,
    requires squeeze_r for the closed-form companion value), or
    "coherent_mixture" (support points, weights optimized).
    """
    if rho.modes != 1:
        raise UsageError("classical ansatz families are single mode")
    rho_n = rho.renormalized() if rho.trace_deficit > 0 else rho
    d = rho.cutoff
    eps = truncation_epsilon(rho)
    e_used = rho.energy if energy is None else energy
    correction = truncation_certificate(eps, e_used, 1)
    meta = {"truncation_epsilon": eps, "truncation_correction_bits": correction}
    best = math.inf
    best_param = None

    if family == "thermal":
        nus = np.asarray(grid if grid is not None else np.geomspace(1e-3, 50, 120), dtype=float)
        s_bits = von_neumann_entropy(rho_n)
        mean = rho_n.energy

        def d_thermal(nu: float) -> float:
            if nu <= 0:
                return 0.0 if mean == 0.0 and s_bits == 0.0 else math.inf
            # D(rho || tau_nu) = -S(rho) + log2(1+nu) - <n> log2(nu/(1+nu)), exact
            return -s_bits + math.log2(1 + nu) - mean * math.log2(nu / (1 + nu))

        for nu in nus:
            val = d_thermal(float(nu))
            if val < best:
                best, best_param = val, float(nu)
        if best_param is not None and best_param > 0:
            res = minimize_scalar(d_thermal, bounds=(best_param / 3, best_param * 3),
                                  method="bounded")
            if res.fun < best:
                best, best_param = float(res.fun), float(res.x)
        meta["ansatz_description"] = f"thermal ansatz, best nu={best_param:.6g}"
    elif family == "squeezed_thermal":
        ss = np.asarray(grid if grid is not None else np.linspace(0.01, 2.5, 120), dtype=float)
        s_bits = von_neumann_entropy(rho_n)
        ent = rho_n.entries
        mean = float(np.dot(np.arange(d), np.real(np.diagonal(ent))))
        k = np.arange(d - 2)
        re_a2 = float(np.dot(np.sqrt((k + 1.0) * (k + 2.0)), np.real(np.diagonal(ent, offset=2))))

        def d_squeezed(s: float) -> float:
            # D(rho||sigma_s) via the analytic log of sigma_s = S tau_N S^T:
            # log2 sigma = -log2(1+N) + log2(N/(1+N)) S n S^T, and the squeezed-frame
            # mean photon number is Tr[rho S n S^T] = cosh(2s)<n> + sinh^2 s + sinh(2s) Re<a^2>
            n_s = 0.5 * (math.exp(2.0 * s) - 1.0)
            frame_energy = (math.cosh(2.0 * s) * mean + math.sinh(s) ** 2
                            + math.sinh(2.0 * s) * re_a2)
            return -s_bits + math.log2(1 + n_s) - frame_energy * math.log2(n_s / (1 + n_s))

        for s in ss:
            if s <= 0:
                continue
            val = d_squeezed(float(s))
            if val < best:
                best, best_param = val, float(s)
        if best_param is not None:
            res = minimize_scalar(d_squeezed, method="bounded",
                                  bounds=(max(best_param - 0.1, 1e-3), best_param + 0.1))
            if res.fun < best:
                best, best_param = float(res.fun), float(res.x)
        meta["ansatz_description"] = f"squeezed-thermal ansatz, best s={best_param}"
        if squeeze_r is not None:
            cf = min(squeezed_thermal_closed_form(squeeze_r, s) for s in ss if s > 0)
            meta["closed_form_bits"] = cf
    elif family == "coherent_mixture":
        if not points:
            raise UsageError("coherent_mixture needs support points")
        vecs = [coherent_vector(a, d)[0] for a in points]
        comps = [np.outer(v, v.conj()) for v in vecs]

        def divergence(weights):
            sigma = sum(wi * ci for wi, ci in zip(weights, comps))
            tr = np.real(np.trace(sigma))
            if tr <= 1e-12:
                return math.inf
            sig = DensityOperator.from_matrix(sigma / tr, 1, d, validate=False)
            return relative_entropy(rho_n, sig)

        n_pts = len(comps)
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
        return MonotoneBound("NC", "upper", math.inf,
                             dict(meta, ansatz_description=meta.get("ansatz_description", family),
                                  support_mismatch=True))
    return MonotoneBound("NC", "upper", best + correction, meta)


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


def bound_sandwich(
    rho: DensityOperator,
    cfg: OptimizerConfig | None = None,
    *,
    spec: StateSpec | None = None,
    include_generic: bool | None = None,
) -> tuple[MonotoneBound, MonotoneBound]:
    """Best available interval [lower on NCM, upper on NC] for one state.

    Routing: Fock-diagonal states take the exact diagonal program; cat specs
    add the reflection-symmetric ansatz; Gaussian specs add the covariance
    closed forms and classical-family ansatz bounds.  A nonempty interval is
    enforced loudly.
    """
    cfg = cfg or OptimizerConfig()
    energy = exact_energy(spec) if spec is not None else rho.energy
    lowers: list[MonotoneBound] = []
    uppers: list[MonotoneBound] = [energy_upper_bound(energy, rho.modes)]

    if rho.modes == 1 and rho.fock_diagonal:
        fd = fock_diagonal_ncm(rho, cfg, energy=energy)
        lowers.append(fd.lower)
        uppers.append(fd.upper)
    fam = spec.family if spec is not None else None
    if fam == "fock":
        n = int(spec.params["n"])
        exact = fock_closed_form(n)
        lowers.append(MonotoneBound("NCM", "lower", exact,
                                    {"ansatz_description": "Fock closed form"}))
        uppers.append(MonotoneBound("NC", "upper", exact,
                                    {"ansatz_description": "Fock closed form"}))
    if fam == "cat":
        lowers.append(cat_gamma_lower_bound(float(spec.params["alpha"]), spec.params["sign"],
                                            rho.cutoff))
        a = float(spec.params["alpha"])
        uppers.append(classical_ansatz_upper_bound(rho, "coherent_mixture",
                                                   points=[a, -a, 0.0], energy=energy))
    if fam in ("coherent", "thermal", "squeezed"):
        gd = gaussian_descriptor(spec)
        # entropy of the ideal Gaussian state: 0 for the pure families, g(nu) thermal
        s_bits = 0.0 if fam in ("coherent", "squeezed") else g_thermal(float(spec.params["nu"]))
        g_lower, g_upper = gaussian_bounds(gd, s_bits)
        lowers.append(g_lower)
        uppers.append(g_upper)
        if fam == "coherent":
            alpha = spec.params["alpha"]
            a = complex(alpha[0], alpha[1]) if isinstance(alpha, (list, tuple)) else complex(alpha)
            uppers.append(classical_ansatz_upper_bound(rho, "coherent_mixture", points=[a],
                                                       energy=energy))
        if fam == "thermal":
            uppers.append(classical_ansatz_upper_bound(
                rho, "thermal", grid=[max(float(spec.params["nu"]), 1e-6)], energy=energy))
        if fam == "squeezed":
            r = float(spec.params["r"])
            uppers.append(classical_ansatz_upper_bound(rho, "thermal", energy=energy))
            uppers.append(classical_ansatz_upper_bound(rho, "squeezed_thermal",
                                                       energy=energy, squeeze_r=r))
    if include_generic is None:
        include_generic = rho.modes == 1 and not rho.fock_diagonal and fam not in (
            "cat", "coherent", "squeezed")
    if include_generic and rho.modes == 1:
        lowers.append(gamma_lower_bound(rho, cfg, energy=energy))
    if not lowers:
        lowers.append(MonotoneBound("NCM", "lower", 0.0,
                                    {"ansatz_description": "trivial nonnegativity"}))

    best_lower = max(lowers, key=lambda b: b.value)
    best_upper = min(uppers, key=lambda b: b.value)
    if best_lower.value > best_upper.value + SANDWICH_SLACK:
        raise BoundConsistencyError(
            f"certified lower {best_lower.value} exceeds certified upper {best_upper.value}: "
            f"{best_lower.certificate} vs {best_upper.certificate}"
        )
    return best_lower, best_upper


def bound_sandwich_product(
    parts: Sequence[tuple[DensityOperator, StateSpec | None]],
    cfg: OptimizerConfig | None = None,
) -> tuple[MonotoneBound, MonotoneBound]:
    """Interval for an explicit tensor product from per-factor sandwiches."""
    return product_interval([bound_sandwich(rho, cfg, spec=spec) for rho, spec in parts])


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
