"""Certified lower and upper bounds on the nonclassicality monotones.

Lower bounds come from the variational program

    sup over positive L of  Tr[rho log2 L] - log2 sup_alpha <alpha|L|alpha>,

whose every feasible L yields a valid lower bound; the inner supremum enters
through a certified upper bound (``_envelope``), or exactly for the closed forms
(Fock, and L = exp(-x X^2) on a quadrature), so reported values never overshoot.
Upper bounds come from explicit classical ansatz states, the energy bound
m*g(E/m), the Gaussian closed forms and the Poisson mixture of ``_poisson``;
``wehrl_upper_bound`` is an uncertified estimate that no interval uses.  Bounds for
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

from ._envelope import (CertifiedSup, _basel_envelope_sup, _envelope_at, _envelope_grid,
                        _envelope_log_weights, _envelope_sup_certified, _envelope_terms,
                        _peak_polisher)
from ._optim import bounded_minimum
from ._poisson import FD_TOL_BITS, _poisson_mixture_fit
from .entropies import (
    LN2,
    LOG2E,
    OptimizerReport,
    ascend,
    entropy_of_probabilities,
    exp_frechet_gradient,
    exp_hermitian,
    von_neumann_entropy,
    wehrl_entropy,
)
from .errors import BoundConsistencyError, UsageError
from .fock_core import DensityOperator, coherent_vector, displacement_columns, log_factorials
from .states import (
    GAUSSIAN_FAMILIES,
    PURE_FAMILIES,
    FockDiagonalState,
    GaussianDescriptor,
    cat_amplitudes,
    exact_energy,
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
    if x >= 1.0:
        # the two terms of the form below cancel for large x; ln(1 + x) + x ln(1 + 1/x) does not
        return (math.log1p(x) + x * math.log1p(1.0 / x)) * LOG2E
    # log1p keeps the digits of ln(1 + x) that log2(x + 1) drops for small x
    return (x + 1.0) * math.log1p(x) * LOG2E - x * math.log2(x)


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
    return (math.lgamma(n + 1) + n - n * math.log(n)) / LN2


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


def _moments(rho: DensityOperator) -> tuple[complex, float, float]:
    """(beta, n_c, |m_c|) of a normalised single-mode rho: beta = Tr[rho a] =
    sum_m sqrt(m) rho[m, m-1], n_c = <n> - |beta|^2 (floored at 0) and m_c = <a^2> - beta^2."""
    if rho.modes != 1:
        raise UsageError(f"the moment bounds take a single-mode state, not {rho.modes} modes")
    ent, d = rho.entries, rho.cutoff
    beta = complex(np.sqrt(np.arange(1.0, d)) @ np.diagonal(ent, offset=-1))
    k = np.arange(d - 2)
    weights, off2 = np.sqrt((k + 1.0) * (k + 2.0)), np.diagonal(ent, offset=-2)
    m_c = abs(complex(np.dot(weights, off2.real), np.dot(weights, off2.imag)) - beta * beta)
    n_c = max(float(np.dot(np.arange(d), np.real(np.diagonal(ent)))) - abs(beta) ** 2, 0.0)
    return beta, n_c, m_c


# ---------------------------------------------------------------------------
# certified coherent supremum
# ---------------------------------------------------------------------------

# relative slack of the certified inner sup that every lower-bound engine emits; the even
# cat's search certifies only its winner at it
INNER_TOL = 1e-9


def coherent_sup_certified(entries, *, tol: float = 1e-10) -> CertifiedSup:
    """Certified upper bound on sup over all alpha in C of <alpha|L|alpha>.

    Works on the absolute-coefficient envelope F(t) = e^(-t) sum_s W_s t^(s/2) of
    ``_envelope_terms``, which dominates the target for every phase of alpha,
    capped by the largest eigenvalue of L since truncated coherent vectors have
    norm at most one; ``_envelope_sup_certified`` bounds it.
    """
    return _envelope_sup_certified(*_envelope_terms(entries), tol=tol)


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
        v = np.exp(0.5 * (k * math.log(t_star) - log_factorials(d)) - 0.5 * t_star)
    mag = np.abs(entries)
    phase = np.where(mag > 0, entries / np.where(mag > 0, mag, 1.0), 1.0)
    return phase * np.outer(v, v)


def _gamma_ascent_dense(rho_m: np.ndarray, max_iters: int) -> tuple[float, CertifiedSup, OptimizerReport]:
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

    _, best_value, (best_cert, *_), report = ascend(evaluate, gradient, h, max_iters, 1e-8)
    return best_value, best_cert, report


def gamma_lower_bound(rho: DensityOperator, *, max_iters: int = 300) -> MonotoneBound:
    """Certified lower bound on the measured relative entropy of nonclassicality.

    Any iterate of the ascent, which takes at most ``max_iters`` steps, is
    feasible, so the best value found (minus the truncation correction, floored
    at zero) is a valid bound for the ideal state whose truncation this is.
    """
    if rho.modes != 1:
        raise UsageError("gamma_lower_bound operates on single-mode states; use product "
                         "ansatz helpers for tensor inputs")
    raw, cert, report = _gamma_ascent_dense(rho.renormalized().entries, max_iters)
    return _certified(rho, "NCM", "lower", raw,
                      {"ansatz_description": "dense exp(H) ascent", "raw_value_bits": raw,
                       "iterations": report.iterations},
                      sup=cert, converged=report.converged)


CAT_C_TOL = 1e-12  # |sup F - 1| at which the even cat's solve for c_max(b) stops
CAT_C_STEPS = 30  # Newton steps that solve may take


def _log2_form(b: float, c: float, det: float, x: tuple[float, float]) -> float:
    """<x|log2 E|x> for E = [[1, b], [b, c]] positive definite, b >= 0 and x a unit vector.

    E's eigenvalues are top and low = det / top, top's eigenvector (r - h, b) ~ (b, r + h).
    The caller passes det = c - b^2 in whatever form keeps its digits, and the value
    weighs log2 top and log2 low by x's squared components along the two eigenvectors,
    so a tiny low costs no digits when x nearly lies along top's eigenvector.
    """
    h = 0.5 * (c - 1.0)
    r = math.hypot(b, h)
    top = 0.5 * (1.0 + c) + r
    u0, u1 = (r - h, b) if h <= 0.0 else (b, r + h)
    norm2 = u0 * u0 + u1 * u1
    cos2, sin2 = (u0 * x[0] + u1 * x[1]) ** 2 / norm2, (u0 * x[1] - u1 * x[0]) ** 2 / norm2
    return cos2 * math.log2(top) + sin2 * math.log2(det / top)


def _even_cat_ansatz(psi: np.ndarray):
    """The even cat's ansatz L = e0 e0^T + b (e0 tau^T + tau e0^T) + c tau tau^T and its search.

    tau is the normalised tail of psi on levels n >= 1, so span{e0, tau} = span{cat+, vacuum}
    and L is E = [[1, b], [b, c]] in the basis (e0, tau): the scale of L is free, so E00 = 1.
    e0 and tau have disjoint supports, so |L_jk| is 1, |b| |tau_k| or |c| |tau_j tau_k|, and
    the envelope is F = F_e0 + |b| F_x + |c| F_tau with F(0) = 1; the three fixed envelopes are
    tabulated once on ``_envelope_grid``, as is its ``_peak_polisher``.

    The search maximises v(b) = (log2 E)_psi,psi, in closed form (``_log2_form``, det E =
    c - b^2), at c = c_max(b), the largest c with sup over t > 0 of F at most 1 = F(0),
    so that v is the bound before certification.
    A smaller c only lowers log E, which is operator monotone, and v is concave in b, since
    (log E)_psi,psi is concave in E and c <= c_max(b) is a convex set: Brent's search
    (``bounded_minimum``) is safe.  It runs over b >= 0, since (log E)_01 has the sign of b and
    psi's coordinates are positive, on [0, b_hi], b_hi where the grid's value of c_max meets
    b^2; a b whose solve leaves E not positive definite reads +inf.  The solve starts from the
    grid's min of (1 - F_e0 - b F_x) / F_tau, never below c_max(b), and takes Newton steps on
    the largest polished peak: sup F is convex in c, with slope F_tau at its peak.

    Returns (matrix, peak, search): (b, c) -> L; (b, c) -> (t, F) at the largest polished peak
    of F on t > 0, whose max with F(0) = 1 is the peak of L's envelope for c >= 0 (F(t) is then
    <sqrt t|L|sqrt t> at |b|, below the top eigenvalue, so the cap never binds); and
    search() -> (the winner's L, scaled so that <psi|log L|psi> = 0, its uncertified bound
    in bits, the peaks read, and whether Brent closed its bracket and the winner's solve met
    ``CAT_C_TOL``).
    """
    tail = psi.copy()
    tail[0] = 0.0
    coords = (float(psi[0]), float(np.linalg.norm(tail)))  # psi in the basis (e0, tau)
    tail /= coords[1]
    e0 = np.zeros_like(psi)
    e0[0] = 1.0
    basis = np.stack([e0, tail])
    ln_rows = np.stack([_envelope_log_weights(m) for m in (
        np.outer(e0, e0), np.outer(e0, tail) + np.outer(tail, e0), np.outer(tail, tail))])
    finite = np.isfinite(ln_rows).any(axis=0)
    ln_rows, powers = ln_rows[:, finite], 0.5 * np.flatnonzero(finite)
    grid = _envelope_grid(powers)
    table = np.stack([_envelope_at(row, powers, grid) for row in ln_rows], axis=1)
    rows = np.exp(ln_rows)
    polish = _peak_polisher(powers, grid)
    gap, cross, square = 1.0 - table[:, 0], table[:, 1], table[:, 2]  # 1 - F_e0, F_x, F_tau

    def matrix(b, c):
        return basis.T @ np.array([[1.0, b], [b, c]]) @ basis

    def peak(b, c):
        coef = np.array([1.0, abs(b), abs(c)])
        with np.errstate(divide="ignore"):
            ts, fs = polish(np.log(coef @ rows), table @ coef)
        j = int(np.argmax(fs))
        return float(ts[j]), float(fs[j])

    def c_max(b):
        """(c, F at its largest peak, peaks read, solved), F = inf where E is not positive definite."""
        c = float(np.min((gap - b * cross) / square))
        for k in range(CAT_C_STEPS):
            if c <= b * b:
                return c, math.inf, k, False
            t, f = peak(b, c)
            if abs(f - 1.0) <= CAT_C_TOL:
                return c, f, k + 1, True
            c -= (f - 1.0) / float(np.exp(ln_rows[2] + powers * math.log(t) - t).sum())
        return c, f, CAT_C_STEPS, False

    def search():
        solves = {}

        def loss(b):
            c, f, _, _ = solves[b] = c_max(b)
            return -_log2_form(b, c, c - b * b, coords) if f < math.inf else math.inf

        b_hi = float(np.min(2.0 * gap / (cross + np.sqrt(cross * cross + 4.0 * square * gap))))
        b, _, closed = bounded_minimum(loss, 0.0, b_hi)
        if solves[b][1] == math.inf:  # no point read was feasible; b = 0 always is
            b, closed = 0.0, False
            loss(b)
        c, f, _, solved = solves[b]
        value = _log2_form(b, c, c - b * b, coords)
        reads = sum(s[2] for s in solves.values())
        return matrix(b, c) * 2.0 ** -value, value - math.log2(max(f, 1.0)), reads, closed and solved

    return matrix, peak, search


def cat_gamma_lower_bound(rho: DensityOperator) -> MonotoneBound:
    """Parity-block lower bound for a cat state built by ``make_state``.

    L acts on the cat's own parity block: |cat><cat| alone for the odd cat
    (and for an even cat whose span holds no other even direction), or
    the even cat's ansatz on span{cat+, vacuum} (``_even_cat_ansatz``), plus a
    1e-12 floor on the complement so L stays positive definite.  The other
    parity block would only raise <beta|L|beta>, and the scale of L is fixed by
    <cat|log L|cat> = 0, so Tr[rho log L] vanishes and the bound is -log2 of
    the certified supremum.  The even cat's search is one-dimensional: Brent
    over the off-diagonal entry b of E = [[1, b], [b, c]], with c solved so that
    the uncertified envelope peak, which the certificate never undercuts, ties
    F(0); each point reads closed forms and a few polished peaks, with no
    LAPACK call and no d x d matrix.  It certifies the winner alone, on the
    full L, to ``INNER_TOL``: one certified supremum per bound.  Its
    ``iterations`` counts the peaks read, and it is converged when Brent closed
    its bracket and the winner's solve for c met its tolerance.
    """
    if rho.spec is None or rho.spec.family != "cat":
        raise UsageError("cat_gamma_lower_bound takes a cat state built by make_state")
    sign = rho.spec.params["sign"]
    psi = cat_amplitudes(rho.spec.params["alpha"], sign, rho.cutoff)
    psi = psi / np.linalg.norm(psi)
    floor = 1e-12

    if sign == "-" or np.linalg.norm(psi[1:]) < 1e-8:
        cert = coherent_sup_certified(np.outer(psi, psi), tol=INNER_TOL)
        raw, iterations, converged = -math.log2(cert.value + floor), 0, True
        ansatz = "cat parity-block ansatz |cat><cat|"
    else:
        *_, search = _even_cat_ansatz(psi)
        l_mat, _, iterations, converged = search()
        cert = coherent_sup_certified(l_mat, tol=INNER_TOL)
        raw = -math.log2(cert.value + floor)
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


def fock_diagonal_ncm(state) -> FockDiagonalResult:
    """Exact (to tolerance) nonclassicality of a single-mode Fock-diagonal state.

    For this class the whole monotone hierarchy collapses to one number, so a
    matched lower/upper pair is emitted.  The dual side is KL(p || q) for the
    Poisson mixture q of ``_poisson_mixture_fit``: in closed form on levels {0, n},
    in no rounds, else by rounds that polish phi's maxima with ``_peak_polisher``.
    The primal side is L = p/q on the supported levels and 0 elsewhere, whose value
    is the dual minus log2 sup phi; the certified supremum of diag(L) over all
    amplitudes bounds sup phi, so its log2 is the duality gap, closed form or not.
    Both sides carry an outward allowance for the rounding of KL: where the fit is
    exact, as on levels {0, n}, the float KL can fall an ulp below the true value.  The
    allowance is 1.6e-12 nats for thermal nu = 5 on 150 levels, where the error
    measured against 40-digit arithmetic was 4.5e-16.
    """
    if isinstance(state, FockDiagonalState):
        ks = np.array([float(k) for k in state.indices])
        order = np.argsort(ks)  # the certificate's envelope takes its powers ascending
        ks, weights = ks[order], np.asarray(state.weights, dtype=float)[order]
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
    ln_ell = np.log(ell)
    # KL against a normalized mixture is nonnegative; guard float dust
    dual_bits = max(LOG2E * float(p @ ln_ell), 0.0)
    # each pois(k; t) behind q is exp of k ln t - t - ln k!, terms below about m ln m + m,
    # and the sums add eps per term: 8 (m + 1) eps (1 + ln(1 + m) + sum p |ln ell|) nats
    # covers the float evaluation of KL, taken outward on each side
    rounding = 8.0 * LOG2E * (m_top + 1.0) * np.finfo(float).eps * (
        1.0 + math.log1p(m_top) + float(p @ np.abs(ln_ell)))
    # diag(ell) has eigenvalues ell and envelope weights W_k = ell_k / k! on t^k
    ln_w = ln_ell - log_factorials(int(m_top) + 1)[ks.astype(np.intp)]
    cert = _envelope_sup_certified(float(ell.max()), ln_w, ks, tol=1e-12)
    # primal = dual - log2 sup phi; gap is the width of [max(primal, 0), dual]
    gap = min(max(math.log2(cert.value), 0.0), dual_bits)

    certificate = {
        "ansatz_description": f"diagonal L = p/q vs Poisson mixture ({atoms.size} atoms)",
        "duality_gap_bits": gap,
        "iterations": rounds,
    }
    fold = dict(sup=cert, converged=gap <= 2 * FD_TOL_BITS)
    return FockDiagonalResult(
        _certified(state, "NCM", "lower", max(dual_bits - gap - rounding, 0.0), certificate, **fold),
        _certified(state, "NC", "upper", dual_bits + rounding, certificate, **fold))


CENTRE_PAD = 20  # Fock levels past the cutoff kept of a centred diagonal


def centred_dephased_ncm(rho: DensityOperator) -> FockDiagonalResult:
    """Certified pair for a single-mode matrix from its centred, dephased diagonal.

    The monotones are invariant under displacements and cannot rise under phase
    averaging.  With beta = Tr[rho a], let p_c be the diagonal of
    D(-beta) rho D(-beta)^+, and q the Poisson mixture that ``fock_diagonal_ncm``
    fits to it.  Then NCM(rho) >= NCM(diag p_c) >= the program's lower bound,
    and the classical state D(beta) sigma_q D(beta)^+ gives the upper bound
    D(rho || D(beta) sigma_q D(beta)^+) = KL(p_c || q) + H(p_c) - S(rho).

    p_c is kept on d + ``CENTRE_PAD`` levels.  The mass tau it loses there is
    exact, the trace minus what is kept, and the centred state has energy at
    most (sqrt(E) + |beta|)^2.  So the cut costs c = truncation_certificate(tau,
    that energy), folded here once on the lower side and twice on the upper
    side: once on KL and once on H(p_c), which the cut lowers by at most
    h(tau) + tau g(E/tau) <= c.  The input's own truncation is folded on rho
    by ``_certified``.  Both certificates carry the raw value before that fold.
    """
    rho_n = rho.renormalized()
    ent, d = rho_n.entries, rho.cutoff
    beta = _moments(rho_n)[0]
    cols = displacement_columns(-beta, d + CENTRE_PAD, d)
    p_c = np.clip(np.real(np.sum((cols @ ent) * cols.conj(), axis=1)), 0.0, None)
    tau = min(max(rho_n.trace() - float(p_c.sum()), 0.0), 1.0)
    pad = truncation_certificate(tau, (math.sqrt(max(rho_n.energy, 0.0)) + abs(beta)) ** 2)
    p = p_c / p_c.sum()
    exact = fock_diagonal_ncm(FockDiagonalState(tuple(range(p.size)), p, 0.0))
    dephasing = max(entropy_of_probabilities(p) - von_neumann_entropy(rho_n), 0.0)

    shared = {k: v for k, v in exact.lower.certificate.items() if not k.startswith("truncation_")}
    shared.update(ansatz_description=f"centred at {beta:.6g} and dephased: "
                                     + shared["ansatz_description"],
                  pad_epsilon=tau, pad_correction_bits=pad)
    raw_lower = exact.lower.value - pad
    raw_upper = exact.upper.value + dephasing + 2.0 * pad
    converged = exact.lower.converged
    return FockDiagonalResult(
        _certified(rho, "NCM", "lower", raw_lower, {**shared, "raw_value_bits": raw_lower},
                   converged=converged),
        _certified(rho, "NC", "upper", raw_upper,
                   {**shared, "dephasing_entropy_bits": dephasing, "raw_value_bits": raw_upper},
                   converged=converged))


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
    """S_W - S plus the quadrature's certified tail: an estimate, not a certified bound.

    Only the tail term is certified; the Gauss-Laguerre error on the grid is not
    bounded, and on |1> and |2> at cutoff 20 it is +8.9e-5 and -1.9e-6 bits
    against the closed form.
    """
    rho_n = rho.renormalized()
    est = wehrl_entropy(rho_n)
    return _certified(rho, "NC", "upper", est.bits + est.tail_bits - von_neumann_entropy(rho_n),
                      {"grid_tail_bits": est.tail_bits,
                       "ansatz_description": "Wehrl-entropy estimate"})


def husimi_sup(rho: DensityOperator) -> float:
    """Certified upper bound on sup_alpha Q_rho(alpha) (single mode)."""
    if rho.modes != 1:
        raise UsageError("husimi_sup supports single-mode states")
    return coherent_sup_certified(rho.entries, tol=INNER_TOL).value / math.pi


def husimi_lower_bound(rho: DensityOperator) -> MonotoneBound:
    """-log2(pi^m sup Q) - S, floored at zero."""
    rho_n = rho.renormalized()
    raw = -math.log2(max(math.pi**rho.modes * husimi_sup(rho_n), 1e-300)) - von_neumann_entropy(rho_n)
    return _certified(rho, "NCM", "lower", raw,
                      {"ansatz_description": "Husimi-peak estimate", "raw_value_bits": raw})


def quadrature_lower_bound(rho: DensityOperator) -> MonotoneBound:
    """Lower bound from L = exp(-x X^2), X the centred quadrature of least variance v/2.

    Tr[rho ln L] = -x v/2 and sup_alpha <alpha|L|alpha> = 1/sqrt(1+x) exactly, so the value
    (ln(1+x) - x v)/2 nats peaks at x = 1/v - 1: (v - 1 - ln v)/2 if v < 1, else 0 at x = 0.
    """
    beta, n_c, m_c = _moments(rho.renormalized())
    # the sums behind n_c and m_c (d terms, total size below <n> + 1) round v by less than
    # 12 d eps (<n> + 1); raised by more, v never reads rounding (v = 1 if coherent) as squeezing
    rounding = 16.0 * rho.cutoff * np.finfo(float).eps * (n_c + abs(beta) ** 2 + 1.0)
    v = 2.0 * n_c + 1.0 - 2.0 * m_c + rounding
    raw = 0.5 * LOG2E * (v - 1.0 - math.log(v)) if v < 1.0 else 0.0
    return _certified(rho, "NCM", "lower", raw,
                      {"ansatz_description": f"squeezed quadrature, variance {v:.6g}",
                       "raw_value_bits": raw})


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


def classical_ansatz_upper_bound(rho: DensityOperator) -> MonotoneBound:
    """Upper bound D(rho || sigma) from a classical Gaussian state.

    sigma = D(beta) S(s) tau_N S(s)^+ D(beta)^+ with beta = Tr[rho a]; S(s) squeezes
    along the quadrature that m_c = <a^2> - beta^2 picks out; tau_N is thermal, and
    sigma is classical iff N >= n_s = (e^(2s) - 1)/2.  With a = n_c + 1/2,
    n_c = <n> - |beta|^2, and m = |m_c|, the squeezed-frame photon number is
    E_s = a cosh 2s - m sinh 2s - 1/2, and D = log2(1+N) - E_s log2(N/(1+N)) - S(rho)
    is least at N = max(E_s, n_s).  E_s >= n_s holds exactly for s <= s_b, where
    e^(4 s_b) = (a + m)/(1 + m - a), and s_b = inf when a - m >= 1; there D is
    g(E_s) - S(rho), least where E_s is, at s* = artanh(m/a)/2.  Past s*, E_s and
    n_s both rise, and D rises with each (N = n_s > E_s there).  So D is least at s*
    when s* <= s_b; otherwise D falls on [0, s_b], and its minimum is the better of
    D(s_b) and Brent's minimum over ln s on [s_b, s*].  s = 0 is the thermal state about beta
    (coherent when n_c = 0).  D >= 0 floors the value.  A pure family built by
    ``make_state`` has S(rho) = 0 with no eigensolver: the renormalised truncation
    of a pure vector has rank one.  A Fock-diagonal state reads S(rho) as the
    Shannon entropy of its diagonal, its spectrum.  The certificate also carries the
    raw value of the unsqueezed member, s = 0.
    """
    rho_n = rho.renormalized()
    _, n_c, m = _moments(rho_n)
    if rho.spec is not None and rho.spec.family in PURE_FAMILIES:
        s_bits = 0.0
    elif rho.fock_diagonal:
        s_bits = entropy_of_probabilities(np.clip(rho_n.diagonal(), 0.0, None))
    else:
        s_bits = von_neumann_entropy(rho_n)
    a = n_c + 0.5

    def divergence(s: float) -> float:
        n_s = 0.5 * math.expm1(2.0 * s)
        frame_energy = math.cosh(2.0 * s) * n_c + math.sinh(s) ** 2 - math.sinh(2.0 * s) * m
        if frame_energy >= n_s:  # N = E_s
            return -s_bits + g_thermal(frame_energy)
        return -s_bits + math.log2(1 + n_s) - frame_energy * math.log2(n_s / (1 + n_s))

    # n_c = 0 forces m = 0, since a^2 - m^2 >= 1/4: the centred state is the vacuum, and a
    # nonzero m is rounding.  e^(4 s_b) - 1 = 2 n_c/(1 + m - a) keeps s_b's digits at small n_c.
    s_star = 0.5 * math.atanh(m / a) if n_c > 0.0 else 0.0
    s_b = math.inf if a - m >= 1.0 else 0.25 * math.log1p(2.0 * n_c / (1.0 + m - a))
    if s_star <= s_b:
        best_s, best = s_star, divergence(s_star)
    else:
        # Brent on ln s resolves s relative to itself: the minimum can sit just past a tiny s_b
        ln_s, best, _ = bounded_minimum(lambda x: divergence(math.exp(x)),
                                        math.log(s_b), math.log(s_star))
        best_s, kink = math.exp(ln_s), divergence(s_b)
        if kink <= best:
            best_s, best = s_b, kink
    return _certified(rho, "NC", "upper", max(best, 0.0),
                      {"ansatz_description": f"classical Gaussian ansatz, best s={best_s}",
                       "unsqueezed_raw_bits": max(divergence(0.0), 0.0)})


def cat_mixture_upper_bound(rho: DensityOperator) -> MonotoneBound:
    """Upper bound from w0 |0><0| + (1 - w0)(|a><a| + |-a><-a|)/2 for a cat built by ``make_state``.

    Parity fixes the cat and swaps |a> and |-a>, and D(rho || sigma) is convex in
    sigma, so equal weights on +-a are optimal, and D is unimodal in w0.  With e and o
    the even and odd parts of the truncated |a>, k+ = |e|^2 and k- = |o|^2, sigma is
    (1 - w0)|o><o| plus the even block w0 |0><0| + (1 - w0)|e><e| on (e0, tau), tau
    the normalised tail of e = c0 e0 + c1 tau.  rho, the renormalised truncated cat,
    is o / |o| or e / |e|, so D = log2 Tr sigma - <rho|log2 sigma|rho> in closed form,
    with no LAPACK call.  At w0 = 0, rho is an eigenvector of sigma and D(0) =
    log2(1 + k-/k+) for the even cat, log2(1 + k+/k-) for the odd one, whose D only
    rises with w0: the odd cat reads D(0) with no search.  The even block is
    sigma_00 E, E = [[1, b], [b, c]] with det E = w0 (1 - w0) c1^2 / sigma_00^2, taken
    as that product so that nothing cancels (``_log2_form``).  D is written in
    v = 1 - w0, and ``bounded_minimum`` searches ln v, which resolves v relative to
    itself: the small cat's optimum sits at v ~ alpha^2/2, below what a fixed step in
    w0 reaches.  The bound is the smaller of its minimum and D(0), where the optimum
    sits from alpha ~ 2 on (Brent stops a few 1e-6 inside).
    """
    if rho.spec is None or rho.spec.family != "cat":
        raise UsageError("cat_mixture_upper_bound takes a cat state built by make_state")
    a = rho.spec.params["alpha"]
    amps = coherent_vector(a, rho.cutoff)[0].real
    c0, c1_sq = float(amps[0]), float(np.dot(amps[2::2], amps[2::2]))
    k_even, k_odd = c0 * c0 + c1_sq, float(np.dot(amps[1::2], amps[1::2]))
    even = rho.spec.params["sign"] == "+"
    best_w0, best = 0.0, math.log1p(k_odd / k_even if even else k_even / k_odd) * LOG2E
    # at alpha = 0, sigma's even block is |0><0| for every w0; c1^2 > 1e-300 keeps ln v's bracket
    if even and c1_sq > 1e-300:
        c1 = math.sqrt(c1_sq)
        x = (c0 / math.sqrt(k_even), c1 / math.sqrt(k_even))

        def divergence(v: float) -> float:  # in v = 1 - w0, never formed from w0
            w0 = 1.0 - v
            s00 = w0 + v * c0 * c0
            b, c = v * c0 * c1 / s00, v * c1_sq / s00
            # log2(Tr sigma / sigma_00) with Tr sigma - sigma_00 = v (c1^2 + k-)
            head = math.log1p(v * (c1_sq + k_odd) / s00) * LOG2E
            return head - _log2_form(b, c, w0 * c / s00, x)

        # Brent on ln v resolves the optimum at v ~ alpha^2/2; from v = 1e-300/c1^2, where
        # c = v c1^2/sigma_00 is still a normal float
        ln_v, value, _ = bounded_minimum(lambda y: divergence(math.exp(y)),
                                         math.log(1e-300 / c1_sq), 0.0)
        if value < best:
            best_w0, best = -math.expm1(ln_v), value
    return _certified(rho, "NC", "upper", best,
                      {"ansatz_description": f"coherent mixture on +-{a:g} and 0, "
                                             f"vacuum weight {best_w0:.9g}"})


# ---------------------------------------------------------------------------
# basel-family divergence bound (log-domain throughout)
# ---------------------------------------------------------------------------

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


def bound_sandwich(rho: DensityOperator, *, max_iters: int = 300) -> tuple[MonotoneBound, MonotoneBound]:
    """Best available interval [lower on NCM, upper on NC] for one state.

    One list of candidate bounds, the best of each side taken: the energy
    bound; the exact program if single-mode Fock-diagonal; if dense and single
    mode, the quadrature and classical-Gaussian bounds, and the centred and
    dephased pair (``centred_dephased_ncm``) unless Fock-diagonal or a Gaussian
    spec; for a cat spec, what no generic engine gives: its parity-block ansatz
    and {+-alpha, 0} mixture.  A raw matrix whose pair's raw gap exceeds
    2 ``FD_TOL_BITS`` gets the dense exp(H) ascent of at most ``max_iters``
    steps: its value is at most NCM <= NC <= the pair's raw upper, so it could
    not raise the lower bound by more.  A nonempty interval is enforced loudly.
    """
    candidates = [energy_upper_bound(ideal_energy(rho), rho.modes)]
    if rho.modes == 1 and rho.fock_diagonal:
        candidates.extend(fock_diagonal_ncm(rho))
    if isinstance(rho, DensityOperator) and rho.modes == 1:
        candidates += [quadrature_lower_bound(rho), classical_ansatz_upper_bound(rho)]
        gaussian = rho.spec is not None and rho.spec.family in GAUSSIAN_FAMILIES
        if not (rho.fock_diagonal or gaussian):
            lower, upper = centred_dephased_ncm(rho)
            candidates += [lower, upper]
            gap = upper.certificate["raw_value_bits"] - lower.certificate["raw_value_bits"]
            if rho.spec is None and gap > 2 * FD_TOL_BITS:
                candidates.append(gamma_lower_bound(rho, max_iters=max_iters))
    if rho.spec is not None and rho.spec.family == "cat":
        candidates += [cat_gamma_lower_bound(rho), cat_mixture_upper_bound(rho)]

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
