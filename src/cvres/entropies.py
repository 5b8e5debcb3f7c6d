"""Entropic functionals on truncated states.

All reported values are in bits; natural logs are used internally where
convenient. The measured relative entropy is computed by gradient ascent over
L = exp(H): every iterate is feasible in the variational program, so the
returned value is always a valid lower bound on the true quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import UsageError
from .fock_core import DensityOperator, coherent_vector, log_factorials

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)
_ZERO_BIN = 1e-15
SUPPORT_TOL = 1e-10  # weight of rho outside the support of sigma that makes D(rho||sigma) infinite


def entropy_of_probabilities(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(A) = -Tr[A log2 A] via the eigenvalues, with 0 log 0 = 0."""
    evals = np.linalg.eigvalsh(rho.entries)
    return entropy_of_probabilities(np.clip(evals, 0.0, None))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Classical KL in bits. Bins with p <= 1e-15 contribute 0; p > 0 on q = 0 gives +inf."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > _ZERO_BIN
    if np.any(q[mask] <= _ZERO_BIN):
        return math.inf
    return float(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """D(rho||sigma) = Tr[rho(log2 rho - log2 sigma)] via joint eigen-expansion.

    Returns +inf when rho carries more than ``SUPPORT_TOL`` weight outside the
    numerical support of sigma.
    """
    if rho.modes != sigma.modes or rho.cutoff != sigma.cutoff:
        raise UsageError("relative_entropy requires matching shapes")
    a_vals, a_vecs = np.linalg.eigh(rho.entries)
    b_vals, b_vecs = np.linalg.eigh(sigma.entries)
    a_vals = np.clip(a_vals, 0.0, None)
    b_vals = np.clip(b_vals, 0.0, None)
    overlap = np.abs(a_vecs.conj().T @ b_vecs) ** 2  # overlap[i, j] = |<a_i|b_j>|^2
    a_pos = a_vals > _ZERO_BIN
    # numerical support of sigma: eigenvalues at machine-zero relative scale
    b_zero = b_vals <= max(float(b_vals[-1]) * 1e-15, 1e-300)
    outside = float(np.sum(a_vals[a_pos][:, None] * overlap[np.ix_(a_pos, b_zero)]))
    if outside > SUPPORT_TOL:
        return math.inf
    term_a = float(np.sum(a_vals[a_pos] * np.log2(a_vals[a_pos])))
    b_log = np.log2(np.maximum(b_vals, 1e-300))
    term_b = float(np.sum((a_vals[a_pos][:, None] * overlap[a_pos, :]) @ b_log))
    return term_a - term_b


@dataclass(frozen=True)
class OptimizerReport:
    iterations: int
    converged: bool


def exp_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(h) for Hermitian h, returned with the eigensystem (evals, vecs) of h."""
    evals, vecs = np.linalg.eigh(h)
    with np.errstate(over="ignore"):
        expm_h = (vecs * np.exp(evals)) @ vecs.conj().T
    return 0.5 * (expm_h + expm_h.conj().T), evals, vecs


def exp_frechet_gradient(evals: np.ndarray, vecs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Gradient of Tr[weight exp(h)] with respect to Hermitian h, from the eigensystem of h."""
    with np.errstate(over="ignore"):
        exp_vals = np.exp(evals)
        diff = evals[:, None] - evals[None, :]
        small = np.abs(diff) < 1e-12
        denom = np.where(small, 1.0, diff)
        phi = np.where(
            small,
            np.exp(0.5 * (evals[:, None] + evals[None, :])),
            (exp_vals[:, None] - exp_vals[None, :]) / denom,
        )
    w_tilde = vecs.conj().T @ weight @ vecs
    grad = vecs @ (phi * w_tilde) @ vecs.conj().T
    return 0.5 * (grad + grad.conj().T)


def ascend(evaluate, gradient, x0, max_iters: int, objective_tol: float):
    """Backtracking gradient ascent shared by every exp(H) variational bound.

    ``evaluate(x)`` returns ``(value, aux)`` and ``gradient(x, aux)`` the ascent
    direction at x, reusing whatever ``evaluate`` left in aux.  A step is taken
    when it passes the Armijo test; the step doubles after a success and halves
    on each rejection.  When no step passes, or a step gains less than
    ``objective_tol``, the ascent stops and reports convergence only if the
    squared gradient norm is within ``objective_tol``: a tiny gain at a kink
    is a stall, not a stationary point.
    Returns ``(best_x, best_value, best_aux, report)``.
    """
    x = x0
    value, aux = evaluate(x)
    best_x, best_value, best_aux = x, value, aux
    step = 0.5
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        grad = gradient(x, aux)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-13:
            converged = True
            break
        for _ in range(30):
            x_try = x + step * grad
            value_try, aux_try = evaluate(x_try)
            if value_try > value + 1e-6 * step * gnorm**2:
                break
            step *= 0.5
        else:
            converged = gnorm**2 <= objective_tol
            break
        gain = value_try - value
        x, value, aux = x_try, value_try, aux_try
        if value > best_value:
            best_x, best_value, best_aux = x, value, aux
        step = min(step * 2.0, 1e4)
        if 0.0 <= gain < objective_tol:
            converged = gnorm**2 <= objective_tol
            break
    return best_x, best_value, best_aux, OptimizerReport(iters, converged)


def measured_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator
) -> tuple[float, OptimizerReport]:
    """Variational lower value of the measured relative entropy, in bits.

    Maximizes Tr[rho log2 L] - log2 Tr[sigma L] over L = exp(H) with the shared
    backtracking ascent.  Every H is feasible, so the value at the best iterate
    never exceeds the true measured relative entropy.
    """
    if rho.modes != sigma.modes or rho.cutoff != sigma.cutoff:
        raise UsageError("measured_relative_entropy requires matching shapes")
    if sigma.trace() <= 0.0:
        raise UsageError("sigma must have positive trace")
    delta = 1e-9
    rho_m = rho.entries
    sig_m = sigma.entries
    eye = np.eye(rho_m.shape[0])

    def log_reg(mat):
        evals, vecs = np.linalg.eigh(mat)
        evals = np.maximum(evals, delta)
        return (vecs * np.log(evals)) @ vecs.conj().T

    h = log_reg(rho_m + delta * eye) - log_reg(sig_m + delta * eye)
    h = 0.5 * (h + h.conj().T)

    def evaluate(h_mat):
        expm_h, evals, vecs = exp_hermitian(h_mat)
        tr_sig = max(float(np.real(np.trace(sig_m @ expm_h))), 1e-300)
        lin = float(np.real(np.trace(rho_m @ h_mat)))
        return LOG2E * (lin - math.log(tr_sig)), (tr_sig, evals, vecs)

    def gradient(h_mat, aux):
        tr_sig, evals, vecs = aux
        return LOG2E * (rho_m - exp_frechet_gradient(evals, vecs, sig_m) / tr_sig)

    _, best_bits, _, report = ascend(evaluate, gradient, h, 600, 1e-10)
    return best_bits, report


def husimi_q(rho: DensityOperator, alpha) -> float:
    """Husimi function pi^(-m) <alpha|rho|alpha> with truncated coherent vectors."""
    alphas = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if alphas.size != rho.modes:
        raise UsageError(f"need {rho.modes} coherent amplitudes, got {alphas.size}")
    vec = np.array([1.0 + 0j])
    for a in alphas:
        v, _ = coherent_vector(a, rho.cutoff)
        vec = np.kron(vec, v)
    val = float(np.real(np.vdot(vec, rho.entries @ vec)))
    return max(val, 0.0) / math.pi**rho.modes


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Polar quadrature for single-mode phase-space integrals.

    Radial direction uses Gauss-Laguerre nodes in t = |alpha|^2; the angular
    direction is a uniform trapezoid (exact for trigonometric polynomials up to
    the node count). ``tail_bits`` is a certified bound on the entropy mass of
    any state of energy <= the grid's design energy beyond radius R.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int
    outer_radius: float
    tail_bits: float

    def __post_init__(self):
        if self.radial_nodes.size < 8 or self.angular_count < 8:
            raise UsageError("quadrature grid needs at least 8 nodes per direction")
        if self.tail_bits < 0:
            raise UsageError("tail bound must be nonnegative")
        for name in ("radial_nodes", "radial_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def phase_space_tail_bits(energy: float, radius_sq: float, modes: int = 1) -> float:
    """Entropy-tail certificate for mass beyond |alpha|^2 = radius_sq.

    The Husimi second moment of an energy-E state is E + m, so Markov bounds
    the tail mass by mu = (E+m)/R^2; a Gaussian maximum-entropy argument then
    bounds the tail of -integral Q log2(pi^m Q) by mu*log2(e*(E+m)/mu^2).
    """
    second_moment = energy + modes
    mu = min(second_moment / radius_sq, 0.25)
    if mu <= 0.0:
        return 0.0
    return mu * math.log2(math.e * second_moment / mu**2)


def default_quadrature_grid(energy: float, cutoff: int) -> QuadratureGrid:
    """Grid for states of energy <= ``energy``: 64 Gauss-Laguerre radial nodes and
    max(128, 2*cutoff) angular nodes, enough to resolve Fock phases up to the cutoff."""
    nodes, weights = laggauss(64)
    angular = max(128, 2 * cutoff)
    r_sq = float(nodes[-1])
    tail = phase_space_tail_bits(energy, r_sq)
    return QuadratureGrid(nodes, weights, angular, math.sqrt(r_sq), tail)


class WehrlEstimate(NamedTuple):
    bits: float
    tail_bits: float


def _husimi_on_grid(rho: DensityOperator, grid: QuadratureGrid) -> np.ndarray:
    """Q(sqrt(t) e^(i theta)) for all radial nodes t and angular nodes theta."""
    d = rho.cutoff
    t = grid.radial_nodes
    theta = 2.0 * math.pi * np.arange(grid.angular_count) / grid.angular_count
    k = np.arange(d)
    log_mag = (0.5 * (k[None, :] * np.log(np.maximum(t[:, None], 1e-300)))
               - 0.5 * log_factorials(d)[None, :])
    radial = np.exp(log_mag - 0.5 * t[:, None])  # |alpha|^k/sqrt(k!) * e^(-t/2)
    phases = np.exp(1j * np.outer(theta, k))
    vecs = radial[:, None, :] * phases[None, :, :]  # (t, theta, k)
    flat = vecs.reshape(-1, d)
    q = np.real(np.einsum("ik,kl,il->i", flat.conj(), rho.entries, flat))
    return np.clip(q.reshape(t.size, theta.size), 0.0, None) / math.pi


def wehrl_entropy(rho: DensityOperator, grid: QuadratureGrid | None = None) -> WehrlEstimate:
    """-integral Q log2(pi Q) by Gauss-Laguerre x trapezoid, plus the tail bound.

    Single mode only. The grid must satisfy R^2 >= 4*(energy+1).
    """
    if rho.modes != 1:
        raise UsageError("wehrl_entropy supports single-mode states")
    if grid is None:
        grid = default_quadrature_grid(rho.energy, rho.cutoff)
    required = 2.0 * math.sqrt(rho.energy + 1.0)
    if grid.outer_radius**2 < required**2:
        raise UsageError(
            f"grid outer radius {grid.outer_radius:.3f} too small; need R >= {required:.3f}"
        )
    q = _husimi_on_grid(rho, grid)
    pi_q = np.clip(math.pi * q, 1e-300, None)
    integrand = -q * np.log2(pi_q)  # nonnegative since pi*Q <= 1
    # d^2alpha = (1/2) dt dtheta; Gauss-Laguerre supplies e^(-t), so weight by e^(t).
    t = grid.radial_nodes
    radial_sum = grid.radial_weights * np.exp(np.minimum(t, 700))
    angular_mean = integrand.mean(axis=1) * (2.0 * math.pi)
    value = 0.5 * float(np.dot(radial_sum, angular_mean))
    return WehrlEstimate(value, grid.tail_bits)
