"""Entropic functionals on truncated states.

All reported values are in bits; natural logs are used internally where
convenient. The measured relative entropy is computed by gradient ascent over
L = exp(H): every iterate is feasible in the variational program, so the
returned value is always a valid lower bound on the true quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .fock_core import DensityOperator

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)


def entropy_of_probabilities(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(A) = -Tr[A log2 A] via the eigenvalues, with 0 log 0 = 0."""
    evals = np.linalg.eigvalsh(rho.entries)
    return entropy_of_probabilities(np.clip(evals, 0.0, None))


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
