"""Reference constructions that the package itself no longer needs, kept as test oracles."""

import math

import numpy as np

from cvres.entropies import QuadratureGrid, _husimi_on_grid, default_quadrature_grid
from cvres.errors import UsageError
from cvres.fock_core import DensityOperator
from cvres.rates import _one_round_branches


def beam_splitter_unitary(lam: float, cutoff: int) -> np.ndarray:
    """Two-mode beam splitter of transmissivity ``lam``, as a d^2 x d^2 matrix.

    Built per total-photon-number block by exponentiating the tridiagonal
    generator arccos(sqrt(lam)) * (a^dag b - a b^dag); blocks reaching past the
    cutoff use the self-adjoint restriction, so the assembled matrix is unitary
    on the whole truncated two-mode space and exactly photon-number conserving.
    """
    if not (0.0 <= lam <= 1.0):
        raise UsageError(f"transmissivity must lie in [0, 1], got {lam}")
    d = cutoff
    theta = math.acos(math.sqrt(lam))
    u = np.zeros((d * d, d * d), dtype=complex)
    for n in range(2 * d - 1):
        lo, hi = max(0, n - d + 1), min(n, d - 1)
        ells = np.arange(lo, hi + 1)
        size = ells.size
        flat = (n - ells) * d + ells
        if size == 1:
            u[flat[0], flat[0]] = 1.0
            continue
        # Real antisymmetric tridiagonal T with T[i, i+1] = theta*sqrt((l+1)(n-l));
        # diag(i^p) similarity turns exp(T) into exp(-iM) for symmetric M.
        off = theta * np.sqrt((ells[:-1] + 1.0) * (n - ells[:-1]))
        if theta == 0.0:
            block = np.eye(size)
        else:
            w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            phase = (1j) ** np.arange(size)
            expm = (v * np.exp(-1j * w)) @ v.T
            block = np.real(np.conj(phase)[:, None] * expm * phase[None, :])
        u[np.ix_(flat, flat)] = block
    return u


def fock_dilution_monte_carlo(n: int, p: float, lam: float, shots: int, seed: int = 0) -> float:
    """Sampled success frequency; exists only to cross-check the exact path.

    Each shot draws |n> with probability p, else vacuum, which never heralds;
    |n> then runs count rounds until one count (success) or more (failure).
    """
    p0_fock, p1_fock, _ = _one_round_branches(n, lam)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(shots):
        if rng.random() >= p:
            continue
        for _ in range(10_000):
            r = rng.random()
            if r < p1_fock:
                hits += 1
                break
            if r >= p1_fock + p0_fock:
                break
    return hits / shots


def husimi_kl_on_grid(
    rho: DensityOperator, sigma: DensityOperator, grid: QuadratureGrid | None = None
) -> float:
    """Grid value of the classical KL between the two Husimi functions, in bits."""
    if rho.modes != 1 or sigma.modes != 1:
        raise UsageError("husimi_kl_on_grid supports single-mode states")
    if grid is None:
        grid = default_quadrature_grid(max(rho.energy, sigma.energy), rho.cutoff)
    q_r = np.clip(_husimi_on_grid(rho, grid), 1e-300, None)
    q_s = np.clip(_husimi_on_grid(sigma, grid), 1e-300, None)
    integrand = q_r * (np.log2(q_r) - np.log2(q_s))
    t = grid.radial_nodes
    radial_sum = grid.radial_weights * np.exp(np.minimum(t, 700))
    angular_mean = integrand.mean(axis=1) * (2.0 * math.pi)
    return 0.5 * float(np.dot(radial_sum, angular_mean))
