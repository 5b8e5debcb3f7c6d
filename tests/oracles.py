"""Reference constructions that the package itself no longer needs, kept as test oracles."""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from cvres._envelope import _envelope_at, _envelope_grid, _envelope_terms, _peak_polisher
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


def envelope_max(entries) -> float:
    """Uncertified max over t of min(F(t), cap): the value ``coherent_sup_certified`` bounds.

    F and the cap are those of the certified supremum, whose value is never below
    this one.  F is sampled on ``_envelope_grid``; the largest of the maxima that
    its ``_peak_polisher`` returns and F(0) = W_0 is its peak.
    """
    cap, ln_w, powers = _envelope_terms(entries)
    if not ln_w.size or cap == 0.0:
        return 0.0
    grid = _envelope_grid(powers)
    fs = _peak_polisher(powers, grid)(ln_w, _envelope_at(ln_w, powers, grid))[1]
    f_0 = math.exp(ln_w[0]) if powers[0] == 0.0 else 0.0  # F(0) = W_0
    return min(max(float(fs.max()), f_0), cap)


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


def classical_gaussian_scan(rho: DensityOperator, s_max: float = 4.0, points: int = 40_001) -> float:
    """Raw min over s of the classical Gaussian ansatz's D(rho || sigma_s), in bits.

    sigma_s = D(beta) S(s) tau_N S(s)^+ D(beta)^+ at its best classical N = max(E_s, n_s),
    so D(s) = log2(1+N) - E_s log2(N/(1+N)) - S(rho).  The moments and the entropy are
    read off the renormalised matrix by dense products and eigvalsh; D is scanned on
    ``points`` squeezings in [0, s_max], and the best point is refined by bounded Brent
    between its neighbours to 1e-14 in s.
    """
    ent = rho.renormalized().entries
    lower = np.diag(np.sqrt(np.arange(1.0, rho.cutoff)), 1)
    beta = np.trace(ent @ lower)
    n_c = max(float(np.real(np.trace(ent @ lower.T @ lower))) - abs(beta) ** 2, 0.0)
    m = abs(np.trace(ent @ lower @ lower) - beta**2)
    evals = np.linalg.eigvalsh(ent)
    evals = evals[evals > 0.0]
    entropy = -float(np.sum(evals * np.log2(evals)))

    def divergence(s):
        s = np.asarray(s, dtype=float)
        n_s = 0.5 * np.expm1(2.0 * s)
        frame = np.cosh(2.0 * s) * n_c + np.sinh(s) ** 2 - np.sinh(2.0 * s) * m
        n = np.maximum(frame, n_s)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.log2(1.0 + n) - frame * np.log2(n / (1.0 + n))
        return np.where(n > 0.0, value, 0.0) - entropy  # N = E_s = 0 is the vacuum

    grid = np.linspace(0.0, s_max, points)
    values = divergence(grid)
    i = int(np.argmin(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
    fine = minimize_scalar(lambda s: float(divergence(s)), bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-14})
    return min(float(values[i]), float(fine.fun))
