"""Reference constructions that the package itself no longer needs, kept as test oracles.

Besides the dense and sampled cross-checks, this holds the functionals that only
tests read: the support-checked relative entropy and classical KL, the state
tensor product and trace distance, the Husimi function at a point, and the
Gauss-Laguerre Wehrl quadrature with the uncertified Wehrl upper estimate built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.optimize import minimize_scalar

from cvres._envelope import _envelope_at, _envelope_grid, _envelope_terms, _peak_polisher
from cvres.entropies import von_neumann_entropy
from cvres.errors import ConfigurationError, UsageError
from cvres.fock_core import (DensityOperator, beam_splitter_fock_column, coherent_vector,
                             log_factorials)
from cvres.nonclassicality import MonotoneBound, _certified

_ZERO_BIN = 1e-15
SUPPORT_TOL = 1e-10  # weight of rho outside the support of sigma that makes D(rho||sigma) infinite


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
    c = beam_splitter_fock_column(n, lam)  # l ancilla counts with probability c_l^2
    p0_fock, p1_fock = float(c[0] ** 2), float(c[1] ** 2)
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


def tensor_states(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker composition with ``a``'s modes first."""
    if a.cutoff != b.cutoff:
        raise ConfigurationError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    tr_a, tr_b = a.trace(), b.trace()
    deficit = max(0.0, 1.0 - tr_a * tr_b)
    energy = a.energy * tr_b + b.energy * tr_a
    return DensityOperator(a.modes + b.modes, a.cutoff, np.kron(a.entries, b.entries), deficit,
                           energy, fock_diagonal=a.fock_diagonal and b.fock_diagonal)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace norm ||rho - sigma||_1 (sum of absolute eigenvalues)."""
    if rho.modes != sigma.modes or rho.cutoff != sigma.cutoff:
        raise UsageError("trace_distance requires matching modes and cutoff")
    evals = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(np.sum(np.abs(evals)))


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
