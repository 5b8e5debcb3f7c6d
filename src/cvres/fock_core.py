"""Truncated Fock-space linear algebra.

Conventions used throughout the package:

- An m-mode operator lives on the d^m dimensional truncated space with per-mode
  Fock levels 0..d-1.
- Multi-indices are flattened row-major over modes with the Fock index of the
  LAST mode varying fastest, i.e. |k_1,...,k_m> sits at k_1*d^(m-1)+...+k_m.
  Tensor products therefore put the left factor's modes first (plain np.kron).
- Mode indices in user-facing operations are 1-based, matching |k_1,...,k_m>.
- All objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import ConfigurationError, InsufficientCutoffError, UsageError

if TYPE_CHECKING:
    from .states import StateSpec

HERMITICITY_TOL = 1e-12
PSD_EIGENVALUE_TOL = -1e-10


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense operator on the truncated m-mode Fock space."""

    modes: int
    cutoff: int
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 1:
            raise UsageError("modes and cutoff must be positive")
        dim = self.cutoff**self.modes
        entries = _as_readonly(self.entries)
        if entries.shape != (dim, dim):
            raise UsageError(
                f"entries must be {dim}x{dim} for modes={self.modes}, cutoff={self.cutoff}, "
                f"got {entries.shape}"
            )
        if self.hermitian:
            dev = np.max(np.abs(entries - entries.conj().T))
            if dev > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(entries)))):
                raise UsageError(f"operator flagged hermitian deviates by {dev:.3e}")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes


def total_photon_numbers(modes: int, cutoff: int) -> np.ndarray:
    """k_1+...+k_m for every flattened multi-index, in index order."""
    idx = np.unravel_index(np.arange(cutoff**modes), (cutoff,) * modes)
    return np.sum(np.stack(idx), axis=0)


@dataclass(frozen=True)
class DensityOperator:
    """A (possibly subnormalized) state on the truncated space.

    ``trace_deficit`` is the mass lost to the cutoff: constructors keep the
    honest subnormalized matrix rather than renormalizing, so certificates can
    consume the deficit directly.  ``energy`` is the mean photon number of the
    truncated matrix.  ``spec`` is the ``StateSpec`` the state was built from:
    only ``states.make_state`` sets it, so every derived state carries None.
    """

    op: TruncatedOperator
    trace_deficit: float
    energy: float
    fock_diagonal: bool = field(default=False)
    spec: StateSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.trace_deficit < 1.0):
            raise UsageError(f"trace deficit {self.trace_deficit} outside [0, 1)")
        if self.energy < -1e-12:
            raise UsageError("energy must be nonnegative")

    @classmethod
    def from_matrix(
        cls,
        entries: np.ndarray,
        modes: int,
        cutoff: int,
        *,
        validate: bool = True,
    ) -> "DensityOperator":
        op = TruncatedOperator(modes, cutoff, entries, hermitian=True)
        diag = np.real(np.diagonal(op.entries))
        trace = float(np.sum(diag))
        if validate:
            evals = np.linalg.eigvalsh(op.entries)
            if evals[0] < PSD_EIGENVALUE_TOL:
                raise UsageError(f"matrix not positive semidefinite (min eig {evals[0]:.3e})")
            if not (0.0 < trace <= 1.0 + 1e-10):
                raise UsageError(f"trace {trace} outside (0, 1]")
        numbers = total_photon_numbers(modes, cutoff)
        energy = float(np.dot(numbers, diag))
        deficit = min(max(0.0, 1.0 - trace), 1.0 - 1e-300)
        off = op.entries - np.diag(np.diagonal(op.entries))
        diagonal = bool(np.max(np.abs(off)) <= 1e-14)
        return cls(op, deficit, energy, fock_diagonal=diagonal)

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def modes(self) -> int:
        return self.op.modes

    @property
    def cutoff(self) -> int:
        return self.op.cutoff

    @property
    def dim(self) -> int:
        return self.op.dim

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def diagonal(self) -> np.ndarray:
        return np.real(np.diagonal(self.entries)).copy()

    def purity(self) -> float:
        return float(np.real(np.vdot(self.entries, self.entries)))

    def renormalized(self) -> "DensityOperator":
        """The unit-trace state; the state itself when nothing was lost to the cutoff."""
        if self.trace_deficit == 0.0:
            return self
        tr = self.trace()
        return DensityOperator(
            TruncatedOperator(self.modes, self.cutoff, self.entries / tr, hermitian=True),
            0.0,
            self.energy / tr,
            fock_diagonal=self.fock_diagonal,
        )


def tensor_product(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """Kronecker composition with ``a``'s modes first."""
    if a.cutoff != b.cutoff:
        raise ConfigurationError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    return TruncatedOperator(
        a.modes + b.modes,
        a.cutoff,
        np.kron(a.entries, b.entries),
        hermitian=a.hermitian and b.hermitian,
    )


def tensor_states(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    op = tensor_product(a.op, b.op)
    tr_a, tr_b = a.trace(), b.trace()
    deficit = max(0.0, 1.0 - tr_a * tr_b)
    energy = a.energy * tr_b + b.energy * tr_a
    return DensityOperator(op, deficit, energy, fock_diagonal=a.fock_diagonal and b.fock_diagonal)


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out every mode not in ``keep`` (1-based mode indices)."""
    keep_set = sorted(set(int(k) for k in keep))
    if not keep_set:
        raise UsageError("keep set must be nonempty")
    if keep_set[0] < 1 or keep_set[-1] > rho.modes:
        raise UsageError(f"mode indices must lie in 1..{rho.modes}")
    m, d = rho.modes, rho.cutoff
    keep0 = [k - 1 for k in keep_set]
    drop0 = [j for j in range(m) if j not in keep0]
    t = rho.entries.reshape((d,) * (2 * m))
    for j in sorted(drop0, reverse=True):
        t = np.trace(t, axis1=j, axis2=j + (t.ndim // 2))
    dim = d ** len(keep0)
    return DensityOperator.from_matrix(t.reshape(dim, dim), len(keep0), d, validate=False)


def coherent_vector(alpha: complex, cutoff: int) -> tuple[np.ndarray, float]:
    """Truncated coherent amplitudes e^(-|a|^2/2) a^k / sqrt(k!) and the norm deficit."""
    if cutoff < 1:
        raise UsageError("cutoff must be >= 1")
    k = np.arange(cutoff)
    a = complex(alpha)
    mag = abs(a)
    if mag == 0.0:
        vec = np.zeros(cutoff, dtype=complex)
        vec[0] = 1.0
        return vec, 0.0
    if mag >= 1e154:  # mag**2 overflows, and every amplitude on levels < cutoff is 0
        return np.zeros(cutoff, dtype=complex), 1.0
    log_mag = -0.5 * mag**2 + k * math.log(mag) - 0.5 * gammaln(k + 1)
    phase = np.exp(1j * k * np.angle(a))
    vec = np.exp(log_mag) * phase
    deficit = max(0.0, 1.0 - float(np.sum(np.abs(vec) ** 2)))
    return vec, deficit


def vacuum_state(modes: int, cutoff: int) -> DensityOperator:
    dim = cutoff**modes
    ent = np.zeros((dim, dim), dtype=complex)
    ent[0, 0] = 1.0
    return DensityOperator.from_matrix(ent, modes, cutoff, validate=False)


def fock_state(n: int, cutoff: int) -> DensityOperator:
    if n < 0:
        raise UsageError("Fock level must be nonnegative")
    if n >= cutoff:
        raise InsufficientCutoffError(
            f"fock({n}) needs cutoff >= {n + 1}, got {cutoff}", required_cutoff=n + 1
        )
    ent = np.zeros((cutoff, cutoff), dtype=complex)
    ent[n, n] = 1.0
    return DensityOperator.from_matrix(ent, 1, cutoff, validate=False)


def pure_state(vec: np.ndarray, modes: int, cutoff: int) -> DensityOperator:
    vec = np.asarray(vec, dtype=complex)
    return DensityOperator.from_matrix(np.outer(vec, vec.conj()), modes, cutoff, validate=False)


def beam_splitter_unitary(lam: float, cutoff: int) -> TruncatedOperator:
    """Two-mode beam splitter of transmissivity ``lam``.

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
            w, v = eigh_tridiagonal(np.zeros(size), off)
            phase = (1j) ** np.arange(size)
            expm = (v * np.exp(-1j * w)) @ v.T
            block = np.real(np.conj(phase)[:, None] * expm * phase[None, :])
        u[np.ix_(flat, flat)] = block
    return TruncatedOperator(2, d, u, hermitian=False)


def beam_splitter_fock_column(n: int, lam: float) -> np.ndarray:
    """Closed-form image of |n,0> under the beam splitter, as amplitudes over l.

    Returns c_l with U|n,0> = sum_l c_l |n-l, l>.
    """
    ells = np.arange(n + 1)
    log_binom = gammaln(n + 1) - gammaln(ells + 1) - gammaln(n - ells + 1)
    if lam == 0.0:
        c = np.zeros(n + 1)
        c[n] = (-1.0) ** n
        return c
    amp = 0.5 * (log_binom + ells * math.log((1 - lam) / lam)) + 0.5 * n * math.log(lam)
    return ((-1.0) ** ells) * np.exp(amp)


def dephase(rho: DensityOperator) -> DensityOperator:
    """Zero the off-diagonal Fock entries; trace and diagonal are untouched."""
    ent = np.diag(np.diagonal(rho.entries)).astype(complex)
    op = TruncatedOperator(rho.modes, rho.cutoff, ent, hermitian=True)
    return DensityOperator(op, rho.trace_deficit, rho.energy, fock_diagonal=True)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace norm ||rho - sigma||_1 (sum of absolute eigenvalues)."""
    if rho.modes != sigma.modes or rho.cutoff != sigma.cutoff:
        raise UsageError("trace_distance requires matching modes and cutoff")
    evals = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(np.sum(np.abs(evals)))
