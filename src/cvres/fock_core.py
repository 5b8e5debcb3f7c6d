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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ConfigurationError, InsufficientCutoffError, UsageError

if TYPE_CHECKING:
    from .states import StateSpec

HERMITICITY_TOL = 1e-12
PSD_EIGENVALUE_TOL = -1e-10


_LOG_FACTORIALS = np.zeros(1)


def log_factorials(size: int) -> np.ndarray:
    """ln k! for 0 <= k < size, from math.lgamma.

    A read-only view of one cached table, regrown to twice the size asked for
    whenever a larger one is needed, since callers share it.
    """
    global _LOG_FACTORIALS
    if size > _LOG_FACTORIALS.size:
        table = np.array([math.lgamma(k + 1.0) for k in range(2 * size)])
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return _LOG_FACTORIALS[:size]


def total_photon_numbers(modes: int, cutoff: int) -> np.ndarray:
    """k_1+...+k_m for every flattened multi-index, in index order."""
    idx = np.unravel_index(np.arange(cutoff**modes), (cutoff,) * modes)
    return np.sum(np.stack(idx), axis=0)


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: states compare by identity
class DensityOperator:
    """A (possibly subnormalized) state on the truncated m-mode space.

    ``entries`` is the read-only d^m x d^m matrix: one the caller can still write
    to is copied, one that is already read-only (another state's) is shared.
    ``trace_deficit`` is the mass lost to the cutoff: constructors keep the
    honest subnormalized matrix rather than renormalizing, so certificates can
    consume the deficit directly.  ``energy`` is the mean photon number of the
    truncated matrix.  ``spec`` is the ``StateSpec`` the state was built from:
    only ``states.make_state`` sets it, so every derived state carries None.
    Outside matrices enter through ``from_matrix``, which checks hermiticity;
    matrices hermitian by construction (|psi><psi|, a family's diagonal) enter
    through ``from_hermitian``, and the states derived from either (renormalized,
    dephased, tensor products) are built directly.
    """

    modes: int
    cutoff: int
    entries: np.ndarray
    trace_deficit: float
    energy: float
    fock_diagonal: bool = False
    spec: StateSpec | None = None

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 1:
            raise UsageError("modes and cutoff must be positive")
        dim = self.cutoff**self.modes
        entries = np.asarray(self.entries, dtype=complex)
        if entries.flags.writeable:
            entries = np.array(entries, order="C")
            entries.setflags(write=False)
        if entries.shape != (dim, dim):
            raise UsageError(
                f"entries must be {dim}x{dim} for modes={self.modes}, cutoff={self.cutoff}, "
                f"got {entries.shape}"
            )
        if not (0.0 <= self.trace_deficit < 1.0):
            raise UsageError(f"trace deficit {self.trace_deficit} outside [0, 1)")
        if self.energy < -1e-12:
            raise UsageError("energy must be nonnegative")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_matrix(cls, entries: np.ndarray, modes: int, cutoff: int) -> "DensityOperator":
        ent = cls(modes, cutoff, entries, 0.0, 0.0).entries
        dev = np.max(np.abs(ent - ent.conj().T))
        if dev > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(ent)))):
            raise UsageError(f"matrix deviates from hermitian by {dev:.3e}")
        evals = np.linalg.eigvalsh(ent)
        if evals[0] < PSD_EIGENVALUE_TOL:
            raise UsageError(f"matrix not positive semidefinite (min eig {evals[0]:.3e})")
        trace = float(np.sum(np.real(np.diagonal(ent))))
        if not (0.0 < trace <= 1.0 + 1e-10):
            raise UsageError(f"trace {trace} outside (0, 1]")
        return cls.from_hermitian(ent, modes, cutoff)

    @classmethod
    def from_hermitian(
        cls,
        entries: np.ndarray,
        modes: int,
        cutoff: int,
        *,
        spec: StateSpec | None = None,
    ) -> "DensityOperator":
        """The state of a matrix that is hermitian by construction, with no check of it:
        the trace deficit, energy and Fock-diagonal flag are read off the matrix."""
        ent = cls(modes, cutoff, entries, 0.0, 0.0).entries
        diag = np.real(np.diagonal(ent))
        trace = float(np.sum(diag))
        numbers = total_photon_numbers(modes, cutoff)
        energy = float(np.dot(numbers, diag))
        deficit = min(max(0.0, 1.0 - trace), 1.0 - 1e-300)
        off = np.abs(ent)
        np.fill_diagonal(off, 0.0)
        diagonal = bool(np.max(off) <= 1e-14)
        return cls(modes, cutoff, ent, deficit, energy, fock_diagonal=diagonal, spec=spec)

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
        return DensityOperator(self.modes, self.cutoff, self.entries / tr, 0.0, self.energy / tr,
                               fock_diagonal=self.fock_diagonal)


def tensor_states(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker composition with ``a``'s modes first."""
    if a.cutoff != b.cutoff:
        raise ConfigurationError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    tr_a, tr_b = a.trace(), b.trace()
    deficit = max(0.0, 1.0 - tr_a * tr_b)
    energy = a.energy * tr_b + b.energy * tr_a
    return DensityOperator(a.modes + b.modes, a.cutoff, np.kron(a.entries, b.entries), deficit,
                           energy, fock_diagonal=a.fock_diagonal and b.fock_diagonal)


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
    return DensityOperator.from_hermitian(t.reshape(dim, dim), len(keep0), d)


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
    log_mag = -0.5 * mag**2 + k * math.log(mag) - 0.5 * log_factorials(cutoff)
    phase = np.exp(1j * k * np.angle(a))
    vec = np.exp(log_mag) * phase
    deficit = max(0.0, 1.0 - float(np.sum(np.abs(vec) ** 2)))
    return vec, deficit


def displacement_columns(gamma: complex, rows: int, cols: int) -> np.ndarray:
    """<m|D(gamma)|k> for m < rows and k < cols <= rows, from the closed form.

    With x = |gamma|^2, <k+a|D|k> = e^(ia arg gamma) h_k^a and <m|D|m+a> =
    (-1)^a e^(-ia arg gamma) h_m^a, where h_k^a = e^(-x/2) sqrt(k!/(k+a)!) |gamma|^a
    L_k^a(x) starts from the coherent amplitudes h_0^a and obeys the normalised
    Laguerre recurrence sqrt((k+1)(k+1+a)) h_(k+1) = (2k+1+a-x) h_k - sqrt(k(k+a)) h_(k-1).
    Its terms are matrix elements of a unitary, so they stay in [-1, 1]; it
    matches a 60-digit evaluation to 4e-15 up to |gamma| = 5 and 40 columns.
    The ladder (a^dag - conj(gamma))^k |gamma>/sqrt(k!) amplifies rounding
    instead: it is 4e-10 off at |gamma| = 1.5 and 4e-4 off at |gamma| = 3 there.
    """
    x = abs(gamma) ** 2
    a = np.arange(rows, dtype=float)
    h = np.empty((cols, rows))
    h[0] = np.real(coherent_vector(abs(gamma), rows)[0])
    if cols > 1:
        h[1] = h[0] * (1.0 + a - x) / np.sqrt(1.0 + a)
    for k in range(1, cols - 1):
        h[k + 1] = (((2 * k + 1) + a - x) * h[k] - np.sqrt(k * (k + a)) * h[k - 1]) / np.sqrt(
            (k + 1) * (k + 1 + a))
    m, k = np.arange(rows)[:, None], np.arange(cols)[None, :]
    diff = m - k
    sign = np.where((diff < 0) & (diff % 2 == 1), -1.0, 1.0)
    return sign * h[np.minimum(m, k), np.abs(diff)] * np.exp(1j * np.angle(gamma) * diff)


def vacuum_state(modes: int, cutoff: int) -> DensityOperator:
    dim = cutoff**modes
    ent = np.zeros((dim, dim), dtype=complex)
    ent[0, 0] = 1.0
    return DensityOperator.from_hermitian(ent, modes, cutoff)


def fock_state(n: int, cutoff: int) -> DensityOperator:
    if n < 0:
        raise UsageError("Fock level must be nonnegative")
    if n >= cutoff:
        raise InsufficientCutoffError(
            f"fock({n}) needs cutoff >= {n + 1}, got {cutoff}", required_cutoff=n + 1
        )
    ent = np.zeros((cutoff, cutoff), dtype=complex)
    ent[n, n] = 1.0
    return DensityOperator.from_hermitian(ent, 1, cutoff)


def pure_state(vec: np.ndarray, modes: int, cutoff: int) -> DensityOperator:
    vec = np.asarray(vec, dtype=complex)
    return DensityOperator.from_hermitian(np.outer(vec, vec.conj()), modes, cutoff)


def beam_splitter_fock_column(n: int, lam: float) -> np.ndarray:
    """Closed-form image of |n,0> under the beam splitter, as amplitudes over l.

    Returns c_l with U|n,0> = sum_l c_l |n-l, l>.
    """
    ells = np.arange(n + 1)
    log_fact = log_factorials(n + 1)
    log_binom = log_fact[n] - log_fact - log_fact[::-1]
    if lam == 0.0:
        c = np.zeros(n + 1)
        c[n] = (-1.0) ** n
        return c
    amp = 0.5 * (log_binom + ells * math.log((1 - lam) / lam)) + 0.5 * n * math.log(lam)
    return ((-1.0) ** ells) * np.exp(amp)


def dephase(rho: DensityOperator) -> DensityOperator:
    """Zero the off-diagonal Fock entries; trace and diagonal are untouched."""
    return DensityOperator(rho.modes, rho.cutoff, np.diag(np.diagonal(rho.entries)),
                           rho.trace_deficit, rho.energy, fock_diagonal=True)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace norm ||rho - sigma||_1 (sum of absolute eigenvalues)."""
    if rho.modes != sigma.modes or rho.cutoff != sigma.cutoff:
        raise UsageError("trace_distance requires matching modes and cutoff")
    evals = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(np.sum(np.abs(evals)))
