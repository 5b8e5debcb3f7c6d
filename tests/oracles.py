"""Reference constructions that the package itself no longer needs, kept as test oracles."""

import math

import numpy as np

from cvres.errors import UsageError
from cvres.fock_core import TruncatedOperator


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
            w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            phase = (1j) ** np.arange(size)
            expm = (v * np.exp(-1j * w)) @ v.T
            block = np.real(np.conj(phase)[:, None] * expm * phase[None, :])
        u[np.ix_(flat, flat)] = block
    return TruncatedOperator(2, d, u, hermitian=False)
