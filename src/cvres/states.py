"""Constructors for the state families used throughout the package.

Families and their parameters (also the JSON field names):

- ``fock``: n
- ``coherent``: alpha (real or [re, im])
- ``thermal``: nu (mean photon number)
- ``noisy_fock``: n, nu, p  (p*|n><n| + (1-p)*thermal(nu))
- ``cat``: alpha (real), sign ("+" or "-")
- ``squeezed``: r
- ``basel``: n_max  (diagonal weights 6/pi^2/(n+1)^2 on |2^n>, stored sparsely)

Construction normalizes before truncating and keeps the subnormalized matrix;
the lost mass is recorded in ``trace_deficit``; ``.renormalized()`` gives a
unit-trace object instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.special import gammaln

from .errors import InsufficientCutoffError, UsageError
from .fock_core import DensityOperator, coherent_vector, fock_state, pure_state

GAUSSIAN_FAMILIES = ("coherent", "thermal", "squeezed")
_FAMILIES = ("fock", "coherent", "thermal", "noisy_fock", "cat", "squeezed", "basel")


@dataclass(frozen=True)
class StateSpec:
    family: str
    params: dict
    cutoff: int
    modes: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UsageError(f"unknown family {self.family!r}, expected one of {_FAMILIES}")
        if self.cutoff < 1:
            raise UsageError("cutoff must be a positive integer")
        _validate_params(self.family, self.params)

    def to_json(self) -> str:
        return json.dumps({"family": self.family, "params": self.params, "cutoff": self.cutoff})

    @classmethod
    def from_json(cls, text: str) -> "StateSpec":
        doc = json.loads(text)
        missing = {"family", "params", "cutoff"} - set(doc)
        if missing:
            raise UsageError(f"state spec missing fields: {sorted(missing)}")
        return cls(doc["family"], dict(doc["params"]), int(doc["cutoff"]), int(doc.get("modes", 1)))


def _validate_params(family: str, params: dict) -> None:
    def need(*names):
        missing = [n for n in names if n not in params]
        if missing:
            raise UsageError(f"{family} spec missing parameter(s): {missing}")

    if family == "fock":
        need("n")
        if int(params["n"]) < 0:
            raise UsageError("fock n must be >= 0")
    elif family == "coherent":
        need("alpha")
    elif family == "thermal":
        need("nu")
        if params["nu"] < 0:
            raise UsageError("thermal nu must be >= 0")
    elif family == "noisy_fock":
        need("n", "nu", "p")
        if not (0.0 <= params["p"] <= 1.0):
            raise UsageError("noisy_fock p must lie in [0, 1]")
        if params["nu"] < 0:
            raise UsageError("noisy_fock nu must be >= 0")
    elif family == "cat":
        need("alpha", "sign")
        if params["sign"] not in ("+", "-"):
            raise UsageError('cat sign must be "+" or "-"')
    elif family == "squeezed":
        need("r")
        if not math.isfinite(params["r"]):
            raise UsageError("squeezed r must be finite")
    elif family == "basel":
        need("n_max")
        if int(params["n_max"]) < 0:
            raise UsageError("basel n_max must be >= 0")


def _parse_alpha(value: Any) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


@dataclass(frozen=True)
class FockDiagonalState:
    """Sparse diagonal state: weight[i] on Fock level index[i] (single mode).

    Used for the basel family, whose support reaches Fock index 2^n_max and
    must never be materialized densely.
    """

    indices: tuple
    weights: np.ndarray
    trace_deficit: float
    modes: int = 1
    fock_diagonal = True  # not a field: the sparse form holds diagonal states only

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if np.any(w < -1e-15):
            raise UsageError("diagonal weights must be nonnegative")

    @property
    def energy(self) -> float:
        return float(sum(float(k) * w for k, w in zip(self.indices, self.weights)))

    def trace(self) -> float:
        return float(np.sum(self.weights))


def thermal_weights(nu: float, cutoff: int) -> np.ndarray:
    if nu == 0.0:
        w = np.zeros(cutoff)
        w[0] = 1.0
        return w
    k = np.arange(cutoff)
    ratio = nu / (1.0 + nu)
    return np.exp(math.log(1.0 / (1.0 + nu)) + k * math.log(ratio))


def cat_norm(alpha: float, sign: str) -> float:
    """Norm N of |alpha> +- |-alpha>, so the cat is (|alpha> +- |-alpha>) / N."""
    norm_sq = 2.0 * (1.0 + (1.0 if sign == "+" else -1.0) * math.exp(-2.0 * alpha * alpha))
    if norm_sq <= 0.0:
        raise UsageError("odd cat state needs alpha != 0")
    return math.sqrt(norm_sq)


def cat_amplitudes(alpha: float, sign: str, cutoff: int) -> np.ndarray:
    """Normalized-before-truncation cat amplitudes on Fock levels < cutoff."""
    a = float(alpha)
    plus, _ = coherent_vector(a, cutoff)
    minus, _ = coherent_vector(-a, cutoff)
    s = 1.0 if sign == "+" else -1.0
    return np.real(plus + s * minus) / cat_norm(a, sign)


def squeezed_amplitudes(r: float, cutoff: int) -> np.ndarray:
    """Squeezed-vacuum amplitudes (cosh r)^(-1/2) sqrt(C(2n,n)) (-tanh(r)/2)^n on |2n>."""
    amps = np.zeros(cutoff)
    if r == 0.0:
        amps[0] = 1.0
        return amps
    t = math.tanh(r)
    n = np.arange((cutoff + 1) // 2)
    log_mag = (
        -0.5 * math.log(math.cosh(r))
        + 0.5 * (gammaln(2 * n + 1) - 2.0 * gammaln(n + 1))
        + n * math.log(abs(t) / 2.0)
    )
    signs = np.where(n % 2 == 0, 1.0, -1.0) if t > 0 else 1.0
    amps[2 * n] = signs * np.exp(log_mag)
    return amps


def basel_weights(n_max: int) -> tuple[tuple, np.ndarray, float]:
    n = np.arange(n_max + 1)
    w = (6.0 / math.pi**2) / (n + 1.0) ** 2
    indices = tuple(int(2**int(j)) for j in n)
    deficit = max(0.0, 1.0 - float(np.sum(w)))
    return indices, w, deficit


def _required_cutoff(deficit_at, start: int, tol: float, limit: int = 4096) -> int:
    d = start
    while d <= limit:
        if deficit_at(d) <= tol:
            return d
        d = max(d + 1, int(d * 1.5))
    return limit


def make_state(spec: StateSpec, *, deficit_tol: float = 1e-8):
    """Build the state described by ``spec``.

    Returns a DensityOperator for the dense families; basel returns a
    FockDiagonalState since its support reaches Fock index 2^n_max.
    Raises InsufficientCutoffError (naming a workable cutoff) when the
    truncation deficit of a finite-energy family exceeds ``deficit_tol``.
    """
    d = spec.cutoff
    fam = spec.family
    p = spec.params

    if fam == "basel":
        indices, weights, deficit = basel_weights(int(p["n_max"]))
        required = indices[-1] + 1
        if d < required:
            raise InsufficientCutoffError(
                f"basel(n_max={p['n_max']}) needs cutoff >= {required}, got {d}",
                required_cutoff=required,
            )
        return FockDiagonalState(indices, weights, deficit)

    if fam == "fock":
        return fock_state(int(p["n"]), d)

    if fam == "coherent":
        alpha = _parse_alpha(p["alpha"])
        vec, deficit = coherent_vector(alpha, d)
        if deficit > deficit_tol:
            req = _required_cutoff(lambda dd: coherent_vector(alpha, dd)[1], d, deficit_tol)
            raise InsufficientCutoffError(
                f"coherent({alpha}) at cutoff {d} has deficit {deficit:.3e} > {deficit_tol}; "
                f"use cutoff >= {req}",
                required_cutoff=req,
            )
        rho = pure_state(vec, 1, d)
    elif fam == "thermal":
        nu = float(p["nu"])
        w = thermal_weights(nu, d)
        deficit = max(0.0, 1.0 - float(np.sum(w)))
        if deficit > deficit_tol:
            req = _required_cutoff(
                lambda dd: max(0.0, 1.0 - float(np.sum(thermal_weights(nu, dd)))), d, deficit_tol
            )
            raise InsufficientCutoffError(
                f"thermal({nu}) at cutoff {d} has deficit {deficit:.3e} > {deficit_tol}; "
                f"use cutoff >= {req}",
                required_cutoff=req,
            )
        rho = DensityOperator.from_matrix(np.diag(w.astype(complex)), 1, d, validate=False)
    elif fam == "noisy_fock":
        n, nu, prob = int(p["n"]), float(p["nu"]), float(p["p"])
        base = fock_state(n, d).entries * prob
        w = thermal_weights(nu, d)
        ent = base + (1.0 - prob) * np.diag(w.astype(complex))
        rho = DensityOperator.from_matrix(ent, 1, d, validate=False)
        if rho.trace_deficit > deficit_tol:
            # the Fock part fits from d on, so only the thermal part loses mass
            req = _required_cutoff(
                lambda dd: (1.0 - prob) * (1.0 - float(np.sum(thermal_weights(nu, dd)))),
                d,
                deficit_tol,
            )
            raise InsufficientCutoffError(
                f"noisy_fock at cutoff {d} has deficit {rho.trace_deficit:.3e} > {deficit_tol}; "
                f"use cutoff >= {req}",
                required_cutoff=req,
            )
    elif fam == "cat":
        amps = cat_amplitudes(float(p["alpha"]), p["sign"], d)
        rho = pure_state(amps, 1, d)
        if rho.trace_deficit > deficit_tol:
            req = _required_cutoff(
                lambda dd: 1.0 - float(np.sum(cat_amplitudes(float(p["alpha"]), p["sign"], dd) ** 2)),
                d,
                deficit_tol,
            )
            raise InsufficientCutoffError(
                f"cat(alpha={p['alpha']}) at cutoff {d} has deficit {rho.trace_deficit:.3e}; "
                f"use cutoff >= {req}",
                required_cutoff=req,
            )
    elif fam == "squeezed":
        amps = squeezed_amplitudes(float(p["r"]), d)
        rho = pure_state(amps, 1, d)
        if rho.trace_deficit > deficit_tol:
            req = _required_cutoff(
                lambda dd: 1.0 - float(np.sum(squeezed_amplitudes(float(p["r"]), dd) ** 2)),
                d,
                deficit_tol,
            )
            raise InsufficientCutoffError(
                f"squeezed(r={p['r']}) at cutoff {d} has deficit {rho.trace_deficit:.3e}; "
                f"use cutoff >= {req}",
                required_cutoff=req,
            )
    else:  # pragma: no cover
        raise UsageError(f"unhandled family {fam}")

    return rho


def exact_energy(spec: StateSpec) -> float:
    """Mean photon number of the ideal (untruncated) state."""
    p = spec.params
    fam = spec.family
    if fam == "fock":
        return float(p["n"])
    if fam == "coherent":
        return abs(_parse_alpha(p["alpha"])) ** 2
    if fam == "thermal":
        return float(p["nu"])
    if fam == "noisy_fock":
        return float(p["p"]) * float(p["n"]) + (1.0 - float(p["p"])) * float(p["nu"])
    if fam == "cat":
        a2 = float(p["alpha"]) ** 2
        if a2 == 0.0:
            return 0.0
        s = 1.0 if p["sign"] == "+" else -1.0
        e = math.exp(-2.0 * a2)
        return a2 * (1.0 - s * e) / (1.0 + s * e)
    if fam == "squeezed":
        return math.sinh(float(p["r"])) ** 2
    if fam == "basel":
        _, w, _ = basel_weights(int(p["n_max"]))
        return float(sum(wi * 2.0**j for j, wi in enumerate(w)))
    raise UsageError(f"unknown family {fam}")


@dataclass(frozen=True)
class GaussianDescriptor:
    """First and second moments: means s (length 2m) and covariance V (2m x 2m).

    Convention: R = (x_1, p_1, ..., x_m, p_m), s_j = <R_j>,
    V_jk = <{R_j, R_k}> - 2 s_j s_k, so the vacuum has V = identity.
    """

    s: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.V, dtype=float)
        if v.shape != (s.size, s.size) or s.size % 2 != 0:
            raise UsageError("descriptor needs s of length 2m and a matching square V")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise UsageError("covariance must be symmetric")
        m = s.size // 2
        omega = np.zeros((2 * m, 2 * m))
        for j in range(m):
            omega[2 * j, 2 * j + 1] = 1.0
            omega[2 * j + 1, 2 * j] = -1.0
        evals = np.linalg.eigvalsh(v + 1j * omega)
        if evals[0] < -1e-10:
            raise UsageError(f"V + i Omega not PSD (min eig {evals[0]:.3e})")
        s.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "V", v)

    @property
    def modes(self) -> int:
        return self.s.size // 2


def gaussian_descriptor(spec: StateSpec) -> GaussianDescriptor:
    """Moments of the Gaussian families.

    The squeezed-vacuum amplitude convention used by make_state squeezes the x
    quadrature, so squeezed(r) carries V = diag(e^(-2r), e^(2r)); this matches
    the constructed state's moments (monotone values are invariant under the
    quadrature swap).
    """
    if spec.family not in GAUSSIAN_FAMILIES:
        raise UsageError(f"gaussian_descriptor supports {GAUSSIAN_FAMILIES}, got {spec.family!r}")
    if spec.family == "coherent":
        alpha = _parse_alpha(spec.params["alpha"])
        s = math.sqrt(2.0) * np.array([alpha.real, alpha.imag])
        return GaussianDescriptor(s, np.eye(2))
    if spec.family == "thermal":
        nu = float(spec.params["nu"])
        return GaussianDescriptor(np.zeros(2), (2.0 * nu + 1.0) * np.eye(2))
    r = float(spec.params["r"])
    return GaussianDescriptor(np.zeros(2), np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]))
