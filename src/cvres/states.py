"""Constructors for the state families used throughout the package.

``_PARAMS`` lists each family's parameters (also the JSON field names) and
what each must be; ``StateSpec`` converts and checks them once, so the rest of
the package reads ``spec.params`` as typed values.  ``noisy_fock`` is
p*|n><n| + (1-p)*thermal(nu); ``basel`` puts weights 6/pi^2/(n+1)^2 on |2^n>
and is stored sparsely.

Construction normalizes before truncating and keeps the subnormalized matrix;
the lost mass is recorded in ``trace_deficit``; ``.renormalized()`` gives a
unit-trace object instead.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from .errors import InsufficientCutoffError, UsageError
from .fock_core import DensityOperator, coherent_vector, pure_state

GAUSSIAN_FAMILIES = ("coherent", "thermal", "squeezed")


# Each converter returns its argument as a Python int, float, complex or str,
# or None when it is not a value of its kind; each accepts its own output.
def _real(x, lo: float = -math.inf, hi: float = math.inf):
    try:
        v = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        v = math.nan
    return v if math.isfinite(v) and lo <= v <= hi else None


def _count(x):
    v = _real(x, 0.0)
    return int(x) if v is not None and v.is_integer() else None


def _amplitude(x):
    if isinstance(x, complex):
        x = [x.real, x.imag]
    parts = [_real(v) for v in x] if isinstance(x, (list, tuple)) else [_real(x), 0.0]
    return complex(*parts) if len(parts) == 2 and None not in parts else None


# parameter kinds: what a value must be, and its converter
_COUNT = ("an integer >= 0", _count)
_REAL = ("a finite real number", _real)
_NONNEG = ("a finite real number >= 0", lambda x: _real(x, 0.0))
_PROBABILITY = ("a real number in [0, 1]", lambda x: _real(x, 0.0, 1.0))
_AMPLITUDE = ("a finite real number or [re, im]", _amplitude)
_SIGN = ('"+" or "-"', lambda x: x if isinstance(x, str) and x in ("+", "-") else None)

_PARAMS = {
    "fock": {"n": _COUNT},
    "coherent": {"alpha": _AMPLITUDE},
    "thermal": {"nu": _NONNEG},  # mean photon number
    "noisy_fock": {"n": _COUNT, "nu": _NONNEG, "p": _PROBABILITY},
    "cat": {"alpha": _REAL, "sign": _SIGN},
    "squeezed": {"r": _REAL},
    "basel": {"n_max": _COUNT},
}


@dataclass(frozen=True)
class StateSpec:
    """A family, its parameters and the Fock cutoff, converted and checked on construction."""

    family: str
    params: dict
    cutoff: int

    def __post_init__(self):
        kinds = _PARAMS.get(self.family) if isinstance(self.family, str) else None
        if kinds is None:
            raise UsageError(f"unknown family {self.family!r}, expected one of {tuple(_PARAMS)}")
        cutoff = _count(self.cutoff)
        if not cutoff:
            raise UsageError(f"{self.family} cutoff must be an integer >= 1, got {self.cutoff!r}")
        if not isinstance(self.params, dict) or set(self.params) != set(kinds):
            raise UsageError(f"{self.family} takes parameters {list(kinds)}, got {self.params!r}")
        params = {name: convert(self.params[name]) for name, (_, convert) in kinds.items()}
        for name, (what, _) in kinds.items():
            if params[name] is None:
                raise UsageError(f"{self.family} {name} must be {what}, got {self.params[name]!r}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "cutoff", cutoff)

    def to_json(self) -> str:
        # a complex alpha as [re, im], or as a number when it is real
        params = {k: ([v.real, v.imag] if v.imag else v.real) if isinstance(v, complex) else v
                  for k, v in self.params.items()}
        return json.dumps({"family": self.family, "params": params, "cutoff": self.cutoff})

    @classmethod
    def from_json(cls, text: str) -> "StateSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict) or not {"family", "params", "cutoff"} <= set(doc):
            raise UsageError(f"a state spec is an object with family, params and cutoff: {text}")
        if doc.get("modes", 1) != 1:
            raise UsageError(f"state specs describe one mode, got modes={doc['modes']!r}")
        return cls(doc["family"], doc["params"], doc["cutoff"])


@dataclass(frozen=True)
class FockDiagonalState:
    """Sparse diagonal state: weight[i] on Fock level index[i] (single mode).

    Used for the basel family, whose support reaches Fock index 2^n_max and
    must never be materialized densely.  ``spec`` is set by ``make_state`` only.
    """

    indices: tuple
    weights: np.ndarray
    trace_deficit: float
    modes: int = 1
    spec: StateSpec | None = field(default=None, compare=False)
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
    plus, _ = coherent_vector(alpha, cutoff)
    minus, _ = coherent_vector(-alpha, cutoff)
    s = 1.0 if sign == "+" else -1.0
    return np.real(plus + s * minus) / cat_norm(alpha, sign)


def squeezed_amplitudes(r: float, cutoff: int) -> np.ndarray:
    """Squeezed-vacuum amplitudes (cosh r)^(-1/2) sqrt(C(2n,n)) (-tanh(r)/2)^n on |2n>."""
    amps = np.zeros(cutoff)
    if r == 0.0:
        amps[0] = 1.0
        return amps
    t = math.tanh(r)
    n = np.arange((cutoff + 1) // 2)
    # cosh overflows from |r| ~ 710, where ln cosh r = |r| - ln 2 to rounding
    log_cosh = math.log(math.cosh(r)) if abs(r) < 700.0 else abs(r) - math.log(2.0)
    log_mag = (
        -0.5 * log_cosh
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


def _required_cutoff(deficit_at, start: int, tol: float, what: str, limit: int = 4096) -> int:
    """The first cutoff from ``start``, growing by half a step, with deficit within ``tol``."""
    d = start
    while deficit_at(d) > tol:
        if d >= limit:
            raise UsageError(f"no cutoff up to {limit} holds {what} within deficit_tol = {tol}")
        d = min(limit, max(d + 1, int(d * 1.5)))
    return d


_PURE = ("coherent", "cat", "squeezed")


def _levels(family: str, p: dict, d: int) -> np.ndarray:
    """Amplitudes of a pure family, or diagonal weights of a mixed one, on Fock levels < d."""
    if family == "coherent":
        return coherent_vector(p["alpha"], d)[0]
    if family == "cat":
        return cat_amplitudes(p["alpha"], p["sign"], d)
    if family == "squeezed":
        return squeezed_amplitudes(p["r"], d)
    w = thermal_weights(p.get("nu", 0.0), d)
    if "n" in p:  # fock is noisy_fock at p = 1
        prob = p.get("p", 1.0)
        w = (1.0 - prob) * w
        w[p["n"]] += prob
    return w


def make_state(spec: StateSpec, *, deficit_tol: float = 1e-8):
    """Build the state described by ``spec``.

    Returns a DensityOperator for the dense families; basel returns a
    FockDiagonalState since its support reaches Fock index 2^n_max.  Either
    carries ``spec``, from which the bounds take the ideal state's energy.
    Raises InsufficientCutoffError (naming a workable cutoff) when the
    truncation deficit of a finite-energy family exceeds ``deficit_tol``, and
    a plain UsageError when no cutoff up to 4096 is workable.
    """
    d, fam, p = spec.cutoff, spec.family, spec.params
    what = f"{fam}({', '.join(f'{k}={v}' for k, v in p.items())})"

    if fam == "basel":
        # checked before the weights are built, and printed as a power: 2**n_max has
        # n_max/3.3 digits, past what str() of an int allows from n_max ~ 14000
        required = 2 ** p["n_max"] + 1
        if d < required:
            raise InsufficientCutoffError(f"{what} needs cutoff >= 2**{p['n_max']} + 1, got {d}",
                                          required_cutoff=required)
        return FockDiagonalState(*basel_weights(p["n_max"]), spec=spec)
    if "n" in p and p["n"] >= d:
        raise InsufficientCutoffError(f"{what} needs cutoff >= {p['n'] + 1}, got {d}",
                                      required_cutoff=p["n"] + 1)

    def deficit_at(dd: int) -> float:
        part = _levels(fam, p, dd)
        return max(0.0, 1.0 - float(np.sum(np.abs(part) ** 2 if fam in _PURE else part)))

    deficit = deficit_at(d)
    if deficit > deficit_tol:
        req = _required_cutoff(deficit_at, d, deficit_tol, what)
        raise InsufficientCutoffError(
            f"{what} at cutoff {d} has deficit {deficit:.3e} > {deficit_tol}; use cutoff >= {req}",
            required_cutoff=req,
        )
    part = _levels(fam, p, d)
    if fam in _PURE:
        rho = pure_state(part, 1, d)
    else:
        rho = DensityOperator.from_matrix(np.diag(part.astype(complex)), 1, d, validate=False)
    return replace(rho, spec=spec)


def exact_energy(spec: StateSpec) -> float:
    """Mean photon number of the ideal (untruncated) state; +inf past the float range."""
    p, fam = spec.params, spec.family
    if fam in ("fock", "thermal", "noisy_fock"):  # noisy_fock at p = 1 and at p = 0
        prob = p.get("p", 1.0 if "n" in p else 0.0)
        return prob * p.get("n", 0) + (1.0 - prob) * p.get("nu", 0.0)
    if fam == "coherent":
        return abs(p["alpha"]) ** 2 if abs(p["alpha"]) < 1e154 else math.inf
    if fam == "cat":
        a2 = p["alpha"] ** 2 if abs(p["alpha"]) < 1e154 else math.inf
        if a2 == 0.0:
            return 0.0
        s = 1.0 if p["sign"] == "+" else -1.0
        e = math.exp(-2.0 * a2)
        return a2 * (1.0 - s * e) / (1.0 + s * e)
    if fam == "squeezed":
        return math.sinh(p["r"]) ** 2 if abs(p["r"]) < 355.0 else math.inf
    _, w, _ = basel_weights(p["n_max"])
    return float(sum(wi * 2.0**j for j, wi in enumerate(w)))


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
    p = spec.params
    if spec.family == "coherent":
        s = math.sqrt(2.0) * np.array([p["alpha"].real, p["alpha"].imag])
        return GaussianDescriptor(s, np.eye(2))
    if spec.family == "thermal":
        return GaussianDescriptor(np.zeros(2), (2.0 * p["nu"] + 1.0) * np.eye(2))
    r = p["r"]
    return GaussianDescriptor(np.zeros(2), np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]))
