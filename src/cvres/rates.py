"""Transformation-rate bounds and exact linear-optics protocol simulation.

Protocols are simulated through the beam-splitter identities, never through a
dense two-mode unitary.  Each herald contracts the ancilla before any two-mode state
exists, so a branch is one length-d amplitude vector and its probability is exact:
sampling would only add noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .entropies import LOG2E, von_neumann_entropy
from .errors import DegenerateParameterError, InsufficientCutoffError, UsageError
from .fock_core import DensityOperator, beam_splitter_fock_column, coherent_vector
from .nonclassicality import (MonotoneBound, bound_sandwich, fock_closed_form, ideal_energy,
                              ideal_entropy, product_interval)
from .states import StateSpec, cat_amplitudes, cat_norm, make_state


@dataclass(frozen=True, kw_only=True)
class ProtocolOutcome:
    """An exact protocol turning ``copies_in`` sources into ``copies_out`` targets with
    ``success_probability``.  Its rate is derived, never stored.  Keyword-only, so that a
    positional call written for an older field order fails instead of shifting fields."""

    success_probability: float
    copies_in: float  # 1, 2 or 1/2, exact as floats
    copies_out: float
    output_fidelity_check: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.success_probability <= 1.0 + 1e-12):
            raise UsageError("success probability outside [0, 1]")

    @property
    def rate_lower_bound(self) -> float:
        """success_probability * copies_out / copies_in: the achieved rate."""
        return self.success_probability * self.copies_out / self.copies_in


@dataclass(frozen=True)
class RateBound:
    """The ratio ``value`` of two certified bounds: NaN, read as ``undefined``, if none."""

    numerator: MonotoneBound
    denominator: MonotoneBound
    value: float

    @property
    def undefined(self) -> bool:
        return math.isnan(self.value)


def rate_upper_bound(src_upper: MonotoneBound, tgt_lower: MonotoneBound) -> RateBound:
    """Ratio bound on the transformation rate from certified endpoint bounds.

    ``src_upper`` bounds the source's nonclassicality from above and
    ``tgt_lower`` the target's from below (certificates already folded into the
    values).  A nonpositive denominator yields the undefined flag, never a
    number; +inf is returned only for a certified-positive numerator over an
    exactly zero denominator.
    """
    if src_upper.direction != "upper" or tgt_lower.direction != "lower":
        raise UsageError("need an upper bound on the source and a lower bound on the target")
    num = src_upper.value
    den = tgt_lower.value
    if den <= 0.0:
        if num > 1e-12:
            return RateBound(src_upper, tgt_lower, math.inf)
        return RateBound(src_upper, tgt_lower, math.nan)
    return RateBound(src_upper, tgt_lower, num / den)


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------

def _free_energy_and_slack(rho: DensityOperator, beta: float) -> tuple[float, float]:
    """``free_energy`` and its rounding allowance, 8 ulps of its terms' summed magnitudes."""
    if beta <= 0:
        raise UsageError("inverse temperature must be positive")
    if rho.spec is not None:
        energy, entropy = ideal_energy(rho), ideal_entropy(rho)
    else:
        unit = rho.renormalized()
        energy, entropy = unit.energy, von_neumann_entropy(unit)
    a, b = beta * energy * LOG2E, rho.modes * math.log2(-math.expm1(-beta))
    return a - b - entropy, 8.0 * np.finfo(float).eps * (abs(a) + abs(b) + abs(entropy))


def free_energy(rho: DensityOperator, beta: float) -> float:
    """D(rho || gamma_beta) in bits for the photon number N on m modes, from the identity
    D = beta <N> log2(e) - m log2(1 - e^-beta) - S(rho), which builds no thermal matrix.
    A state that ``make_state`` built reads the ideal <N> and S (``ideal_energy``,
    ``ideal_entropy``); a matrix without a spec reads its own, renormalized."""
    return _free_energy_and_slack(rho, beta)[0]


def thermo_rate_bound(rho: DensityOperator, sigma: DensityOperator, beta: float) -> RateBound:
    """F(rho)/F(sigma), the numerator raised and the denominator lowered by its allowance."""
    meta = {"ansatz_description": f"free energy at beta={beta}"}
    value, slack = _free_energy_and_slack(rho, beta)
    num = MonotoneBound("free_energy", "upper", value + slack, meta)
    value, slack = _free_energy_and_slack(sigma, beta)
    # a thermal target has zero free energy up to rounding; flag it
    den = MonotoneBound("free_energy", "lower", max(value - slack, 0.0), dict(meta))
    if den.value <= 1e-9:
        return RateBound(num, den, math.nan)
    return rate_upper_bound(num, den)


# ---------------------------------------------------------------------------
# Fock-state dilution protocol
# ---------------------------------------------------------------------------

def closed_form_ps(n: int, p: float, lam: float) -> float:
    """p n (1-lam) lam^(2n-1) / ((1-lam^n)(p lam^n + 1 - p)), the powers of lam taken in
    the log domain: p lam^n + 1 - p is e^logaddexp(ln p + n ln lam, ln(1 - p)), which
    neither cancels at p = 1 nor reaches 0 once lam^n falls below an ulp of 1."""
    ln_lam = math.log(lam)
    with np.errstate(divide="ignore"):  # ln(1 - p) = -inf at p = 1
        ln_mix = float(np.logaddexp(np.log(p) + n * ln_lam, np.log1p(-p)))
    return p * n * (1.0 - lam) * math.exp((2 * n - 1) * ln_lam - ln_mix) / -math.expm1(n * ln_lam)


def fock_dilution(n: int, p: float, lam: float) -> ProtocolOutcome:
    """Beam-split against vacuum, photon-count the ancilla, recurse on zero counts.

    One count heralds |n-1>.  The success probability is linear in the input
    mixture and vacuum never heralds, so the zero-count recursion is the
    geometric series p P1 (1 + P0 + P0^2 + ...) = p P1 / (1 - P0), summed in
    closed form with the exactly simulated branch data P0 and P1.
    """
    if n < 2:
        raise UsageError("fock_dilution needs n >= 2")
    if not (0.0 < p <= 1.0):
        raise UsageError("p must lie in (0, 1]")
    if not (0.0 < lam < 1.0):
        raise DegenerateParameterError("transmissivity must lie strictly inside (0, 1)")
    # U|n,0> = sum_l c_l |n-l, l>: l ancilla counts leave exactly |n-l> with probability
    # c_l^2, since photon number is conserved, so the output fidelity is 1
    c = beam_splitter_fock_column(n, lam)
    p0_fock, p1_fock = float(c[0] ** 2), float(c[1] ** 2)
    return ProtocolOutcome(success_probability=p * p1_fock / (1.0 - p0_fock), copies_in=1.0,
                           copies_out=1.0, output_fidelity_check=1.0,
                           details={"rounds_summed": 0, "p0_fock_simulated": p0_fock,
                                    "p1_fock_simulated": p1_fock,
                                    "closed_form": closed_form_ps(n, p, lam)})


# ---------------------------------------------------------------------------
# cat-state protocols
# ---------------------------------------------------------------------------

def required_cat_cutoff(alpha: float, tol: float = 1e-10) -> int:
    """The first cutoff, from 4 alpha^2 + 8 growing by 40%, at which the even cat loses
    at most ``tol``; a UsageError when alpha is not finite or no cutoff below 4096 does."""
    if not math.isfinite(alpha):
        raise UsageError(f"cat alpha must be finite, got {alpha}")
    d = max(8, int(min(4 * alpha * alpha, 4096.0)) + 8)
    while d < 4096:
        amps = cat_amplitudes(alpha, "+", d)
        if 1.0 - float(np.sum(amps**2)) <= tol:
            return d
        d = int(d * 1.4) + 1
    raise UsageError(f"no cat cutoff below 4096 holds alpha = {alpha} within deficit {tol}")


def _check_cutoff(alpha: float, cutoff: int | None) -> int:
    need = required_cat_cutoff(math.sqrt(2.0) * alpha)
    if cutoff is None:
        return need
    if cutoff < need:
        raise InsufficientCutoffError(
            f"cat protocols at alpha={alpha} need cutoff >= {need}, got {cutoff}",
            required_cutoff=need,
        )
    return cutoff


def _heralded(terms, d: int, ket: np.ndarray) -> np.ndarray:
    """sum_k w_k <ket|(b_k-a_k)/sqrt2> |(a_k+b_k)/sqrt2>: the first mode of sum_k w_k
    U|a_k>|b_k> at transmissivity 1/2, heralded on ``ket`` in the second, from
    U|a>|b> = |(a+b)/sqrt2>|(b-a)/sqrt2> for real a and b.  The ancilla is contracted
    term by term, so no two-mode state is formed."""
    def amplitudes(x):
        return np.real(coherent_vector(x / math.sqrt(2.0), d)[0])

    left = np.array([w * amplitudes(a + b) for w, a, b in terms])
    right = np.array([amplitudes(b - a) for _, a, b in terms])
    return (right @ ket) @ left


def _branch(amp: np.ndarray, kept: np.ndarray) -> tuple[float, float]:
    """(probability, fidelity against ``kept``) of an unnormalised heralded output."""
    prob = float(np.sum(np.abs(amp) ** 2))
    return prob, float(np.abs(np.vdot(kept, amp)) ** 2 / prob) if prob > 0 else 0.0


def cat_amplification(alpha: float, cutoff: int | None = None) -> dict[str, ProtocolOutcome]:
    """Two small even cats to one large one through a balanced beam splitter.

    Both variants herald on a rank-one measurement of the ancilla mode: "ours"
    projects onto the vacuum component orthogonal to the large cat (the optimal
    choice), while "lund" realizes the heralding statistics of the Lund et al.
    interferometric scheme.  Success leaves exactly the target cat.  Both heralds come
    from tail sums of the normalised target T, so small alpha keeps its digits.
    """
    if alpha <= 0:
        raise UsageError("alpha must be positive")
    d = _check_cutoff(alpha, cutoff)
    target = cat_amplitudes(math.sqrt(2.0) * alpha, "+", d)
    target = target / np.linalg.norm(target)
    # 1 - T_0^2 and 1 - T_0^2 - T_2^2 as the sums they equal
    tail_1 = float(np.sum(target[1:] ** 2))
    tail_3 = float(target[1] ** 2 + np.sum(target[3:] ** 2))
    if tail_3 == 0.0:
        raise UsageError(f"cat amplification at alpha = {alpha}: the target cat beyond Fock "
                         "level 2 is 0 in floating point, so no herald orthogonal to it exists")
    # u: the vacuum less its projection on T, (1 - T_0^2, -T_0 T_1, ...) / sqrt(1 - T_0^2)
    u_vec = -target[0] * target
    u_vec[0] = tail_1
    u_vec = u_vec / math.sqrt(tail_1)
    # w: e_2 orthogonalised against T and u, (0, -T_2 T_1, 1 - T_0^2 - T_2^2, -T_2 T_3, ...)
    # / (1 - T_0^2) before normalising
    w_vec = -target[2] / tail_1 * target
    w_vec[0], w_vec[2] = 0.0, tail_3 / tail_1
    w_vec = w_vec / np.linalg.norm(w_vec)
    # cos theta = (1 - E_1) / sqrt(1 - sech(2 a2)) with E_k = e^(-k a2), without cancelling
    a2 = alpha * alpha
    cos_t = math.expm1(-a2) * math.sqrt(1.0 + math.exp(-4.0 * a2)) / math.expm1(-2.0 * a2)
    cos_t = min(cos_t, 1.0)
    phi_lund = cos_t * u_vec + math.sqrt(max(0.0, 1.0 - cos_t**2)) * w_vec

    # cat x cat = sum over s, t = +-1 of |s alpha>|t alpha> / N^2
    w = 1.0 / cat_norm(alpha, "+") ** 2
    terms = [(w, s * alpha, t * alpha) for s in (1, -1) for t in (1, -1)]
    outcomes = {}
    for name, ket in (("ours", u_vec), ("lund", phi_lund)):
        prob, fid = _branch(_heralded(terms, d, ket), target)
        outcomes[name] = ProtocolOutcome(success_probability=prob, copies_in=2.0, copies_out=1.0,
                                         output_fidelity_check=fid, details={"cutoff": d})
    return outcomes


def cat_amplification_formulas(alpha: float) -> dict[str, float]:
    """tanh^2(a2) / 2 and e^-a2 cosh(2 a2) sinh^2(a2/2) / cosh^2(a2), the latter written
    as (1 + E_4)(1 - E_1)^2 / (2 (1 + E_2)^2) with E_k = e^(-k a2), which cannot overflow."""
    a2 = alpha * alpha
    ours = 0.5 * math.tanh(a2) ** 2
    lund = ((1.0 + math.exp(-4.0 * a2)) * math.expm1(-a2) ** 2
            / (2.0 * (1.0 + math.exp(-2.0 * a2)) ** 2))
    return {"ours": ours, "lund": lund}


def cat_dilution(alpha: float, cutoff: int | None = None) -> ProtocolOutcome:
    """Split a large even cat against vacuum and measure the ancilla in the cat basis.

    The even branch leaves a small even cat, the odd branch a small odd cat;
    pairing the rarer odd outputs with even ones yields the sign-randomized
    dilution rate sinh^2(a^2) / (2 cosh(2 a^2)).
    """
    if alpha <= 0:
        raise UsageError("alpha must be positive")
    d = _check_cutoff(alpha, cutoff)
    plus, minus = (v / np.linalg.norm(v) for v in (cat_amplitudes(alpha, s, d) for s in "+-"))
    # big cat x vacuum = (|sqrt2 alpha>|0> + |-sqrt2 alpha>|0>) / N_big
    big = math.sqrt(2.0) * alpha
    w = 1.0 / cat_norm(big, "+")
    terms = [(w, big, 0.0), (w, -big, 0.0)]
    p_plus, fid_plus = _branch(_heralded(terms, d, plus), plus)
    p_minus, fid_minus = _branch(_heralded(terms, d, minus), minus)
    return ProtocolOutcome(success_probability=p_minus, copies_in=1.0, copies_out=0.5,
                           output_fidelity_check=min(fid_plus, fid_minus),
                           details={"branch_plus": p_plus, "branch_minus": p_minus,
                                    "branch_sum": p_plus + p_minus, "cutoff": d})


def cat_dilution_formulas(alpha: float) -> dict[str, float]:
    """Branches cosh^2(a2) / cosh(2 a2) and sinh^2(a2) / cosh(2 a2), as (1 +- E_2)^2 /
    (2 (1 + E_4)) with E_k = e^(-k a2), which cannot overflow; the rate is half the latter."""
    a2 = alpha * alpha
    e2 = math.exp(-2.0 * a2)
    den = 2.0 * (1.0 + math.exp(-4.0 * a2))
    minus = math.expm1(-2.0 * a2) ** 2 / den
    return {"branch_plus": (1.0 + e2) ** 2 / den, "branch_minus": minus, "rate": minus / 2.0}


def noisy_fock_dilution_rate_bound(n: int, p: float) -> RateBound:
    """Ratio bound for p|n><n| + (1-p)|0><0|  ->  |n-1><n-1| from the Fock closed forms."""
    if n < 1:
        raise UsageError("need n >= 1")
    num = MonotoneBound("NC", "upper", p * fock_closed_form(n),
                        {"ansatz_description": "convexity over the Fock closed form"})
    den = MonotoneBound("NCM", "lower", fock_closed_form(n - 1),
                        {"ansatz_description": "Fock closed form"})
    return rate_upper_bound(num, den)


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)  # the amplify and dilute tasks share sources and targets
def cat_interval(alpha: float, sign: str, cutoff: int) -> tuple[MonotoneBound, MonotoneBound]:
    """Sandwich of the cat state, built with ``deficit_tol=1e-7``; memoised per process."""
    spec = StateSpec("cat", {"alpha": alpha, "sign": sign}, cutoff)
    return bound_sandwich(make_state(spec, deficit_tol=1e-7))


def protocol_figure_data(task: str, alphas) -> list[dict]:
    """Rows (alpha, task, lower_rate, upper_rate, converged) for the protocol comparison.

    Lower rates come from the simulated protocols; upper rates from the ratio
    of the source's certified upper bound to the target's certified lower
    bound (superadditive sums for the two-factor dilution target), and
    ``converged`` is the conjunction of those two bounds' flags.  Undefined
    ratios are reported as missing, never fabricated.
    """
    if task not in ("amplify", "dilute"):
        raise UsageError('task must be "amplify" or "dilute"')
    rows = []
    for alpha in alphas:
        a = float(alpha)
        d = required_cat_cutoff(math.sqrt(2.0) * a, 1e-10)
        if task == "amplify":
            sims = cat_amplification(a, d)
            lower = max(sims["ours"].rate_lower_bound, sims["lund"].rate_lower_bound)
            _, src_up = cat_interval(a, "+", d)
            tgt_lo, _ = cat_interval(math.sqrt(2.0) * a, "+", d)
        else:
            lower = cat_dilution(a, d).rate_lower_bound
            _, src_up = cat_interval(math.sqrt(2.0) * a, "+", d)
            tgt_lo, _ = product_interval([cat_interval(a, s, d) for s in ("+", "-")])
        ratio = rate_upper_bound(src_up, tgt_lo)
        rows.append(
            {
                "alpha": a,
                "task": task,
                "lower_rate": lower,
                "upper_rate": None if ratio.undefined else ratio.value,
                "converged": src_up.converged and tgt_lo.converged,
            }
        )
    return rows
