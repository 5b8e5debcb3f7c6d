"""Transformation-rate bounds and exact linear-optics protocol simulation.

Protocols are simulated through the beam-splitter identities, never through a
dense two-mode unitary, so the joint state is a d x d amplitude matrix.  Branch
probabilities are inner products with it, so sampling would only add noise; a
seeded Monte Carlo mode exists purely as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .entropies import relative_entropy
from .errors import DegenerateParameterError, InsufficientCutoffError, UsageError
from .fock_core import DensityOperator, beam_splitter_fock_column, coherent_vector
from .nonclassicality import MonotoneBound, bound_sandwich, fock_closed_form, product_interval
from .states import StateSpec, cat_amplitudes, cat_norm, make_state, thermal_weights


@dataclass(frozen=True)
class ProtocolOutcome:
    success_probability: float
    copies_in: Fraction
    copies_out: Fraction
    rate_lower_bound: float
    output_fidelity_check: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.success_probability <= 1.0 + 1e-12):
            raise UsageError("success probability outside [0, 1]")
        expected = self.success_probability * float(self.copies_out / self.copies_in)
        if abs(self.rate_lower_bound - expected) > 1e-9:
            raise UsageError("rate_lower_bound must equal success * copies_out/copies_in")


@dataclass(frozen=True)
class RateBound:
    numerator: MonotoneBound
    denominator: MonotoneBound
    value: float
    undefined: bool = False


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
            return RateBound(src_upper, tgt_lower, math.inf, undefined=False)
        return RateBound(src_upper, tgt_lower, math.nan, undefined=True)
    return RateBound(src_upper, tgt_lower, num / den, undefined=False)


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------

def free_energy(rho: DensityOperator, beta: float) -> float:
    """D(rho || gamma_beta) in bits, with the photon-number Hamiltonian."""
    if beta <= 0:
        raise UsageError("inverse temperature must be positive")
    w1 = thermal_weights(1.0 / (math.exp(beta) - 1.0), rho.cutoff)
    w = w1
    for _ in range(rho.modes - 1):
        w = np.kron(w, w1)
    gamma = DensityOperator.from_matrix(np.diag(w.astype(complex)), rho.modes, rho.cutoff,
                                        validate=False)
    return relative_entropy(rho.renormalized(), gamma)


def thermo_rate_bound(rho: DensityOperator, sigma: DensityOperator, beta: float) -> RateBound:
    num = MonotoneBound("free_energy", "upper", free_energy(rho, beta),
                        {"ansatz_description": f"free energy at beta={beta}"})
    den_val = free_energy(sigma, beta)
    # a thermal target has zero free energy up to truncation noise; flag it
    den = MonotoneBound("free_energy", "lower", den_val if den_val > 1e-9 else 0.0,
                        {"ansatz_description": f"free energy at beta={beta}"})
    if den.value == 0.0:
        return RateBound(num, den, math.nan, undefined=True)
    return rate_upper_bound(num, den)


# ---------------------------------------------------------------------------
# Fock-state dilution protocol
# ---------------------------------------------------------------------------

def closed_form_ps(n: int, p: float, lam: float) -> float:
    """p n (1-lam) lam^(2n-1) / ((1-lam^n)(p lam^n + 1 - p))."""
    return p * n * (1.0 - lam) * lam ** (2 * n - 1) / ((1.0 - lam**n) * (p * lam**n + 1.0 - p))


def _one_round_branches(n: int, lam: float) -> tuple[float, float, float]:
    """Ancilla-count branches for |n,0>: returns (P0, P1, fidelity of the one-count
    output against |n-1>).

    U|n,0> = sum_l c_l |n-l, l>, so l ancilla counts leave exactly |n-l> with
    probability c_l^2.  Photon number is conserved, so the fidelity is 1.
    """
    c = beam_splitter_fock_column(n, lam)
    return float(c[0] ** 2), float(c[1] ** 2), 1.0


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
    p0_fock, p1_fock, fid = _one_round_branches(n, lam)
    success = p * p1_fock / (1.0 - p0_fock)
    return ProtocolOutcome(
        success_probability=success,
        copies_in=Fraction(1),
        copies_out=Fraction(1),
        rate_lower_bound=success,
        output_fidelity_check=fid,
        details={
            "rounds_summed": 0,
            "p0_fock_simulated": p0_fock,
            "p1_fock_simulated": p1_fock,
            "closed_form": closed_form_ps(n, p, lam),
        },
    )


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


# ---------------------------------------------------------------------------
# cat-state protocols
# ---------------------------------------------------------------------------

def required_cat_cutoff(alpha: float, tol: float = 1e-10) -> int:
    d = max(8, int(4 * alpha * alpha) + 8)
    while d < 4096:
        amps = cat_amplitudes(alpha, "+", d)
        if 1.0 - float(np.sum(amps**2)) <= tol:
            return d
        d = int(d * 1.4) + 1
    return d


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


def _balanced_split(terms, d: int) -> np.ndarray:
    """sum_k w_k U|a_k>|b_k> at transmissivity 1/2 as a d x d matrix (rows: first
    mode), from U|a>|b> = |(a+b)/sqrt2>|(b-a)/sqrt2> for real a and b."""
    joint = np.zeros((d, d))
    for w, a, b in terms:
        left, right = (np.real(coherent_vector(x / math.sqrt(2.0), d)[0]) for x in (a + b, b - a))
        joint += w * np.outer(left, right)
    return joint


def cat_amplification(alpha: float, cutoff: int | None = None) -> dict[str, ProtocolOutcome]:
    """Two small even cats to one large one through a balanced beam splitter.

    Both variants herald on a rank-one measurement of the ancilla mode: "ours"
    projects onto the vacuum component orthogonal to the large cat (the optimal
    choice), while "lund" realizes the heralding statistics of the Lund et al.
    interferometric scheme.  Success leaves exactly the target cat.
    """
    if alpha <= 0:
        raise UsageError("alpha must be positive")
    d = _check_cutoff(alpha, cutoff)
    target = cat_amplitudes(math.sqrt(2.0) * alpha, "+", d)
    target = target / np.linalg.norm(target)
    # cat x cat = sum over s, t = +-1 of |s alpha>|t alpha> / N^2
    w = 1.0 / cat_norm(alpha, "+") ** 2
    joint = _balanced_split([(w, s * alpha, t * alpha) for s in (1, -1) for t in (1, -1)], d)

    a2 = alpha * alpha
    c2 = math.cosh(2.0 * a2)
    e0 = np.zeros(d)
    e0[0] = 1.0
    chi = (math.sqrt(c2) * e0 - target) / (math.sqrt(2.0) * math.sinh(a2))
    chi = chi / np.linalg.norm(chi)

    u_vec = e0 - np.dot(target, e0) * target
    u_vec = u_vec / np.linalg.norm(u_vec)
    w_seed = np.zeros(d)
    w_seed[2] = 1.0
    w_vec = w_seed - np.dot(target, w_seed) * target - np.dot(u_vec, w_seed) * u_vec
    w_vec = w_vec / np.linalg.norm(w_vec)
    cos_t = (1.0 - math.exp(-a2)) / math.sqrt(1.0 - 1.0 / c2)
    cos_t = min(cos_t, 1.0)
    phi_lund = cos_t * u_vec + math.sqrt(max(0.0, 1.0 - cos_t**2)) * w_vec

    outcomes = {}
    for name, ket in (("ours", chi), ("lund", phi_lund)):
        amp = joint @ ket  # contract the ancilla mode
        prob = float(np.sum(np.abs(amp) ** 2))
        fid = float(np.abs(np.vdot(target, amp)) ** 2 / prob) if prob > 0 else 0.0
        outcomes[name] = ProtocolOutcome(
            success_probability=prob,
            copies_in=Fraction(2),
            copies_out=Fraction(1),
            rate_lower_bound=prob / 2.0,
            output_fidelity_check=fid,
            details={"cutoff": d},
        )
    return outcomes


def cat_amplification_formulas(alpha: float) -> dict[str, float]:
    a2 = alpha * alpha
    ours = 0.5 * math.tanh(a2) ** 2
    lund = (
        math.exp(-a2) * math.cosh(2 * a2) * math.sinh(a2 / 2.0) ** 2 / math.cosh(a2) ** 2
    )
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
    plus = cat_amplitudes(alpha, "+", d)
    plus = plus / np.linalg.norm(plus)
    minus = cat_amplitudes(alpha, "-", d)
    minus = minus / np.linalg.norm(minus)
    # big cat x vacuum = (|sqrt2 alpha>|0> + |-sqrt2 alpha>|0>) / N_big
    big = math.sqrt(2.0) * alpha
    w = 1.0 / cat_norm(big, "+")
    joint = _balanced_split([(w, big, 0.0), (w, -big, 0.0)], d)
    amp_plus = joint @ plus
    amp_minus = joint @ minus
    p_plus = float(np.sum(np.abs(amp_plus) ** 2))
    p_minus = float(np.sum(np.abs(amp_minus) ** 2))
    fid_plus = float(np.abs(np.vdot(plus, amp_plus)) ** 2 / p_plus) if p_plus > 0 else 0.0
    fid_minus = float(np.abs(np.vdot(minus, amp_minus)) ** 2 / p_minus) if p_minus > 0 else 0.0
    return ProtocolOutcome(
        success_probability=p_minus,
        copies_in=Fraction(1),
        copies_out=Fraction(1, 2),
        rate_lower_bound=p_minus / 2.0,
        output_fidelity_check=min(fid_plus, fid_minus),
        details={
            "branch_plus": p_plus,
            "branch_minus": p_minus,
            "branch_sum": p_plus + p_minus,
            "cutoff": d,
        },
    )


def cat_dilution_formulas(alpha: float) -> dict[str, float]:
    a2 = alpha * alpha
    c2 = math.cosh(2 * a2)
    return {
        "branch_plus": math.cosh(a2) ** 2 / c2,
        "branch_minus": math.sinh(a2) ** 2 / c2,
        "rate": math.sinh(a2) ** 2 / (2.0 * c2),
    }


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
