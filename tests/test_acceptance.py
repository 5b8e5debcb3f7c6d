"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 8's Fock-dilution closed-form clause is known-red: the reference
expression in closed_form_ps contradicts the protocol's own recursion for
p < 1 (it equals the exact series p*P1/(1 - P0) started from the
once-filtered state, and the first-round success probability alone exceeds
it). The simulator is faithful to the protocol, matches the expression at
p = 1 and in the transmissivity limit, and the assertion is kept as stated
rather than weakened.
"""

import math
import time

import numpy as np
import pytest

from cvres.fock_core import (
    DensityOperator,
    beam_splitter_fock_column,
    coherent_vector,
    dephase,
    fock_state,
    total_photon_numbers,
    trace_distance,
)
from cvres.states import StateSpec, make_state, exact_energy
from cvres.entropies import (
    kl_divergence,
    measured_relative_entropy,
    relative_entropy,
    wehrl_entropy,
)
from cvres.nonclassicality import (
    basel_divergence_bound,
    bound_sandwich,
    cat_gamma_lower_bound,
    energy_upper_bound,
    fock_closed_form,
    fock_diagonal_ncm,
    gamma_lower_bound,
    gaussian_bounds,
    husimi_lower_bound,
    noisy_fock_closed_form,
    truncation_certificate,
    wehrl_upper_bound,
)
from cvres.rates import (
    cat_amplification,
    cat_amplification_formulas,
    cat_dilution,
    cat_dilution_formulas,
    closed_form_ps,
    fock_dilution,
    noisy_fock_dilution_rate_bound,
)
from cvres.states import gaussian_descriptor
from oracles import beam_splitter_unitary, husimi_kl_on_grid

LOG2E = math.log2(math.e)


def report(number, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    return ok


def test_criterion_01_fock_closed_form():
    t0 = time.time()
    errs = []
    for n in range(1, 7):
        res = fock_diagonal_ncm(fock_state(n, 20))
        errs.append(abs(res.lower.value - fock_closed_form(n)))
        errs.append(abs(res.upper.value - fock_closed_form(n)))
    elapsed = time.time() - t0
    ok = max(errs) < 1e-6 and elapsed < 1.0
    assert report(1, f"Fock closed form n=1..6, max err {max(errs):.2e}", ok, elapsed, 1)


def test_criterion_02_noisy_fock_curve():
    t0 = time.time()
    errs = []
    for p in np.linspace(0.05, 0.95, 19):
        rho = make_state(StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": float(p)}, 12))
        res = fock_diagonal_ncm(rho)
        target = noisy_fock_closed_form(float(p))
        errs.append(abs(res.lower.value - target))
        errs.append(abs(res.upper.value - target))
    elapsed = time.time() - t0
    ok = max(errs) < 1e-6 and elapsed < 5.0
    assert report(2, f"noisy Fock n=1 nu=0 curve, max err {max(errs):.2e}", ok, elapsed, 5)


def test_criterion_03_generic_gamma_vs_exact():
    t0 = time.time()
    bound = gamma_lower_bound(fock_state(1, 20))
    elapsed = time.time() - t0
    ok = bound.value >= LOG2E - 1e-4 and elapsed < 30.0
    assert report(3, f"generic ascent on |1><1| gives {bound.value:.6f}", ok, elapsed, 30)


def test_criterion_04_vacuum_wehrl():
    t0 = time.time()
    est = wehrl_entropy(fock_state(0, 12))
    elapsed = time.time() - t0
    # the Gaussian-corollary constant is high by exactly m bits; logged, not asserted
    gauss_printed = 0.5 * math.log2(4.0) + LOG2E
    print(f"  note: direct Wehrl {est.bits:.6f} vs printed Gaussian constant "
          f"{gauss_printed:.6f} (m-bit discrepancy, documented)")
    ok = abs(est.bits - LOG2E) < 1e-6 and elapsed < 1.0
    assert report(4, f"vacuum Wehrl entropy {est.bits:.7f}", ok, elapsed, 1)


def test_criterion_05_measured_re_properties():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    def rand_state(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        return DensityOperator.from_hermitian(m / np.real(np.trace(m)), 1, d)

    worst_comm = 0.0
    for _ in range(50):
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        a = DensityOperator.from_hermitian(np.diag(p).astype(complex), 1, 4)
        b = DensityOperator.from_hermitian(np.diag(q).astype(complex), 1, 4)
        val, _ = measured_relative_entropy(a, b)
        worst_comm = max(worst_comm, abs(val - kl_divergence(p, q)))

    ok = worst_comm < 1e-6
    for _ in range(200):
        a, b = rand_state(4), rand_state(4)
        val, _ = measured_relative_entropy(a, b)
        ok &= val <= relative_entropy(a, b) + 1e-8
        ok &= val >= 0.5 * LOG2E * trace_distance(a, b) ** 2 - 1e-6
        ok &= kl_divergence(dephase(a).diagonal(), dephase(b).diagonal()) <= val + 1e-6
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    assert report(5, f"measured-RE properties (commuting err {worst_comm:.1e})", ok, elapsed, 60)


def test_criterion_06_heterodyne_inequality():
    t0 = time.time()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(20):
        g1 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        g2 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = DensityOperator.from_hermitian(g1 @ g1.conj().T / np.real(np.trace(g1 @ g1.conj().T)),
                                          1, 8)
        b = DensityOperator.from_hermitian(g2 @ g2.conj().T / np.real(np.trace(g2 @ g2.conj().T)),
                                          1, 8)
        val, _ = measured_relative_entropy(a, b)
        ok &= val >= husimi_kl_on_grid(a, b) - 1e-6
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    assert report(6, "heterodyne inequality on 20 random pairs", ok, elapsed, 60)


def test_criterion_07_beam_splitter():
    t0 = time.time()
    d = 40
    ok = True
    u = beam_splitter_unitary(0.5, d)
    for n in range(1, 7):
        vec = np.zeros(d * d, dtype=complex)
        vec[n * d] = 1.0
        out = (u @ vec).reshape(d, d)
        sim = np.array([out[n - ell, ell] for ell in range(n + 1)])
        ok &= np.max(np.abs(sim - beam_splitter_fock_column(n, 0.5))) < 1e-10
    for alpha in (0.5, 1.0):
        for beta in (0.5, 1.0):
            va, _ = coherent_vector(alpha, d)
            vb, _ = coherent_vector(beta, d)
            ta, _ = coherent_vector((alpha + beta) / math.sqrt(2), d)
            tb, _ = coherent_vector((-alpha + beta) / math.sqrt(2), d)
            ok &= np.max(np.abs(u @ np.kron(va, vb) - np.kron(ta, tb))) < 1e-10
    totals = total_photon_numbers(2, d)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        w = beam_splitter_unitary(lam, d)
        # exact block structure, so global unitarity reduces to the blocks
        ok &= bool(np.all(w[totals[:, None] != totals[None, :]] == 0.0))
        for n in range(2 * d - 1):
            flat = np.where(totals == n)[0]
            block = w[np.ix_(flat, flat)]
            ok &= np.max(np.abs(block @ block.conj().T - np.eye(flat.size))) < 1e-10
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    assert report(7, "beam splitter closed forms, unitarity, blocks", ok, elapsed, 5)


def test_criterion_08a_fock_dilution_printed_form():
    # Known-red: the reference expression is provably below the protocol's own
    # first-round success probability whenever p < 1; asserted as stated rather
    # than weakened. See the module docstring.
    t0 = time.time()
    worst = 0.0
    for n in (2, 3, 4):
        for p in (0.5, 1.0):
            for lam in (0.3, 0.5, 0.7):
                sim = fock_dilution(n, p, lam).success_probability
                worst = max(worst, abs(sim - closed_form_ps(n, p, lam)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8
    assert report(8, f"fock dilution vs printed closed form, worst {worst:.3e}", ok, elapsed, 60)


def test_criterion_08b_fock_dilution_limit():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        for p in (0.5, 1.0):
            out = fock_dilution(n, p, 0.999)
            ok &= abs(out.success_probability / p - 1) < 0.01
    elapsed = time.time() - t0
    assert report(8, "fock dilution approaches p at lam=0.999", ok, elapsed, 60)


def test_criterion_08c_cat_protocols():
    t0 = time.time()
    ok = True
    for alpha in (0.5, 1.0, 1.5, 2.0):
        sims = cat_amplification(alpha)
        forms = cat_amplification_formulas(alpha)
        ok &= abs(sims["ours"].success_probability - forms["ours"]) < 1e-8
        ok &= abs(sims["lund"].success_probability - forms["lund"]) < 1e-8
        dil = cat_dilution(alpha)
        dforms = cat_dilution_formulas(alpha)
        ok &= abs(dil.details["branch_plus"] - dforms["branch_plus"]) < 1e-8
        ok &= abs(dil.details["branch_minus"] - dforms["branch_minus"]) < 1e-8
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    assert report(8, "cat amplification and dilution vs closed forms", ok, elapsed, 60)


def test_criterion_09_rate_tightness():
    t0 = time.time()
    rb = noisy_fock_dilution_rate_bound(100, 1.0)
    elapsed = time.time() - t0
    ok = 1.0 <= rb.value <= 1.01 and elapsed < 1.0
    assert report(9, f"n=100 dilution ratio {rb.value:.6f}", ok, elapsed, 1)


@pytest.mark.slow
def test_criterion_10_sandwich_soundness():
    t0 = time.time()
    d = 50
    ok = True

    def check_state(spec, deficit_tol=1e-6):
        nonlocal ok
        rho = make_state(spec, deficit_tol=deficit_tol)
        energy = exact_energy(spec)
        lo, hi = bound_sandwich(rho)
        lowers = [lo.value, husimi_lower_bound(rho).value]
        uppers = [hi.value, energy_upper_bound(energy, 1).value,
                  wehrl_upper_bound(rho).value]
        slack = 1e-9
        for low in lowers:
            for up in uppers:
                if low > up + slack:
                    ok = False
                    print(f"  ORDER VIOLATION {spec.family} {spec.params}: {low} > {up}")
        return lo, hi

    for n in range(0, 5):
        check_state(StateSpec("fock", {"n": n}, d))
    check_state(StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.5}, d))
    check_state(StateSpec("noisy_fock", {"n": 2, "nu": 1, "p": 0.7}, d))
    check_state(StateSpec("thermal", {"nu": 1}, d))
    check_state(StateSpec("coherent", {"alpha": 1}, d))
    for alpha in (0.5, 1.0, 2.0):
        check_state(StateSpec("cat", {"alpha": alpha, "sign": "+"}, d))
    for r in (0.25, 0.5, 1.0):
        check_state(StateSpec("squeezed", {"r": r}, 70), deficit_tol=1e-5)

    lo_cat, hi_cat = bound_sandwich(
        make_state(StateSpec("cat", {"alpha": 2.5, "sign": "+"}, 60), deficit_tol=1e-7))
    width = hi_cat.value - lo_cat.value
    contained = 0.5 <= lo_cat.value and hi_cat.value <= 1.5
    ok = ok and contained and width < 0.5
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    assert report(
        10,
        f"sandwich soundness; cat(2.5) in [{lo_cat.value:.5f}, {hi_cat.value:.5f}]",
        ok,
        elapsed,
        600,
    )


def test_criterion_11_basel_divergence():
    t0 = time.time()
    grid = [10, 10**2, 10**3, 10**4, 10**5]
    vals = [basel_divergence_bound(n) for n in grid]
    monotone = all(a < b for a, b in zip(vals, vals[1:]))
    final = basel_divergence_bound(2 * 10**5)
    elapsed = time.time() - t0
    ok = monotone and final > 1.0 and elapsed < 5.0
    assert report(11, f"basel bound monotone, 2e5 -> {final:.4f} bits", ok, elapsed, 5)


@pytest.mark.slow
def test_criterion_12_truncation_certificate():
    t0 = time.time()
    ok = abs(truncation_certificate(0.1, 1.0, 1) - 1.063457) < 1e-6

    def corrected_lower(spec, cutoff):
        spec_d = StateSpec(spec.family, spec.params, cutoff)
        rho = make_state(spec_d, deficit_tol=1e-5)
        energy = exact_energy(spec_d)
        if spec.family == "cat":
            return cat_gamma_lower_bound(rho).value
        if spec.family == "squeezed":
            lo, _ = gaussian_bounds(gaussian_descriptor(spec_d))
            eps = math.sqrt(max(rho.trace_deficit, 0.0))
            return max(0.0, lo.value - truncation_certificate(min(1.0, eps), energy, 1))
        if spec.family == "coherent":
            return 0.0
        return fock_diagonal_ncm(rho).lower.value

    suite = [
        (StateSpec("coherent", {"alpha": 1}, 30), 30),
        (StateSpec("thermal", {"nu": 1}, 45), 45),
        (StateSpec("noisy_fock", {"n": 2, "nu": 1, "p": 0.7}, 38), 38),
        (StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.5}, 25), 25),
        (StateSpec("fock", {"n": 2}, 20), 20),
        (StateSpec("cat", {"alpha": 1, "sign": "+"}, 35), 35),
        (StateSpec("squeezed", {"r": 0.5}, 55), 55),
        (StateSpec("squeezed", {"r": 1.0}, 75), 75),
    ]
    worst = 0.0
    for spec, d in suite:
        a = corrected_lower(spec, d)
        b = corrected_lower(spec, d + 10)
        worst = max(worst, abs(a - b))
    elapsed = time.time() - t0
    ok = ok and worst < 1e-3 and elapsed < 300.0
    assert report(12, f"certificate arithmetic; cutoff stability {worst:.2e}", ok, elapsed, 300)
