import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from cvres.errors import DegenerateParameterError, UsageError
from cvres.fock_core import DensityOperator, coherent_vector, fock_state
from cvres.states import StateSpec, cat_amplitudes, make_state
from cvres.nonclassicality import MonotoneBound, fock_closed_form
from cvres import rates
from cvres.rates import (
    ProtocolOutcome,
    cat_amplification,
    cat_amplification_formulas,
    cat_dilution,
    cat_dilution_formulas,
    closed_form_ps,
    fock_dilution,
    free_energy,
    noisy_fock_dilution_rate_bound,
    protocol_figure_data,
    rate_upper_bound,
    thermo_rate_bound,
)
from oracles import beam_splitter_unitary, fock_dilution_monte_carlo, tensor_states


def ideal_free_energy(spec, beta):
    """D(rho || gamma_beta) of the ideal state in bits, from 50-digit sums over levels < 2000."""
    p = spec.params
    with mpmath.workdps(50):
        k = range(2000)
        if spec.family in ("fock", "thermal", "noisy_fock"):
            prob = mpmath.mpf(p.get("p", 1.0 if "n" in p else 0.0))
            nu = mpmath.mpf(p.get("nu", 0.0))
            w = [(1 - prob) * nu**j / (1 + nu) ** (j + 1) + (prob if j == p.get("n") else 0)
                 for j in k]
            entropy = -mpmath.fsum(x * mpmath.log(x, 2) for x in w if x > 0)
        else:  # pure: |amplitude|^2 on each level, zero entropy
            def series(first, ratio, size):
                out = [first]
                for j in range(1, size):
                    out.append(out[-1] * ratio(j))
                return out

            if spec.family == "squeezed":
                r = mpmath.mpf(p["r"])
                quarter_t2 = (mpmath.tanh(r) / 2) ** 2
                even = series(1 / mpmath.cosh(r), lambda n: 2 * (2 * n - 1) * quarter_t2 / n, 1000)
                w = [x for e in even for x in (e, 0)]
            else:
                a2 = abs(mpmath.mpc(p["alpha"].real, p["alpha"].imag)) ** 2
                w = series(mpmath.exp(-a2), lambda j: a2 / j, 2000)
                if spec.family == "cat":
                    parity = 0 if p["sign"] == "+" else 1
                    w = [x if j % 2 == parity else 0 for j, x in enumerate(w)]
            total = mpmath.fsum(w)
            w = [x / total for x in w]
            entropy = 0
        energy = mpmath.fsum(j * x for j, x in zip(k, w))
        return (beta * energy - mpmath.log(1 - mpmath.exp(-beta))) / mpmath.log(2) - entropy


def loop_series_oracle(n, p, lam, rounds=100000):
    """Independent brute-force sum of the recursion, no telescoping."""
    total = 0.0
    prefix = 1.0
    p_t = p
    for _ in range(rounds):
        total += prefix * p_t * n * lam ** (n - 1) * (1 - lam)
        stay = p_t * lam**n + 1 - p_t
        prefix *= stay
        p_t = p_t * lam**n / stay
        if prefix < 1e-18:
            break
    return total


class TestFockDilution:
    def test_example_two_thirds(self):
        out = fock_dilution(2, 1.0, 0.5)
        assert out.success_probability == pytest.approx(2 / 3, abs=1e-12)
        assert out.output_fidelity_check >= 1 - 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_simulation_matches_series_oracle(self, n, p, lam):
        out = fock_dilution(n, p, lam)
        assert out.success_probability == pytest.approx(loop_series_oracle(n, p, lam), abs=1e-10)

    @pytest.mark.parametrize("n,lam", [(2, 0.3), (3, 0.5), (4, 0.7)])
    def test_printed_formula_at_unit_p(self, n, lam):
        # at p = 1 the printed closed form and the loop agree exactly
        out = fock_dilution(n, 1.0, lam)
        assert out.success_probability == pytest.approx(closed_form_ps(n, 1.0, lam), abs=1e-10)

    def test_printed_formula_is_loop_after_one_filter(self):
        # the printed expression reproduces the loop started from the once-filtered
        # state: closed_form_ps(n, p, lam) == loop(n, p', lam) with the posterior p'
        for (n, p, lam) in [(2, 0.5, 0.5), (3, 0.5, 0.3), (4, 0.5, 0.7)]:
            p_post = p * lam**n / (p * lam**n + 1 - p)
            assert closed_form_ps(n, p, lam) == pytest.approx(
                fock_dilution(n, p_post, lam).success_probability, abs=1e-10
            )

    @pytest.mark.parametrize("n", [2, 3, 10, 30, 52, 53, 60, 200, 2000])
    def test_printed_formula_against_50_digits(self, n):
        # lam^n below an ulp of 1 made p lam^n + 1 - p read 0 at p = 1 (n log2(1/lam) >= 53)
        # and lost its digits before that; 1 - p is grouped so that mpmath does not cancel
        with mpmath.workdps(50):
            for lam in (0.3, 0.5, 0.9, 0.999):
                for p in (0.1, 0.5, 1.0):
                    mp_lam, mp_p = mpmath.mpf(lam), mpmath.mpf(p)
                    ref = (mp_p * n * (1 - mp_lam) * mp_lam ** (2 * n - 1)
                           / ((1 - mp_lam**n) * (mp_p * mp_lam**n + (1 - mp_p))))
                    assert closed_form_ps(n, p, lam) == pytest.approx(float(ref), rel=1e-12,
                                                                      abs=0.0), (lam, p)

    @pytest.mark.parametrize("n,p", [(2, 0.5), (3, 1.0), (4, 0.7)])
    def test_lambda_to_one_limit(self, n, p):
        out = fock_dilution(n, p, 0.999)
        assert abs(out.success_probability / p - 1) < 0.01

    def test_p_to_zero(self):
        assert fock_dilution(2, 1e-9, 0.5).success_probability < 1e-8

    def test_degenerate_lambda(self):
        with pytest.raises(DegenerateParameterError):
            fock_dilution(2, 1.0, 1.0)
        with pytest.raises(DegenerateParameterError):
            fock_dilution(2, 1.0, 0.0)

    def test_requires_two_photons(self):
        with pytest.raises(UsageError):
            fock_dilution(1, 1.0, 0.5)

    def test_monte_carlo_cross_check(self):
        for p in (1.0, 0.5):
            exact = fock_dilution(2, p, 0.5).success_probability
            sampled = fock_dilution_monte_carlo(2, p, 0.5, shots=4000, seed=3)
            assert abs(sampled - exact) < 0.03


class TestCatAmplification:
    # alpha = 4 has d = 136, out of reach of a dense d^2 x d^2 beam splitter
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 4.0])
    def test_matches_formulas(self, alpha):
        sims = cat_amplification(alpha)
        forms = cat_amplification_formulas(alpha)
        assert sims["ours"].success_probability == pytest.approx(forms["ours"], abs=1e-8)
        assert sims["lund"].success_probability == pytest.approx(forms["lund"], abs=1e-8)
        for out in sims.values():
            assert out.output_fidelity_check >= 1 - 1e-9
            assert out.rate_lower_bound == pytest.approx(out.success_probability / 2)

    def test_alpha_one_values(self):
        forms = cat_amplification_formulas(1.0)
        assert forms["ours"] == pytest.approx(0.290013, abs=1e-6)
        assert forms["lund"] == pytest.approx(0.157840, abs=1e-5)

    def test_large_alpha_limit_and_ordering(self):
        assert cat_amplification_formulas(4.0)["ours"] == pytest.approx(0.5, abs=1e-6)
        for alpha in np.linspace(1.0, 3.0, 9):
            forms = cat_amplification_formulas(alpha)
            assert forms["ours"] >= forms["lund"]

    @pytest.mark.parametrize("alpha", [1e-4, 3e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1.0, 3.0, 10.0,
                                       22.5])
    def test_small_and_large_alpha_keep_their_digits(self, alpha):
        # 1 - sech(2 a^2) and the old herald's e_0 - sqrt(sech(2 a^2)) T cancelled as a^4:
        # "lund" read 5.7e3 times its value at alpha = 1e-3
        sims = cat_amplification(alpha)
        forms = cat_amplification_formulas(alpha)
        for name in ("ours", "lund"):
            assert sims[name].success_probability == pytest.approx(forms[name], rel=1e-10, abs=0.0)
            assert sims[name].output_fidelity_check == pytest.approx(1.0, abs=1e-10)

    def test_tiny_alpha(self):
        sims = cat_amplification(1e-8)
        for name, form in cat_amplification_formulas(1e-8).items():
            assert sims[name].success_probability == pytest.approx(form, rel=1e-10, abs=0.0)
        with pytest.raises(UsageError, match="0 in floating point"):
            cat_amplification(1e-300)

    def test_insufficient_cutoff_named(self):
        from cvres.errors import InsufficientCutoffError

        with pytest.raises(InsufficientCutoffError) as err:
            cat_amplification(2.0, cutoff=10)
        assert err.value.required_cutoff > 10


def _cosh_amplification_formulas(alpha):
    a2 = alpha * alpha
    lund = math.exp(-a2) * math.cosh(2 * a2) * math.sinh(a2 / 2) ** 2 / math.cosh(a2) ** 2
    return {"ours": 0.5 * math.tanh(a2) ** 2, "lund": lund}


def _cosh_dilution_formulas(alpha):
    a2 = alpha * alpha
    c2 = math.cosh(2 * a2)
    return {"branch_plus": math.cosh(a2) ** 2 / c2, "branch_minus": math.sinh(a2) ** 2 / c2,
            "rate": math.sinh(a2) ** 2 / (2 * c2)}


class TestCatFormulasWithoutOverflow:
    # cosh(2 alpha^2) overflows from alpha of about 18.9, below the cat cutoff limit of 4096
    @pytest.mark.parametrize("alpha", [19.0, 22.0, 100.0])
    def test_finite_at_large_alpha(self, alpha):
        forms = {**cat_amplification_formulas(alpha), **cat_dilution_formulas(alpha)}
        assert all(math.isfinite(v) for v in forms.values())
        assert forms["ours"] == forms["lund"] == forms["branch_minus"] == 0.5

    def test_match_the_cosh_forms(self):
        for alpha in np.linspace(0.01, 5.0, 60):
            for new, ref in ((cat_amplification_formulas(alpha),
                              _cosh_amplification_formulas(alpha)),
                             (cat_dilution_formulas(alpha), _cosh_dilution_formulas(alpha))):
                assert new.keys() == ref.keys()
                for key in ref:
                    assert new[key] == pytest.approx(ref[key], rel=1e-14, abs=0.0)


class TestCatDilution:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 4.0])
    def test_branches_match_formulas(self, alpha):
        out = cat_dilution(alpha)
        forms = cat_dilution_formulas(alpha)
        assert out.details["branch_plus"] == pytest.approx(forms["branch_plus"], abs=1e-8)
        assert out.details["branch_minus"] == pytest.approx(forms["branch_minus"], abs=1e-8)
        assert out.details["branch_sum"] == pytest.approx(1.0, abs=1e-10)
        assert out.output_fidelity_check >= 1 - 1e-9

    def test_rate_value(self):
        assert cat_dilution(1.0).rate_lower_bound == pytest.approx(0.183550, abs=1e-6)

    def test_rate_vanishes_at_small_alpha(self):
        assert cat_dilution(0.05).rate_lower_bound < 1e-4


class TestDenseReference:
    """The beam-splitter identities against contracting the dense unitary.

    Each protocol is run twice: once as is, and once with each heralded output
    replaced by the dense unitary applied to the product input and contracted with
    the herald, so the heralds and the branch arithmetic are shared and only the
    joint state differs.
    """

    @staticmethod
    def run_dense(monkeypatch, protocol, alpha, left, right):
        def dense_heralded(terms, d, ket):
            u = beam_splitter_unitary(0.5, d)
            return (u @ np.kron(left(d), right(d))).reshape(d, d) @ ket

        with monkeypatch.context() as m:
            m.setattr(rates, "_heralded", dense_heralded)
            return protocol(alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_cat_amplification(self, monkeypatch, alpha):
        small = lambda d: cat_amplitudes(alpha, "+", d)
        dense = self.run_dense(monkeypatch, cat_amplification, alpha, small, small)
        sims = cat_amplification(alpha)
        for name in ("ours", "lund"):
            assert sims[name].success_probability == pytest.approx(
                dense[name].success_probability, abs=1e-10)
            assert sims[name].output_fidelity_check == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_cat_dilution(self, monkeypatch, alpha):
        big = lambda d: cat_amplitudes(math.sqrt(2.0) * alpha, "+", d)
        vac = lambda d: np.eye(d)[0]
        dense = self.run_dense(monkeypatch, cat_dilution, alpha, big, vac)
        sim = cat_dilution(alpha)
        for key in ("branch_plus", "branch_minus"):
            assert sim.details[key] == pytest.approx(dense.details[key], abs=1e-10)
        assert sim.output_fidelity_check == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_fock_branches(self, n, lam):
        d = n + 1
        vec = np.zeros(d * d, dtype=complex)
        vec[n * d] = 1.0
        out = (beam_splitter_unitary(lam, d) @ vec).reshape(d, d)
        sim = fock_dilution(n, 1.0, lam)
        p1 = float(np.sum(np.abs(out[:, 1]) ** 2))
        assert sim.details["p0_fock_simulated"] == pytest.approx(
            float(np.sum(np.abs(out[:, 0]) ** 2)), abs=1e-10)
        assert sim.details["p1_fock_simulated"] == pytest.approx(p1, abs=1e-10)
        assert sim.output_fidelity_check == pytest.approx(abs(out[n - 1, 1]) ** 2 / p1, abs=1e-10)

    def test_herald_holds_no_joint_state(self):
        # the ancilla is contracted term by term: no d x d array is formed, where the
        # joint amplitude matrix alone took 8 d^2 bytes
        alpha = 10.0
        d = rates._check_cutoff(alpha, None)
        terms = [(0.5, s * alpha, t * alpha) for s in (1, -1) for t in (1, -1)]
        reference = np.zeros((d, d))  # the joint amplitude matrix as a sum of outer products
        for w, a, b in terms:
            left, right = (np.real(coherent_vector(x / math.sqrt(2.0), d)[0])
                           for x in (a + b, b - a))
            reference += w * np.outer(left, right)
        ket = np.random.default_rng(7).normal(size=d)
        ket /= np.linalg.norm(ket)
        tracemalloc.start()
        try:
            amp = rates._heralded(terms, d, ket)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d > 800
        np.testing.assert_allclose(amp, reference @ ket, rtol=0.0, atol=8 * np.finfo(float).eps)
        assert peak < 8 * d * d / 20


class TestProtocolOutcome:
    def test_rate_derived_and_keyword_only(self):
        outs = [fock_dilution(3, 0.5, 0.4), *cat_amplification(1.0).values(), cat_dilution(1.0)]
        assert len(outs) == 4
        for out in outs:
            assert out.rate_lower_bound == out.success_probability * out.copies_out / out.copies_in
        # a positional call written for the old field order would shift every later field
        with pytest.raises(TypeError):
            ProtocolOutcome(0.5, 2.0, 1.0, 1.0)


class TestRateBounds:
    def test_identity_transformation(self):
        up = MonotoneBound("NC", "upper", fock_closed_form(3), {})
        lo = MonotoneBound("NCM", "lower", fock_closed_form(3), {})
        rb = rate_upper_bound(up, lo)
        assert rb.value == pytest.approx(1.0, abs=3e-4)

    def test_noisy_fock_ratio_near_one(self):
        rb = noisy_fock_dilution_rate_bound(100, 1.0)
        assert 1.0 <= rb.value <= 1.01
        rb_scaled = noisy_fock_dilution_rate_bound(100, 0.5)
        assert rb_scaled.value == pytest.approx(0.5 * rb.value, rel=1e-12)

    def test_classical_source_rate_zero(self):
        up = MonotoneBound("NC", "upper", 5e-7, {})
        lo = MonotoneBound("NCM", "lower", fock_closed_form(1), {})
        rb = rate_upper_bound(up, lo)
        assert rb.value <= 1e-4 and not rb.undefined

    def test_undefined_flag(self):
        up = MonotoneBound("NC", "upper", 0.0, {})
        lo = MonotoneBound("NCM", "lower", 0.0, {})
        assert rate_upper_bound(up, lo).undefined

    def test_positive_over_zero_is_infinite(self):
        up = MonotoneBound("NC", "upper", 1.0, {})
        lo = MonotoneBound("NCM", "lower", 0.0, {})
        rb = rate_upper_bound(up, lo)
        assert rb.value == math.inf and not rb.undefined


class TestFreeEnergy:
    def test_thermal_state_zero(self):
        beta = math.log(2)
        gamma = make_state(StateSpec("thermal", {"nu": 1}, 40))
        assert free_energy(gamma, beta) == pytest.approx(0.0, abs=1e-9)

    def test_vacuum_one_bit(self):
        vac = fock_state(0, 40)
        assert free_energy(vac, math.log(2)) == pytest.approx(1.0, abs=1e-10)

    def test_additivity_on_random_diagonals(self):
        rng = np.random.default_rng(4)
        beta = 0.8
        for _ in range(10):
            p = rng.dirichlet(np.ones(12))
            q = rng.dirichlet(np.ones(12))
            a = DensityOperator.from_hermitian(np.diag(p).astype(complex), 1, 12)
            b = DensityOperator.from_hermitian(np.diag(q).astype(complex), 1, 12)
            joint = tensor_states(a, b)
            assert free_energy(joint, beta) == pytest.approx(
                free_energy(a, beta) + free_energy(b, beta), abs=1e-8
            )

    def test_identity_ratio(self):
        one = fock_state(1, 30)
        assert thermo_rate_bound(one, one, 1.0).value == pytest.approx(1.0)

    def test_deep_fock_levels_finite(self):
        # e^(-2k) falls below 1e-15 from k = 18: that Gibbs level is no support violation
        beta = 2.0
        for n in (18, 19):
            exact = beta * n * math.log2(math.e) - math.log2(1.0 - math.exp(-beta))
            assert free_energy(fock_state(n, 20), beta) == pytest.approx(exact, rel=1e-13)
        assert free_energy(fock_state(18, 20), beta) == pytest.approx(52.1468, abs=1e-4)
        rb = thermo_rate_bound(fock_state(19, 20), fock_state(1, 20), beta)
        assert not rb.undefined
        assert rb.value == pytest.approx(free_energy(fock_state(19, 20), beta)
                                         / free_energy(fock_state(1, 20), beta), rel=1e-14)

    def test_gibbs_denominator_undefined(self):
        beta = math.log(2)
        gamma = make_state(StateSpec("thermal", {"nu": 1}, 40))
        vac = fock_state(0, 40)
        assert thermo_rate_bound(vac, gamma, beta).undefined

    @pytest.mark.parametrize("spec, beta", [
        (StateSpec("thermal", {"nu": 0.4}, 40), 1.3),
        (StateSpec("thermal", {"nu": 4.0}, 200), 0.5),
        (StateSpec("fock", {"n": 3}, 4), 2.0),
        (StateSpec("noisy_fock", {"n": 2, "nu": 1.0, "p": 0.5}, 40), 2.0),
        (StateSpec("noisy_fock", {"n": 6, "nu": 0.3, "p": 0.05}, 40), 0.7),
        (StateSpec("noisy_fock", {"n": 1, "nu": 0.0, "p": 0.8}, 2), 3.0),
        (StateSpec("squeezed", {"r": 0.7}, 120), 1.0),
        (StateSpec("cat", {"alpha": 1.5, "sign": "+"}, 40), 0.8),
        (StateSpec("coherent", {"alpha": [0.5, -1.0]}, 40), 2.0),
    ], ids=lambda v: v.to_json() if isinstance(v, StateSpec) else str(v))
    def test_spec_state_reads_closed_form(self, spec, beta):
        rho = make_state(spec, deficit_tol=1e-6)
        assert free_energy(rho, beta) == pytest.approx(float(ideal_free_energy(spec, beta)),
                                                       rel=1e-12)

    # ROADMAP item 15's table: a truncation at these cutoffs read below the ideal value
    @pytest.mark.parametrize("spec, tol, beta", [
        (StateSpec("thermal", {"nu": 2.0}, 40), 1e-4, 2.0),
        (StateSpec("thermal", {"nu": 2.0}, 40), 1e-4, 0.5),
        (StateSpec("squeezed", {"r": 1.0}, 60), 1e-4, 2.0),
        (StateSpec("squeezed", {"r": 1.0}, 120), 1e-8, 2.0),
        (StateSpec("noisy_fock", {"n": 2, "nu": 1.0, "p": 0.5}, 30), 1e-4, 2.0),
        (StateSpec("cat", {"alpha": 2.0, "sign": "-"}, 24), 1e-8, 2.0),
    ], ids=lambda v: v.to_json() if isinstance(v, StateSpec) else str(v))
    def test_rate_bracket_holds_the_ideal_value(self, spec, tol, beta):
        rho = make_state(spec, deficit_tol=tol)
        ideal = ideal_free_energy(spec, beta)
        rb = thermo_rate_bound(rho, rho, beta)
        assert rb.numerator.value >= ideal >= rb.denominator.value
        truncated = free_energy(DensityOperator.from_matrix(rho.entries, 1, spec.cutoff), beta)
        assert truncated < ideal  # what the spec's closed form mends


@pytest.mark.slow
class TestFigureData:
    def test_soundness_and_trend(self):
        rows = protocol_figure_data("dilute", [0.7, 1.4])
        for row in rows:
            assert row["upper_rate"] is None or row["upper_rate"] >= row["lower_rate"]
        ratios = [r["upper_rate"] / r["lower_rate"] for r in rows if r["upper_rate"]]
        assert ratios[1] < ratios[0]  # gap shrinks with alpha

    def test_amplify_sound(self):
        rows = protocol_figure_data("amplify", [0.8])
        assert rows[0]["upper_rate"] >= rows[0]["lower_rate"]
