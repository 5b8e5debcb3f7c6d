import math

import numpy as np
import pytest

from cvres.errors import DegenerateParameterError, UsageError
from cvres.fock_core import DensityOperator, fock_state, tensor_states
from cvres.states import StateSpec, cat_amplitudes, make_state
from cvres.nonclassicality import MonotoneBound, fock_closed_form
from cvres import rates
from cvres.rates import (
    ProtocolOutcome,
    _one_round_branches,
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
from oracles import beam_splitter_unitary, fock_dilution_monte_carlo


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

    Each protocol is run twice: once as is, and once with its joint amplitude
    matrix replaced by the dense unitary applied to the product input, so the
    heralds and the contraction are shared and only the joint state differs.
    """

    @staticmethod
    def run_dense(monkeypatch, protocol, alpha, left, right):
        def dense_split(terms, d):
            u = beam_splitter_unitary(0.5, d)
            return (u @ np.kron(left(d), right(d))).reshape(d, d)

        with monkeypatch.context() as m:
            m.setattr(rates, "_balanced_split", dense_split)
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
        p0, p1, fid = _one_round_branches(n, lam)
        assert p0 == pytest.approx(float(np.sum(np.abs(out[:, 0]) ** 2)), abs=1e-10)
        assert p1 == pytest.approx(float(np.sum(np.abs(out[:, 1]) ** 2)), abs=1e-10)
        assert fid == pytest.approx(abs(out[n - 1, 1]) ** 2 / p1, abs=1e-10)


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
