import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, minimize, minimize_scalar
from scipy.special import gammaln

from cvres import nonclassicality
from cvres.errors import UsageError
from cvres.fock_core import DensityOperator, coherent_vector, fock_state, pure_state
from cvres.entropies import von_neumann_entropy
from cvres.states import StateSpec, gaussian_descriptor, make_state
from cvres.nonclassicality import (
    MonotoneBound,
    OptimizerConfig,
    _curvature_table,
    _envelope_log_weights,
    basel_divergence_bound,
    bound_sandwich,
    bound_sandwich_product,
    cat_gamma_lower_bound,
    classical_ansatz_upper_bound,
    coherent_sup_certified,
    energy_upper_bound,
    fock_closed_form,
    fock_diagonal_ncm,
    g_thermal,
    gamma_lower_bound,
    gaussian_bounds,
    husimi_lower_bound,
    noisy_fock_closed_form,
    truncation_certificate,
    wehrl_upper_bound,
)

LOG2E = math.log2(math.e)


class TestCoherentSup:
    def test_truncated_identity(self):
        cert = coherent_sup_certified(np.eye(6).astype(complex))
        assert cert.value == pytest.approx(1.0, abs=1e-9)

    def test_single_photon_projector(self):
        cert = coherent_sup_certified(np.diag([0, 1, 0, 0, 0]).astype(complex))
        assert cert.value == pytest.approx(math.exp(-1), rel=1e-9)
        assert cert.argmax_t == pytest.approx(1.0, abs=1e-4)

    def test_two_level_calculus_oracle(self):
        # max_t e^-t (1 + 2t) attained at t = 1/2 with value 2 e^{-1/2}
        cert = coherent_sup_certified(np.diag([1.0, 2.0, 0, 0]).astype(complex))
        assert cert.value == pytest.approx(2 * math.exp(-0.5), rel=1e-8)

    def test_upper_bounds_random_evaluations(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            l_mat = g @ g.conj().T
            cert = coherent_sup_certified(l_mat)
            from cvres.fock_core import coherent_vector

            for alpha in rng.normal(size=8) + 1j * rng.normal(size=8):
                v, _ = coherent_vector(alpha, 6)
                assert np.real(np.vdot(v, l_mat @ v)) <= cert.value * (1 + 1e-12) + 1e-12

    def test_scale_invariance_of_objective(self):
        l_mat = np.diag([1.0, 2.0, 0.5, 0.1]).astype(complex)
        v1 = coherent_sup_certified(l_mat).value
        v2 = coherent_sup_certified(7.3 * l_mat).value
        assert abs(math.log2(v2 / v1) - math.log2(7.3)) < 1e-10


def _displaced_fock1(beta: complex, d: int, pad: int = 60) -> np.ndarray:
    """Truncated D(beta)|1> = (a^dagger - conj(beta))|beta>, whose amplitudes alternate in sign."""
    coh, _ = coherent_vector(beta, pad)
    raised = np.zeros(pad, dtype=complex)
    raised[1:] = np.sqrt(np.arange(1, pad)) * coh[:-1]
    return (raised - np.conj(beta) * coh)[:d]


def _sup_test_matrix(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind.startswith("random"):
        d = int(kind[len("random"):])
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return g @ g.conj().T
    if kind == "displaced":
        beta = complex(*rng.uniform(-1.2, 1.2, size=2))
        vec = _displaced_fock1(beta, 20)
        return np.outer(vec, vec.conj()) + 1e-3 * np.eye(20)
    d = int(kind[len("flat"):])
    return np.diag(1.0 + 1e-3 * rng.random(d)).astype(complex)


SUP_KINDS = ["random6", "random12", "random24", "displaced", "flat20", "flat40"]


def _envelope(l_mat: np.ndarray, t: float) -> float:
    """e^(-t) v^T |L| v with v_j = t^(j/2)/sqrt(j!), the phase-blind envelope at t."""
    j = np.arange(l_mat.shape[0])
    v = np.exp(0.5 * j * math.log(t) - 0.5 * gammaln(j + 1)) if t > 0 else (j == 0) * 1.0
    return math.exp(-t) * float(v @ np.abs(l_mat) @ v)


def _largest_coherent_value(l_mat: np.ndarray, cert, seed: int) -> float:
    """Largest <alpha|L|alpha> over random and ring samples, polished by Nelder-Mead."""
    d = l_mat.shape[0]
    rng = np.random.default_rng(100 + seed)
    radius = rng.uniform(0.0, math.sqrt(d) + 1.0, size=300)
    alphas = radius * np.exp(2j * math.pi * rng.random(300))
    ring = math.sqrt(cert.argmax_t) * np.exp(2j * math.pi * np.arange(32) / 32)
    alphas = np.append(alphas, ring)

    def value(x):
        v, _ = coherent_vector(complex(x[0], x[1]), d)
        return float(np.real(np.vdot(v, l_mat @ v)))

    samples = [value((z.real, z.imag)) for z in alphas]
    # polish the best sample into a local maximum, which a loose certificate misses
    start = alphas[int(np.argmax(samples))]
    res = minimize(lambda x: -value(x), [start.real, start.imag], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 2000})
    return max(max(samples), -res.fun)


class TestCertifiedSupSoundness:
    @pytest.mark.parametrize("tol", [3e-7, 1e-9, 1e-12])
    @pytest.mark.parametrize("kind", SUP_KINDS)
    def test_sampled_values_below_certificate(self, kind, tol):
        for seed in range(2):
            l_mat = _sup_test_matrix(kind, seed)
            cert = coherent_sup_certified(l_mat, tol=tol)
            best = cert.value - cert.gap
            assert cert.gap <= tol * best
            # within tol of the envelope value attained at argmax_t (or below it, at the cap)
            assert cert.value <= _envelope(l_mat, cert.argmax_t) * (1 + tol + 1e-12)
            assert _largest_coherent_value(l_mat, cert, seed) <= cert.value * (1 + 1e-12)

    # on random12 and random24 the top eigenvalue caps the envelope before any split
    @pytest.mark.parametrize("kind", ["random6", "displaced", "flat20", "flat40"])
    def test_exhausted_split_budget_stays_sound(self, kind, monkeypatch):
        # the budget runs out with segments still live, so their bounds must count
        monkeypatch.setattr(nonclassicality, "SUP_MAX_SPLITS", 2)
        tol = 1e-12
        for seed in range(2):
            l_mat = _sup_test_matrix(kind, seed)
            cert = coherent_sup_certified(l_mat, tol=tol)
            best = cert.value - cert.gap
            assert cert.gap > tol * best
            assert _largest_coherent_value(l_mat, cert, seed) <= cert.value * (1 + 1e-12)


class TestCurvatureTable:
    @pytest.mark.parametrize("kind", SUP_KINDS)
    def test_matches_finite_differences(self, kind):
        ln_w = _envelope_log_weights(_sup_test_matrix(kind, 0))
        powers = 0.5 * np.arange(ln_w.size)
        finite = np.isfinite(ln_w)
        powers, weights = powers[finite], np.exp(ln_w[finite])
        exps, coefs, bound = _curvature_table(powers, weights)

        def envelope(t):
            return math.exp(-t) * float(np.sum(weights * t**powers))

        def seg_max(q, a, b):
            # max of t^q e^(-t) over [a, b], a > 0
            t_star = np.clip(q, a, b)
            return np.exp(q * np.log(t_star) - t_star)

        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = np.sort(rng.uniform(0.5, float(powers[-1]), size=2))
            table_bound = float(np.dot(bound, seg_max(exps, a, b)))
            # the same bound taken term by term, which cannot see cancellation
            termwise = float(np.dot(weights, (
                np.abs(powers * (powers - 1.0)) * seg_max(powers - 2.0, a, b)
                + 2.0 * powers * seg_max(powers - 1.0, a, b) + seg_max(powers, a, b))))
            assert table_bound <= termwise * (1 + 1e-12)
            for t in np.linspace(a, b, 7):
                h = 1e-3 * t
                fd = (-envelope(t + 2 * h) + 16 * envelope(t + h) - 30 * envelope(t)
                      + 16 * envelope(t - h) - envelope(t - 2 * h)) / (12 * h * h)
                exact = math.exp(-t) * float(np.dot(coefs, t**exps))
                assert abs(fd - exact) <= 1e-6 * termwise
                assert abs(exact) <= table_bound


class TestFockClosedForm:
    def test_values(self):
        assert fock_closed_form(0) == 0.0
        assert fock_closed_form(1) == pytest.approx(LOG2E, rel=1e-12)
        assert fock_closed_form(2) == pytest.approx(1.885390082, abs=1e-6)
        assert fock_closed_form(3) == pytest.approx(2.158160027, abs=1e-6)

    def test_large_n_asymptotics(self):
        exact = fock_closed_form(100)
        assert exact == pytest.approx(4.6489, abs=1e-4)
        assert abs(exact - 0.5 * math.log2(2 * math.pi * 100)) < 0.002


class TestFockDiagonal:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_fock_states(self, n):
        res = fock_diagonal_ncm(fock_state(n, 20))
        expected = fock_closed_form(n)
        assert res.lower.value == pytest.approx(expected, abs=1e-6)
        assert res.upper.value == pytest.approx(expected, abs=1e-6)
        assert res.gap <= 2e-6

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_noisy_fock_closed_form(self, p):
        rho = make_state(StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": p}, 12))
        res = fock_diagonal_ncm(rho)
        assert res.lower.value == pytest.approx(noisy_fock_closed_form(p), abs=1e-6)

    def test_printed_values(self):
        assert noisy_fock_closed_form(0.5) == pytest.approx(0.221348, abs=1e-6)
        assert noisy_fock_closed_form(0.9) == pytest.approx(0.966233, abs=1e-6)

    def test_thermal_is_classical(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 40))
        res = fock_diagonal_ncm(rho)
        assert res.lower.value == 0.0
        assert res.upper.value <= 1e-4

    def test_rejects_non_diagonal(self):
        rho = make_state(StateSpec("cat", {"alpha": 1, "sign": "+"}, 20))
        with pytest.raises(UsageError):
            fock_diagonal_ncm(rho)

    def test_rejects_empty_support(self):
        from cvres.states import FockDiagonalState

        with pytest.raises(UsageError):
            fock_diagonal_ncm(FockDiagonalState((0,), np.array([1e-20]), 0.0))


class TestGamma:
    def test_generic_dense_fock1(self):
        bound = gamma_lower_bound(fock_state(1, 20), OptimizerConfig(symmetry="none"))
        assert bound.value >= LOG2E - 1e-4
        assert bound.value <= LOG2E + 1e-9

    def test_displaced_fock1_flag_is_truthful(self):
        # D(1)|1> at cutoff 20: the dense ascent's line search fails far from the
        # optimum, which must not be reported as convergence
        d, pad = 20, 60
        coh, _ = coherent_vector(1.0, pad)
        raised = np.zeros(pad, dtype=complex)
        raised[1:] = np.sqrt(np.arange(1, pad)) * coh[:-1]
        vec = (raised - coh)[:d]
        rho = DensityOperator.from_matrix(np.outer(vec, vec.conj()), 1, d, validate=False)
        bound = gamma_lower_bound(rho)
        assert abs(bound.value - LOG2E) <= 1e-3 or not bound.converged

    def test_diagonal_route_fock1(self):
        bound = gamma_lower_bound(fock_state(1, 20))
        assert bound.value == pytest.approx(LOG2E, abs=1e-6)

    def test_classical_states_near_zero(self):
        coh = make_state(StateSpec("coherent", {"alpha": 1}, 30))
        assert gamma_lower_bound(coh).value <= 1e-6
        tau = make_state(StateSpec("thermal", {"nu": 1}, 40))
        assert gamma_lower_bound(tau).value <= 1e-4

    def test_mixture_of_coherents_classical(self):
        from cvres.fock_core import coherent_vector

        d = 35
        ent = np.zeros((d, d), dtype=complex)
        for a, w in ((0.5, 0.3), (-0.5, 0.3), (1.2j, 0.4)):
            v, _ = coherent_vector(a, d)
            ent += w * np.outer(v, v.conj())
        rho = DensityOperator.from_matrix(ent / np.real(np.trace(ent)), 1, d, validate=False)
        assert gamma_lower_bound(rho).value <= 1e-4

    def test_fock_diagonal_consistency(self):
        rho = make_state(StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.7}, 15))
        generic = gamma_lower_bound(rho)
        exact = fock_diagonal_ncm(rho)
        assert generic.value <= exact.upper.value + 1e-4

    def test_certificate_fields(self):
        bound = gamma_lower_bound(fock_state(1, 12))
        cert = bound.certificate
        for key in ("truncation_epsilon", "truncation_correction_bits",
                    "inner_sup_radius", "inner_sup_grid_error", "ansatz_description"):
            assert key in cert


class TestCatReflection:
    def test_saturation_at_large_alpha(self):
        bound = cat_gamma_lower_bound(2.5, "+", 60)
        assert 0.98 <= bound.value <= 1.0 + 1e-6

    def test_small_alpha_positive(self):
        bound = cat_gamma_lower_bound(0.5, "+", 30)
        assert bound.value > 0.05

    def test_odd_cat_close_to_single_photon(self):
        # as alpha -> 0 the odd cat approaches |1>, whose value is log2(e)
        bound = cat_gamma_lower_bound(0.25, "-", 30)
        assert bound.value > 1.2

    def test_out_of_range_point_stays_feasible(self, monkeypatch):
        # at x[3] = 60 the odd block must be exponentiated and traced at the same clipped value
        x_far = np.array([-8.0, 0.0, -8.0, 60.0])

        def fake_minimize(fun, x0, **kwargs):
            return OptimizeResult(x=x_far, fun=fun(x_far), success=True)

        rho = make_state(StateSpec("cat", {"alpha": 0.3, "sign": "-"}, 35), deficit_tol=1e-6)
        up = classical_ansatz_upper_bound(rho, "coherent_mixture", points=[0.3, -0.3, 0.0])
        monkeypatch.setattr(nonclassicality, "minimize", fake_minimize)
        lo = cat_gamma_lower_bound(0.3, "-", 35)
        assert lo.value <= up.value


class TestEnergyBound:
    def test_values(self):
        assert energy_upper_bound(0.0, 1).value == 0.0
        assert energy_upper_bound(1.0, 1).value == pytest.approx(2.0)
        e = math.sinh(1.0) ** 2
        expected = 2 * math.log2(math.cosh(1)) - 2 * e * math.log2(math.tanh(1))
        assert energy_upper_bound(e, 1).value == pytest.approx(expected, rel=1e-12)
        assert energy_upper_bound(e, 1).value == pytest.approx(2.337, abs=1e-3)

    def test_g_variational_identity(self):
        # g(x) = min over nu of log2(1+nu) - x log2(nu/(1+nu))
        for x in (0.5, 1.0, 2.0, 5.0):
            res = minimize_scalar(
                lambda nu: math.log2(1 + nu) - x * math.log2(nu / (1 + nu)),
                bounds=(1e-6, 60.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            assert res.fun == pytest.approx(g_thermal(x), abs=1e-8)


class TestWehrlHusimiPair:
    def test_vacuum(self):
        vac = fock_state(0, 12)
        up = wehrl_upper_bound(vac)
        lo = husimi_lower_bound(vac)
        assert up.value >= LOG2E - 1e-5
        assert up.value - up.certificate["grid_tail_bits"] == pytest.approx(LOG2E, abs=1e-5)
        assert lo.value == pytest.approx(0.0, abs=1e-8)

    def test_fock1_tightness(self):
        lo = husimi_lower_bound(fock_state(1, 15))
        assert lo.value == pytest.approx(LOG2E, abs=1e-7)

    def test_thermal_floor(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 40))
        assert husimi_lower_bound(rho).value == 0.0


class TestGaussianBounds:
    def test_vacuum(self):
        lo, hi = gaussian_bounds(gaussian_descriptor(StateSpec("coherent", {"alpha": 0}, 8)), 0.0)
        assert lo.value == pytest.approx(0.0, abs=1e-12)
        assert hi.value == pytest.approx(1 + LOG2E, rel=1e-12)

    def test_squeezed(self):
        lo, _ = gaussian_bounds(gaussian_descriptor(StateSpec("squeezed", {"r": 1}, 8)), 0.0)
        assert lo.value == pytest.approx(math.log2(math.cosh(1.0)), rel=1e-10)

    def test_thermal_floored(self):
        lo, _ = gaussian_bounds(gaussian_descriptor(StateSpec("thermal", {"nu": 1}, 8)), 2.0)
        assert lo.value == 0.0
        assert lo.certificate["raw_value_bits"] == pytest.approx(-1.0, abs=1e-10)


class TestClassicalAnsatz:
    def test_coherent_self(self):
        rho = make_state(StateSpec("coherent", {"alpha": 1.5}, 40))
        up = classical_ansatz_upper_bound(rho, "coherent_mixture", points=[1.5])
        assert up.value <= 1e-6

    def test_fock1_thermal_family(self):
        # 1-d calculus oracle: min over nu of D(|1><1| || tau_nu) = g(1) = 2 at nu = 1
        up = classical_ansatz_upper_bound(fock_state(1, 30), "thermal")
        assert up.value == pytest.approx(2.0, abs=1e-6)

    def test_cat2_mixture_gap(self):
        spec = StateSpec("cat", {"alpha": 2, "sign": "+"}, 40)
        rho = make_state(spec, deficit_tol=1e-7)
        up = classical_ansatz_upper_bound(rho, "coherent_mixture", points=[2.0, -2.0, 0.0])
        lo = cat_gamma_lower_bound(2.0, "+", 40)
        assert up.value - lo.value < 0.5
        assert lo.value <= up.value + 1e-9

    def test_squeezed_thermal_reports_both(self):
        spec = StateSpec("squeezed", {"r": 1}, 60)
        rho = make_state(spec, deficit_tol=1e-6)
        up = classical_ansatz_upper_bound(rho, "squeezed_thermal",
                                          energy=math.sinh(1) ** 2, squeeze_r=1.0)
        assert "closed_form_bits" in up.certificate
        # numerically verified value: min over s of log2(1+N) + sinh^2(r-s) log2(1+1/N)
        res = minimize_scalar(
            lambda s: math.log2(1 + 0.5 * (math.exp(2 * s) - 1))
            + math.sinh(1 - s) ** 2
            * math.log2(1 + 2 / (math.exp(2 * s) - 1)),
            bounds=(0.05, 1.5),
            method="bounded",
        )
        raw = up.value - up.certificate["truncation_correction_bits"]
        assert raw == pytest.approx(res.fun, abs=1e-6)

    @pytest.mark.parametrize("case", [(0.3, 40), (0.9, 80), "random"])
    def test_squeezed_thermal_frame_energy_identity(self, case):
        # reference: the squeezed-frame energy Tr[rho S n S^T] by an expm padded
        # far enough past the cutoff that its own truncation error is negligible
        from scipy.linalg import expm

        if case == "random":
            rng = np.random.default_rng(4)
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            mat = g @ g.conj().T
            rho = DensityOperator.from_matrix(mat / np.trace(mat), 1, 8)
        else:
            rho = make_state(StateSpec("squeezed", {"r": case[0]}, case[1]), deficit_tol=1e-5)
        rho_n = rho.renormalized() if rho.trace_deficit > 0 else rho
        d = rho.cutoff
        pad = d + 200
        ent_pad = np.zeros((pad, pad), dtype=complex)
        ent_pad[:d, :d] = rho_n.entries
        k = np.arange(pad - 2)
        a2 = np.zeros((pad, pad))
        a2[k, k + 2] = np.sqrt((k + 1.0) * (k + 2.0))
        number_op = np.diag(np.arange(pad, dtype=float))
        s_bits = von_neumann_entropy(rho_n)

        def d_reference(s):
            sq = expm(0.5 * s * (a2 - a2.T))
            frame = float(np.real(np.trace(ent_pad @ sq @ number_op @ sq.T)))
            n_s = 0.5 * (math.exp(2.0 * s) - 1.0)
            return -s_bits + math.log2(1 + n_s) - frame * math.log2(n_s / (1 + n_s))

        grid = [0.05, 0.3, 0.8]
        up = classical_ansatz_upper_bound(rho, "squeezed_thermal", grid=grid)
        raw = up.value - up.certificate["truncation_correction_bits"]
        best_s = float(up.certificate["ansatz_description"].split("best s=")[1])
        assert raw == pytest.approx(d_reference(best_s), abs=1e-9)
        assert raw <= min(d_reference(s) for s in grid) + 1e-9


@pytest.mark.slow
class TestDephasingMonotonicity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_dephased_cat_below_cat_upper(self, alpha):
        # dephasing is a classical channel, so the exact value of the dephased
        # cat cannot exceed any upper bound on the cat itself
        from cvres.fock_core import dephase

        d = 40
        spec = StateSpec("cat", {"alpha": alpha, "sign": "+"}, d)
        rho = make_state(spec, deficit_tol=1e-7)
        exact = fock_diagonal_ncm(dephase(rho))
        upper = classical_ansatz_upper_bound(rho, "coherent_mixture",
                                             points=[alpha, -alpha, 0.0])
        assert exact.lower.value <= upper.value + 1e-6


class TestTruncationCertificate:
    def test_hand_arithmetic(self):
        assert truncation_certificate(0.1, 1.0, 1) == pytest.approx(1.063457, abs=1e-6)

    def test_zero_eps(self):
        assert truncation_certificate(0.0, 5.0, 2) == 0.0

    def test_eps_one(self):
        assert truncation_certificate(1.0, 1.0, 1) == pytest.approx(g_thermal(2) + g_thermal(1))

    def test_zero_energy_collapses(self):
        assert truncation_certificate(1.0, 0.0, 1) == pytest.approx(g_thermal(1.0))

    def test_vanishes_with_eps(self):
        vals = [truncation_certificate(e, 1.0, 1) for e in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-4


class TestBasel:
    def test_trivial_at_zero(self):
        assert basel_divergence_bound(0) <= 0.0

    def test_strictly_increasing(self):
        assert basel_divergence_bound(10) < basel_divergence_bound(100)

    def test_monotone_grid_and_threshold(self):
        grid = [10, 100, 1000, 10**4, 10**5]
        vals = [basel_divergence_bound(n) for n in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert basel_divergence_bound(2 * 10**5) > 1.0


class TestMonotoneBound:
    def test_json_round_trip(self):
        bound = MonotoneBound("NCM", "lower", 1.25, {"truncation_epsilon": 0.0}, True)
        again = MonotoneBound.from_json(bound.to_json())
        assert again == bound

    def test_lower_must_be_nonnegative(self):
        with pytest.raises(UsageError):
            MonotoneBound("NCM", "lower", -0.1, {})


class TestSandwich:
    def test_fock1_collapses(self):
        spec = StateSpec("fock", {"n": 1}, 25)
        lo, hi = bound_sandwich(make_state(spec), spec=spec)
        assert hi.value - lo.value <= 2e-4
        assert lo.value == pytest.approx(LOG2E, abs=1e-4)

    def test_coherent_interval(self):
        spec = StateSpec("coherent", {"alpha": 2}, 40)
        lo, hi = bound_sandwich(make_state(spec), spec=spec)
        assert lo.value == 0.0
        assert hi.value <= 1e-4

    def test_product_additivity(self):
        plus = StateSpec("cat", {"alpha": 1, "sign": "+"}, 30)
        minus = StateSpec("cat", {"alpha": 1, "sign": "-"}, 30)
        lo_p, _ = bound_sandwich(make_state(plus, deficit_tol=1e-6), spec=plus)
        lo_m, _ = bound_sandwich(make_state(minus, deficit_tol=1e-6), spec=minus)
        lo, hi = bound_sandwich_product(
            [
                (make_state(plus, deficit_tol=1e-6), plus),
                (make_state(minus, deficit_tol=1e-6), minus),
            ]
        )
        assert lo.value == pytest.approx(lo_p.value + lo_m.value, abs=1e-9)
        assert lo.value <= hi.value

    def test_product_needs_a_factor(self):
        with pytest.raises(UsageError):
            bound_sandwich_product([])
