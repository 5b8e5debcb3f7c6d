import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import OptimizeResult, minimize, minimize_scalar
from scipy.special import gammaln

from cvres import nonclassicality
from cvres.errors import UsageError
from cvres.fock_core import DensityOperator, coherent_vector, fock_state, pure_state
from cvres.entropies import von_neumann_entropy, wehrl_entropy
from cvres.states import (
    GaussianDescriptor,
    StateSpec,
    cat_amplitudes,
    exact_energy,
    gaussian_descriptor,
    make_state,
)
from cvres.nonclassicality import (
    SANDWICH_SLACK,
    MonotoneBound,
    OptimizerConfig,
    _curvature_table,
    _envelope_log_weights,
    basel_divergence_bound,
    bound_sandwich,
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
    ideal_energy,
    noisy_fock_closed_form,
    product_interval,
    truncation_certificate,
    truncation_epsilon,
    wehrl_upper_bound,
)

LOG2E = math.log2(math.e)


def cat_state(alpha, sign, cutoff):
    """The cat state at the deficit tolerance the cat bounds were checked at."""
    return make_state(StateSpec("cat", {"alpha": alpha, "sign": sign}, cutoff), deficit_tol=1e-6)


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

    @pytest.mark.parametrize("kind", ["coherent11", "thermal20"])
    def test_high_cutoff_stays_finite(self, kind):
        # monomial peaks t^e e^(-t) exceed the float range from e ~ 172, weights
        # fall below it; both meet only inside the log-domain segment bounds
        if kind == "coherent11":
            vec, _ = coherent_vector(11.0, 180)
            l_mat = np.outer(vec, vec.conj())
        else:
            k = np.arange(500)
            l_mat = np.diag(np.exp(k * math.log(20.0 / 21.0) - math.log(21.0))).astype(complex)
        cert = coherent_sup_certified(l_mat, tol=1e-10)
        assert math.isfinite(cert.value) and cert.gap <= 1e-10 * cert.value
        sampled = _largest_coherent_value(l_mat, cert, 0)
        assert cert.value * (1 - 1e-8) <= sampled <= cert.value * (1 + 1e-12)

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


class TestCertifiedSupLevels:
    def test_cat_objective_resolves_in_few_levels(self, monkeypatch):
        # a return to bisection would need about 15 levels on these inputs
        certs = []
        inner = nonclassicality.coherent_sup_certified

        def recording(entries, *, tol):
            cert = inner(entries, tol=tol)
            certs.append(cert)
            return cert

        monkeypatch.setattr(nonclassicality, "coherent_sup_certified", recording)
        for sign in ("+", "-"):
            cat_gamma_lower_bound(cat_state(0.3, sign, 30))
        assert certs
        assert max(c.levels for c in certs) <= 8
        for c in certs:
            assert c.gap <= nonclassicality.INNER_TOL * (c.value - c.gap)
            assert c.splits == 0 or c.splits % (nonclassicality.SUP_FANOUT - 1) == 0

    @pytest.mark.parametrize("budget", [0, 7, 30, 100])
    @pytest.mark.parametrize("kind", ["random6", "displaced", "flat20"])
    def test_split_budget_counts_interior_nodes(self, kind, budget, monkeypatch):
        monkeypatch.setattr(nonclassicality, "SUP_MAX_SPLITS", budget)
        l_mat = _sup_test_matrix(kind, 0)
        cert = coherent_sup_certified(l_mat, tol=1e-12)
        assert cert.splits <= budget
        assert cert.levels <= cert.splits
        assert _largest_coherent_value(l_mat, cert, 0) <= cert.value * (1 + 1e-12)
        t_grid = np.linspace(0.0, max(l_mat.shape[0] - 1.0, 1.0), 2001)
        top_eig = float(np.linalg.eigvalsh(l_mat)[-1])
        grid_max = max(_envelope(l_mat, t) for t in t_grid)
        assert cert.value >= min(top_eig, grid_max) * (1 - 1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(d=st.integers(2, 16), tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
           definite=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_random_hermitian_property(self, d, tol, definite, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        l_mat = g @ g.conj().T if definite else 0.5 * (g + g.conj().T)
        cert = coherent_sup_certified(l_mat, tol=tol)
        best = cert.value - cert.gap
        assert cert.gap <= tol * best
        # the value covers the envelope wherever the top eigenvalue does not cap it
        cap = max(float(np.linalg.eigvalsh(l_mat)[-1]), 0.0)
        j = np.arange(d)
        t = np.linspace(0.0, max(d - 1.0, 1.0), 20001)[1:]
        v = np.exp(0.5 * np.outer(np.log(t), j) - 0.5 * gammaln(j + 1) - 0.5 * t[:, None])
        envelope = np.einsum("tj,jk,tk->t", v, np.abs(l_mat), v)
        grid_max = max(float(envelope.max()), abs(float(l_mat[0, 0].real)))
        assert cert.value >= min(cap, grid_max) * (1 - 1e-12)
        radius = rng.uniform(0.0, math.sqrt(d) + 1.0, size=200)
        for alpha in radius * np.exp(2j * math.pi * rng.random(200)):
            vec, _ = coherent_vector(alpha, d)
            assert float(np.real(np.vdot(vec, l_mat @ vec))) <= cert.value * (1 + 1e-12)


class TestCurvatureTable:
    @pytest.mark.parametrize("kind", SUP_KINDS)
    def test_matches_finite_differences(self, kind):
        ln_w = _envelope_log_weights(_sup_test_matrix(kind, 0))
        powers = 0.5 * np.arange(ln_w.size)
        finite = np.isfinite(ln_w)
        powers, weights = powers[finite], np.exp(ln_w[finite])
        exps, coefs, ln_bound = _curvature_table(powers, ln_w[finite])
        bound = np.exp(ln_bound)

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
        assert res.lower.certificate["duality_gap_bits"] <= 2e-6

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["sparse", "even", "geometric", "dense"]),
           d=st.integers(2, 40), start=st.sampled_from([0, 2]),
           ratio=st.floats(0.2, 0.97), seed=st.integers(0, 2**32 - 1))
    @example(kind="geometric", d=31, start=0, ratio=0.83, seed=0)
    @example(kind="even", d=40, start=0, ratio=0.7, seed=0)
    @example(kind="even", d=9, start=2, ratio=0.5, seed=0)
    def test_random_diagonals_converge(self, kind, d, start, ratio, seed):
        from cvres.states import FockDiagonalState

        rng = np.random.default_rng(seed)
        if kind == "sparse":
            levels = rng.choice(d, size=min(d, int(rng.integers(1, 4))), replace=False)
            weights = rng.uniform(0.05, 1.0, levels.size)
        elif kind == "even":
            # with and without the vacuum level, so phi(0) = 0 is covered too
            levels = np.arange(start, max(d, start + 1), 2)
            weights = ratio ** levels
        elif kind == "geometric":
            levels = np.arange(d)
            weights = ratio ** levels
        else:
            levels = np.arange(d)
            weights = rng.dirichlet(np.ones(d))
        state = FockDiagonalState(tuple(int(k) for k in levels), weights / weights.sum(), 0.0)
        res = fock_diagonal_ncm(state)
        assert res.lower.converged and res.upper.converged
        assert res.lower.value <= res.upper.value
        assert res.lower.certificate["duality_gap_bits"] <= 2 * nonclassicality.FD_TOL_BITS
        assert res.lower.certificate["iterations"] <= nonclassicality.FD_MAX_ROUNDS

    def test_noisy_fock_found_row_converges(self):
        spec = StateSpec("noisy_fock", {"n": 2, "nu": 2, "p": 0.1}, 40)
        res = fock_diagonal_ncm(make_state(spec, deficit_tol=1e-4))
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["duality_gap_bits"] <= 2 * nonclassicality.FD_TOL_BITS

    def test_dephased_squeezed_long_tail(self):
        # the fit must be optimal out to t = 54, where p is about 1e-9
        from cvres.fock_core import dephase

        rho = make_state(StateSpec("squeezed", {"r": 0.9}, 80))
        res = fock_diagonal_ncm(dephase(rho))
        assert res.lower.converged
        assert res.upper.value == pytest.approx(0.3386844, abs=2e-7)
        assert res.upper.value - res.lower.value <= 2 * nonclassicality.FD_TOL_BITS + 1e-9

    @pytest.mark.slow
    def test_wide_thermal_converges(self):
        rho = make_state(StateSpec("thermal", {"nu": 20}, 500))
        res = fock_diagonal_ncm(rho)
        assert res.lower.converged and res.upper.converged
        assert res.lower.value == 0.0
        assert res.upper.value <= 1e-6

    def test_certificate_counts_rounds(self):
        fock = fock_diagonal_ncm(fock_state(2, 20)).lower.certificate
        assert fock["iterations"] == 0  # one atom at t = 2 is already optimal
        rho = make_state(StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.5}, 12))
        assert fock_diagonal_ncm(rho).lower.certificate["iterations"] >= 1


class TestGamma:
    def test_generic_dense_fock1(self):
        bound = gamma_lower_bound(fock_state(1, 20), OptimizerConfig())
        assert bound.value == pytest.approx(LOG2E, abs=1e-6)
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
        bound = cat_gamma_lower_bound(cat_state(2.5, "+", 60))
        assert 0.98 <= bound.value <= 1.0 + 1e-6

    def test_small_alpha_positive(self):
        bound = cat_gamma_lower_bound(cat_state(0.5, "+", 30))
        assert bound.value > 0.05

    def test_odd_cat_close_to_single_photon(self):
        # as alpha -> 0 the odd cat approaches |1>, whose value is log2(e)
        bound = cat_gamma_lower_bound(cat_state(0.25, "-", 30))
        assert bound.value > 1.2

    def test_out_of_range_point_stays_feasible(self, monkeypatch):
        # at x[1] = 60 the even block must be exponentiated at the clipped value
        x_far = np.array([0.0, 60.0])

        def fake_minimize(fun, x0, **kwargs):
            return OptimizeResult(x=x_far, fun=fun(x_far), success=True, nit=1)

        rho = make_state(StateSpec("cat", {"alpha": 0.3, "sign": "+"}, 35), deficit_tol=1e-6)
        up = classical_ansatz_upper_bound(rho, "coherent_mixture", points=[0.3, -0.3, 0.0])
        monkeypatch.setattr(nonclassicality, "minimize", fake_minimize)
        lo = cat_gamma_lower_bound(cat_state(0.3, "+", 35))
        assert lo.value <= up.value

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_even_cat_converges_below_cap(self, alpha):
        bound = cat_gamma_lower_bound(cat_state(alpha, "+", 30))
        assert bound.converged
        assert bound.certificate["iterations"] < 250

    def test_odd_cat_is_one_supremum(self, monkeypatch):
        # L = |cat-><cat-| plus the floor: the bound is -log2 of the largest
        # |<beta|cat->|^2, attained at real beta since the amplitudes share a sign
        certs = []
        inner = nonclassicality.coherent_sup_certified

        def recording(entries, *, tol):
            certs.append(inner(entries, tol=tol))
            return certs[-1]

        monkeypatch.setattr(nonclassicality, "coherent_sup_certified", recording)
        bound = cat_gamma_lower_bound(cat_state(0.3, "-", 30))
        assert len(certs) == 1 and bound.converged
        psi = cat_amplitudes(0.3, "-", 30)
        psi = psi / np.linalg.norm(psi)

        def overlap(t):
            vec, _ = coherent_vector(math.sqrt(max(t, 0.0)), 30)
            return abs(np.vdot(vec, psi)) ** 2

        grid = np.linspace(0.0, 6.0, 601)
        t0 = grid[int(np.argmax([overlap(t) for t in grid]))]
        res = minimize_scalar(lambda t: -overlap(t), bounds=(t0 - 0.01, t0 + 0.01),
                              method="bounded", options={"xatol": 1e-12})
        sampled = -math.log2(-res.fun)
        raw = bound.certificate["raw_value_bits"]
        assert raw <= sampled
        assert raw >= sampled - math.log2(1 + nonclassicality.INNER_TOL) - 1e-11

    def test_odd_cat_tends_to_single_photon(self):
        values = [cat_gamma_lower_bound(cat_state(a, "-", 30)).value for a in (0.2, 0.05, 0.01)]
        assert values[0] < values[1] < values[2] <= LOG2E
        assert LOG2E - values[2] < 1e-3

    @pytest.mark.parametrize("alpha, sign", [(0.3, "+"), (0.3, "-"), (1.0, "+")])
    def test_four_parameter_ansatz_never_beats_parity_block(self, alpha, sign):
        # the former search: L = B^T exp(log M) B on span{cat+, v0, cat-} with the
        # even 2x2 block and the odd scalar free, plus the floor on the complement
        d, floor = 30, 1e-12
        bound = cat_gamma_lower_bound(cat_state(alpha, sign, d))
        plus, minus = cat_amplitudes(alpha, "+", d), cat_amplitudes(alpha, "-", d)
        plus, minus = plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)
        v0 = np.eye(d)[0] - plus[0] * plus
        basis = np.stack([plus, v0 / np.linalg.norm(v0), minus])
        coords = basis @ (plus if sign == "+" else minus)

        def old_objective(x):
            log_m = np.array([[x[0], x[1], 0.0], [x[1], x[2], 0.0], [0.0, 0.0, x[3]]])
            evals, evecs = np.linalg.eigh(log_m)
            m = (evecs * np.exp(evals)) @ evecs.T
            cert = coherent_sup_certified(basis.T @ m @ basis, tol=nonclassicality.INNER_TOL)
            return LOG2E * float(coords @ log_m @ coords) - math.log2(cert.value + floor)

        rng = np.random.default_rng(3)
        points = np.concatenate([rng.uniform(-10.0, 3.0, size=(12, 4)),
                                 rng.normal(scale=0.5, size=(6, 4))])
        best = max(old_objective(x) for x in points)
        assert best <= bound.certificate["raw_value_bits"] + math.log2(1 + nonclassicality.INNER_TOL)


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
        lo, hi = gaussian_bounds(gaussian_descriptor(StateSpec("coherent", {"alpha": 0}, 8)))
        assert lo.value == pytest.approx(0.0, abs=1e-12)
        assert hi.value == pytest.approx(1 + LOG2E, rel=1e-12)

    def test_squeezed(self):
        lo, _ = gaussian_bounds(gaussian_descriptor(StateSpec("squeezed", {"r": 1}, 8)))
        assert lo.value == pytest.approx(math.log2(math.cosh(1.0)), rel=1e-10)

    def test_thermal_floored(self):
        lo, _ = gaussian_bounds(gaussian_descriptor(StateSpec("thermal", {"nu": 1}, 8)))
        assert lo.value == 0.0
        assert lo.certificate["raw_value_bits"] == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("family, params, entropy", [
        ("thermal", {"nu": 0.5}, g_thermal(0.5)),
        ("thermal", {"nu": 2.0}, g_thermal(2.0)),
        ("coherent", {"alpha": [0.5, 0.7]}, 0.0),
        ("squeezed", {"r": 0.3}, 0.0),
        ("squeezed", {"r": 1.2}, 0.0),
    ])
    def test_entropy_from_covariance(self, family, params, entropy):
        # S = g(nu) for thermal states and exactly 0 for the pure families
        gd = gaussian_descriptor(StateSpec(family, params, 8))
        got = nonclassicality._gaussian_entropy_bits(gd)
        if entropy:
            assert got == pytest.approx(entropy, rel=1e-12)
        else:
            assert got == 0.0


class TestClassicalAnsatz:
    def test_coherent_self(self):
        rho = make_state(StateSpec("coherent", {"alpha": 1.5}, 40))
        up = classical_ansatz_upper_bound(rho, "coherent_mixture", points=[1.5])
        assert up.value <= 1e-6

    @pytest.mark.parametrize("case", ["fock1", "squeezed", "noisy_fock", "random"])
    def test_fock1_thermal_family(self, case):
        # the exact optimum nu = <n> against a fine scan of
        # D(rho || tau_nu) = -S(rho) + log2(1+nu) - <n> log2(nu/(1+nu))
        if case == "fock1":
            rho = fock_state(1, 30)
        elif case == "squeezed":
            rho = make_state(StateSpec("squeezed", {"r": 0.3}, 44))
        elif case == "noisy_fock":
            rho = make_state(StateSpec("noisy_fock", {"n": 2, "nu": 0.5, "p": 0.4}, 40))
        else:
            rng = np.random.default_rng(11)
            g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            mat = g @ g.conj().T
            rho = DensityOperator.from_matrix(mat / np.trace(mat), 1, 6)
        up = classical_ansatz_upper_bound(rho, "thermal")
        raw = up.value - up.certificate["truncation_correction_bits"]
        rho_n = rho.renormalized()
        mean = float(np.dot(np.arange(rho.cutoff), rho_n.diagonal()))
        nus = np.geomspace(1e-3, 50.0, 200_001)
        scan = -von_neumann_entropy(rho_n) + np.log2(1 + nus) - mean * np.log2(nus / (1 + nus))
        assert np.all(raw <= scan + 1e-12)
        assert raw == pytest.approx(scan.min(), abs=1e-9)
        if case == "fock1":
            # 1-d calculus oracle: min over nu of D(|1><1| || tau_nu) = g(1) = 2 at nu = 1
            assert up.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["cat0.3+", "cat0.3-", "cat1+", "random0", "random1"])
    def test_gram_divergence_matches_dense(self, case):
        from cvres.entropies import relative_entropy

        d = 30
        rng = np.random.default_rng(sum(map(ord, case)))
        if case.startswith("cat"):
            alpha, sign = float(case[3:-1]), case[-1]
            points = [alpha, -alpha, 0.0]
            rho = make_state(StateSpec("cat", {"alpha": alpha, "sign": sign}, d))
        else:
            points = list(rng.uniform(-1.2, 1.2, 3) + 1j * rng.uniform(-1.2, 1.2, 3))
            vecs = np.stack([coherent_vector(a, d)[0] for a in points], axis=1)
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            ent = vecs @ g @ g.conj().T @ vecs.conj().T
            rho = DensityOperator.from_matrix(ent / np.trace(ent), 1, d, validate=False)
        divergence = nonclassicality._coherent_mixture_divergence(rho, points)
        comps = [np.outer(v, v.conj()) for v in (coherent_vector(a, d)[0] for a in points)]
        for _ in range(5):
            w = rng.dirichlet(np.ones(3))
            sigma = sum(wi * ci for wi, ci in zip(w, comps))
            sigma = DensityOperator.from_matrix(sigma / np.trace(sigma), 1, d, validate=False)
            dense = relative_entropy(rho, sigma)
            assert divergence(w) == pytest.approx(dense, abs=1e-12)

    def test_support_mismatch_is_infinite(self):
        up = classical_ansatz_upper_bound(fock_state(1, 12), "coherent_mixture", points=[0.0])
        assert up.value == math.inf and up.certificate["support_mismatch"]

    def test_cat2_mixture_gap(self):
        spec = StateSpec("cat", {"alpha": 2, "sign": "+"}, 40)
        rho = make_state(spec, deficit_tol=1e-7)
        up = classical_ansatz_upper_bound(rho, "coherent_mixture", points=[2.0, -2.0, 0.0])
        lo = cat_gamma_lower_bound(cat_state(2.0, "+", 40))
        assert up.value - lo.value < 0.5
        assert lo.value <= up.value + 1e-9

    def test_squeezed_thermal_closed_form(self):
        spec = StateSpec("squeezed", {"r": 1}, 60)
        rho = make_state(spec, deficit_tol=1e-6)
        up = classical_ansatz_upper_bound(rho, "squeezed_thermal")
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

    @pytest.mark.parametrize("r", [0.3, 1.5])
    def test_squeezed_thermal_either_sign(self, r):
        # squeezed(-r) is squeezed(r) turned by a quarter period, and so is its best ansatz
        values = [classical_ansatz_upper_bound(make_state(StateSpec("squeezed", {"r": x}, 200),
                                                          deficit_tol=1e-5),
                                               "squeezed_thermal").value for x in (r, -r)]
        assert values[1] == pytest.approx(values[0], rel=1e-12)

    @pytest.mark.parametrize("case", [(0.3, 40), (0.9, 80), (-0.9, 80), "random"])
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
        rho_n = rho.renormalized()
        d = rho.cutoff
        # the ansatz squeezes along the quadrature that <a^2> picks out: rotate rho
        # by exp(-i phi n) until <a^2> is real and at most 0, the quadrature S squeezes
        a2_mean = np.dot(np.sqrt(np.arange(1.0, d - 1) * np.arange(2.0, d)),
                         np.diagonal(rho_n.entries, offset=-2))
        u = np.sqrt(-abs(a2_mean) / a2_mean + 0j) if a2_mean != 0 else 1.0
        phases = u ** np.arange(d)
        pad = d + 200
        ent_pad = np.zeros((pad, pad), dtype=complex)
        ent_pad[:d, :d] = rho_n.entries * np.outer(phases, phases.conj())
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

        up = classical_ansatz_upper_bound(rho, "squeezed_thermal")
        raw = up.value - up.certificate["truncation_correction_bits"]
        best_s = float(up.certificate["ansatz_description"].split("best s=")[1])
        assert raw == pytest.approx(d_reference(best_s), abs=1e-9)
        assert raw <= min(d_reference(s) for s in [0.05, 0.3, 0.8]) + 1e-9


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


def certificate_reference(eps, energy, modes):
    """m*eps*g(2E/(m*eps)) + g(eps) in 660-digit decimals.

    g(x) cancels about log10(x) + 3 digits, so 660 digits cover every x < 1e609 drawn here."""
    with decimal.localcontext() as ctx:
        ctx.prec = 660

        def g(x):
            return (x + 1) * (x + 1).ln() - x * x.ln() if x else decimal.Decimal(0)

        e = decimal.Decimal(eps)
        value = modes * e * g(2 * decimal.Decimal(energy) / (modes * e)) + g(e)
        return float(value / decimal.Decimal(2).ln())


class TestTruncationCertificate:
    def test_hand_arithmetic(self):
        assert truncation_certificate(0.1, 1.0, 1) == pytest.approx(1.063457, abs=1e-6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(log_eps=st.floats(-300, 0), log_energy=st.floats(-300, 308), modes=st.integers(1, 4))
    @example(log_eps=-300, log_energy=10, modes=1)  # 2E/eps overflows
    @example(log_eps=math.log10(0.5), log_energy=306, modes=1)  # g(2E/eps) cancels to NaN
    @example(log_eps=-16, log_energy=308, modes=1)  # 1/x underflows
    def test_matches_high_precision_reference(self, log_eps, log_energy, modes):
        eps, energy = 10.0**log_eps, 10.0**log_energy
        value = truncation_certificate(eps, energy, modes)
        assert value == pytest.approx(certificate_reference(eps, energy, modes), rel=1e-13)

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

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_rejects_non_finite_or_negative_energy(self, energy, eps):
        with pytest.raises(UsageError):
            truncation_certificate(eps, energy, 1)


class TestTruncationFold:
    """Every engine moves the bound of its truncated state by the certificate at eps > 0."""

    THERMAL = StateSpec("thermal", {"nu": 1}, 20)  # Fock-diagonal, eps = deficit
    SQUEEZED = StateSpec("squeezed", {"r": 0.5}, 24)  # eps = sqrt(deficit) + deficit/2
    CAT = StateSpec("cat", {"alpha": 1, "sign": "-"}, 14)

    @staticmethod
    def _correction(bound, rho, energy):
        eps = truncation_epsilon(rho)
        assert eps > 0.0
        correction = truncation_certificate(eps, energy, 1)
        assert bound.certificate["truncation_epsilon"] == eps
        assert bound.certificate["truncation_correction_bits"] == correction
        if "raw_value_bits" in bound.certificate:
            assert bound.value == max(0.0, bound.certificate["raw_value_bits"] - correction)
        return correction

    def test_lower_engines_floor_raw_minus_correction(self):
        sq = make_state(self.SQUEEZED, deficit_tol=1e-4)
        energy = exact_energy(self.SQUEEZED)
        self._correction(gamma_lower_bound(sq, OptimizerConfig(max_iters=3)),
                         sq, energy)
        self._correction(husimi_lower_bound(sq), sq, energy)
        self._correction(cat_gamma_lower_bound(cat_state(1.0, "-", 14)),
                         make_state(self.CAT, deficit_tol=1e-6), exact_energy(self.CAT))

    def test_upper_engines_add_correction(self):
        rho = make_state(self.THERMAL, deficit_tol=1e-4)
        rho_n = rho.renormalized()
        s_bits = von_neumann_entropy(rho_n)
        up = classical_ansatz_upper_bound(rho, "thermal")
        raw = g_thermal(rho_n.energy) - s_bits
        assert up.value - self._correction(up, rho, 1.0) == pytest.approx(raw, abs=1e-12)
        up = wehrl_upper_bound(rho)
        est = wehrl_entropy(rho_n)
        raw = est.bits + est.tail_bits - s_bits
        assert up.value - self._correction(up, rho, 1.0) == pytest.approx(raw, abs=1e-12)
        sq, sq_energy = make_state(self.SQUEEZED, deficit_tol=1e-4), exact_energy(self.SQUEEZED)
        self._correction(classical_ansatz_upper_bound(sq, "squeezed_thermal"), sq, sq_energy)
        cat = make_state(self.CAT, deficit_tol=1e-6)
        mixture = classical_ansatz_upper_bound(cat, "coherent_mixture", points=[1.0, -1.0, 0.0])
        assert math.isfinite(mixture.value)
        self._correction(mixture, cat, exact_energy(self.CAT))
        mismatch = classical_ansatz_upper_bound(sq, "coherent_mixture", points=[0.0])
        assert mismatch.value == math.inf and mismatch.certificate["support_mismatch"]
        self._correction(mismatch, sq, sq_energy)

    def test_fock_diagonal_pair(self):
        spec = StateSpec("noisy_fock", {"n": 2, "nu": 1, "p": 0.4}, 20)
        rho, energy = make_state(spec, deficit_tol=1e-4), exact_energy(spec)
        res = fock_diagonal_ncm(rho)
        correction = self._correction(res.upper, rho, energy)
        assert self._correction(res.lower, rho, energy) == correction
        dual = res.upper.value - correction
        gap = res.lower.certificate["duality_gap_bits"]
        assert res.lower.value == pytest.approx(max(0.0, dual - gap - correction), abs=1e-12)
        assert res.lower.value > 0.0

    @pytest.mark.parametrize("spec", [
        StateSpec("fock", {"n": 1}, 6),
        StateSpec("coherent", {"alpha": 1}, 8),
        StateSpec("thermal", {"nu": 1}, 10),
        StateSpec("noisy_fock", {"n": 1, "nu": 1, "p": 0.5}, 10),
        StateSpec("cat", {"alpha": 1, "sign": "-"}, 10),
        StateSpec("squeezed", {"r": 0.5}, 12),
    ], ids=lambda spec: spec.family)
    def test_spec_states_fold_at_exact_energy(self, spec):
        # no energy argument: each engine reads the ideal state's energy off the state
        rho = make_state(spec, deficit_tol=1e-2)
        energy = exact_energy(spec)
        assert ideal_energy(rho) == energy
        eps = truncation_epsilon(rho)
        if spec.family != "fock":  # |1> fits in the cutoff exactly
            assert eps > 0.0 and rho.energy != energy
        bounds = [gamma_lower_bound(rho, OptimizerConfig(max_iters=3)),
                  husimi_lower_bound(rho),
                  wehrl_upper_bound(rho),
                  classical_ansatz_upper_bound(rho, "thermal"),
                  classical_ansatz_upper_bound(rho, "squeezed_thermal"),
                  classical_ansatz_upper_bound(rho, "coherent_mixture", points=[1.0])]
        if rho.fock_diagonal:
            bounds.extend(fock_diagonal_ncm(rho))
        if spec.family == "cat":
            bounds.append(cat_gamma_lower_bound(rho))
        correction = truncation_certificate(eps, energy, 1)
        for bound in bounds:
            assert bound.certificate["truncation_correction_bits"] == correction, bound.certificate

    def test_raw_matrix_folds_at_its_own_energy(self):
        rho = make_state(self.THERMAL, deficit_tol=1e-4)
        raw = DensityOperator.from_matrix(rho.entries, 1, rho.cutoff)
        assert raw.spec is None and ideal_energy(raw) == raw.energy
        self._correction(husimi_lower_bound(raw), raw, raw.energy)

    def test_cat_bound_needs_a_cat_spec(self):
        rho = make_state(self.CAT, deficit_tol=1e-6)
        for other in (DensityOperator.from_matrix(rho.entries, 1, rho.cutoff),
                      make_state(self.SQUEEZED, deficit_tol=1e-4)):
            with pytest.raises(UsageError, match="cat state"):
                cat_gamma_lower_bound(other)

    def test_sparse_basel_eps_is_deficit(self):
        state = make_state(StateSpec("basel", {"n_max": 4}, 17))
        res = fock_diagonal_ncm(state)
        assert state.trace_deficit > 0.0
        assert res.upper.certificate["truncation_epsilon"] == state.trace_deficit
        assert res.upper.certificate["truncation_correction_bits"] == truncation_certificate(
            state.trace_deficit, state.energy, 1)


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
        lo, hi = bound_sandwich(make_state(spec))
        assert hi.value - lo.value <= 2e-4
        assert lo.value == pytest.approx(LOG2E, abs=1e-4)

    def test_coherent_interval(self):
        spec = StateSpec("coherent", {"alpha": 2}, 40)
        lo, hi = bound_sandwich(make_state(spec))
        assert lo.value == 0.0
        assert hi.value <= 1e-4

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_random_states_nonempty_interval(self, d, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = g @ g.conj().T
        rho = DensityOperator.from_matrix(mat / np.trace(mat), 1, d)
        lo, hi = bound_sandwich(rho, OptimizerConfig(max_iters=60))
        assert lo.value <= hi.value
        assert gamma_lower_bound(rho).value <= hi.value + SANDWICH_SLACK

    def test_cat_path_follows_the_spec(self):
        # one matrix: the family bounds when make_state built it, the dense ascent as a raw matrix
        rho = make_state(StateSpec("cat", {"alpha": 0.3, "sign": "+"}, 20))
        raw = DensityOperator.from_matrix(rho.entries, 1, rho.cutoff)
        np.testing.assert_array_equal(raw.entries, rho.entries)
        lo, hi = bound_sandwich(rho)
        raw_lo, raw_hi = bound_sandwich(raw, OptimizerConfig(max_iters=5))
        assert lo.certificate["ansatz_description"].startswith("cat parity-block ansatz")
        assert hi.certificate["ansatz_description"].startswith("coherent mixture")
        assert raw_lo.certificate["ansatz_description"] == "dense exp(H) ascent"
        assert raw_hi.certificate["ansatz_description"].startswith("thermal family")

    def test_product_additivity(self):
        plus = StateSpec("cat", {"alpha": 1, "sign": "+"}, 30)
        minus = StateSpec("cat", {"alpha": 1, "sign": "-"}, 30)
        parts = [bound_sandwich(make_state(spec, deficit_tol=1e-6))
                 for spec in (plus, minus)]
        lo, hi = product_interval(parts)
        assert lo.value == pytest.approx(parts[0][0].value + parts[1][0].value, abs=1e-9)
        assert lo.value <= hi.value

    def test_product_needs_a_factor(self):
        with pytest.raises(UsageError):
            product_interval([])


class TestSandwichDominance:
    """The sandwich is never looser than any engine that applies to the state."""

    @pytest.mark.parametrize("spec", [
        StateSpec("fock", {"n": 0}, 20),
        StateSpec("fock", {"n": 2}, 20),
        StateSpec("thermal", {"nu": 0.0}, 40),
        StateSpec("thermal", {"nu": 0.5}, 40),
        StateSpec("thermal", {"nu": 2.0}, 60),
        StateSpec("coherent", {"alpha": 0.3}, 30),
        StateSpec("coherent", {"alpha": [0.5, 0.7]}, 30),
        StateSpec("squeezed", {"r": 0.005}, 40),
        StateSpec("squeezed", {"r": 0.3}, 40),
        StateSpec("squeezed", {"r": 1.2}, 120),
        StateSpec("squeezed", {"r": -1.5}, 100),
        StateSpec("squeezed", {"r": -1.7}, 150),
        StateSpec("squeezed", {"r": -2.0}, 300),
        StateSpec("noisy_fock", {"n": 2, "nu": 0.5, "p": 0.4}, 40),
    ], ids=lambda spec: spec.to_json())
    def test_never_looser(self, spec):
        rho = make_state(spec, deficit_tol=1e-5)
        energy = exact_energy(spec)
        lo, hi = bound_sandwich(rho)
        lowers = [husimi_lower_bound(rho)]
        uppers = [energy_upper_bound(energy),
                  classical_ansatz_upper_bound(rho, "thermal"),
                  classical_ansatz_upper_bound(rho, "squeezed_thermal")]
        if spec.family in ("coherent", "thermal", "squeezed"):
            g_lower, g_upper = gaussian_bounds(gaussian_descriptor(spec))
            lowers.append(g_lower)
            uppers.append(g_upper)
        if spec.family == "coherent":
            uppers.append(classical_ansatz_upper_bound(rho, "coherent_mixture",
                                                       points=[spec.params["alpha"]]))
        if rho.fock_diagonal:
            lowers.append(fock_diagonal_ncm(rho).lower)
        for b in lowers:
            assert lo.value >= b.value - 1e-12, b.certificate
        for b in uppers:
            assert hi.value <= b.value + 1e-12, b.certificate
