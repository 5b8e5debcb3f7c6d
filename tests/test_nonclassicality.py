import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize, minimize_scalar
from scipy.special import gammaln

from cvres import _envelope, _poisson, nonclassicality
from cvres._envelope import _curvature_table, _envelope_log_weights
from cvres.errors import UsageError
from cvres.fock_core import (
    DensityOperator,
    coherent_vector,
    dephase,
    displacement_columns,
    fock_state,
    pure_state,
)
from cvres.entropies import (
    entropy_of_probabilities,
    relative_entropy,
    von_neumann_entropy,
    wehrl_entropy,
)
from cvres.rates import required_cat_cutoff
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
    _even_cat_ansatz,
    basel_divergence_bound,
    bound_sandwich,
    cat_gamma_lower_bound,
    cat_mixture_upper_bound,
    centred_dephased_ncm,
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
    quadrature_lower_bound,
    truncation_certificate,
    truncation_epsilon,
    wehrl_upper_bound,
)

from oracles import classical_gaussian_scan, envelope_max

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


def _envelope_value(l_mat: np.ndarray, t: float) -> float:
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
            assert cert.value <= _envelope_value(l_mat, cert.argmax_t) * (1 + tol + 1e-12)
            assert _largest_coherent_value(l_mat, cert, seed) <= cert.value * (1 + 1e-12)

    # on random12 and random24 the top eigenvalue caps the envelope before any split
    @pytest.mark.parametrize("kind", ["random6", "displaced", "flat20", "flat40"])
    def test_exhausted_split_budget_stays_sound(self, kind, monkeypatch):
        # the budget runs out with segments still live, so their bounds must count
        monkeypatch.setattr(_envelope, "SUP_MAX_SPLITS", 2)
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
            assert c.splits == 0 or c.splits % (_envelope.SUP_FANOUT - 1) == 0

    @pytest.mark.parametrize("budget", [0, 7, 30, 100])
    @pytest.mark.parametrize("kind", ["random6", "displaced", "flat20"])
    def test_split_budget_counts_interior_nodes(self, kind, budget, monkeypatch):
        monkeypatch.setattr(_envelope, "SUP_MAX_SPLITS", budget)
        l_mat = _sup_test_matrix(kind, 0)
        cert = coherent_sup_certified(l_mat, tol=1e-12)
        assert cert.splits <= budget
        assert cert.levels <= cert.splits
        assert _largest_coherent_value(l_mat, cert, 0) <= cert.value * (1 + 1e-12)
        t_grid = np.linspace(0.0, max(l_mat.shape[0] - 1.0, 1.0), 2001)
        top_eig = float(np.linalg.eigvalsh(l_mat)[-1])
        grid_max = max(_envelope_value(l_mat, t) for t in t_grid)
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


def _even_cat_basis(alpha: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """cat+, normalised, and the basis (e0, tau) of its ansatz, tau its normalised tail on n >= 1."""
    psi = cat_amplitudes(alpha, "+", d)
    psi = psi / np.linalg.norm(psi)
    tail = psi.copy()
    tail[0] = 0.0
    return psi, np.stack([np.eye(d)[0], tail / np.linalg.norm(tail)])


def _cat_ansatz_matrices(alpha: float, d: int, seed: int) -> list[np.ndarray]:
    """L = B^T [[1, b], [b, c]] B on span{e0, tau}, at points of the even cat's search."""
    _, basis = _even_cat_basis(alpha, d)
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 1.5, size=10)
    points = np.concatenate([[[0.15, 0.5], [0.5, 2.0]],
                             np.column_stack([b, b * b + rng.uniform(0.0, 5.0, size=10)])])
    return [basis.T @ np.array([[1.0, b], [b, c]]) @ basis for b, c in points]


class TestEnvelopeMax:
    @pytest.mark.parametrize("tol", [nonclassicality.INNER_TOL, 1e-12])
    @pytest.mark.parametrize("kind", SUP_KINDS + ["cat0.3", "cat1", "cat2.5"])
    def test_between_best_value_and_certificate(self, kind, tol):
        # the search reads this value; only its winner is certified
        if kind.startswith("cat"):
            alpha = float(kind[3:])
            mats = _cat_ansatz_matrices(alpha, 60 if alpha > 2 else 30, 0)
        else:
            mats = [_sup_test_matrix(kind, seed) for seed in range(3)]
        for l_mat in mats:
            cert = coherent_sup_certified(l_mat, tol=tol)
            value = envelope_max(l_mat)
            assert value <= cert.value
            assert value >= (cert.value - cert.gap) * (1 - 1e-9)

    @pytest.mark.parametrize("coupling", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("power", [0.5, 1.0])
    def test_peak_next_to_the_vacuum(self, coupling, power):
        if power == 0.5:
            # F(t) = e^(-t) (1 + 2 c sqrt(t)) peaks near t = c^2, far inside the first grid cell
            l_mat = np.array([[1.0, coupling], [coupling, 0.0]])
        else:
            # F(t) = e^(-t) (1 + (1 + c) t) peaks at t = c/(1 + c), about c^2/2 above F(0):
            # the slope (1 + c) exceeds W_0 = 1, so the first cell keeps its polish
            k = (1.0 + coupling) / math.sqrt(2.0)
            l_mat = np.array([[1.0, 0.0, k], [0.0, 0.0, 0.0], [k, 0.0, 0.0]])
        cert = coherent_sup_certified(l_mat, tol=1e-12)
        value = envelope_max(l_mat)
        assert (cert.value - cert.gap) * (1 - 1e-12) <= value <= cert.value

    def test_zero_and_negative_matrices(self):
        assert envelope_max(np.zeros((4, 4))) == 0.0
        assert envelope_max(-np.eye(3)) == 0.0


class TestEvenCatClosedForm:
    @pytest.mark.parametrize("alpha", [0.3, math.sqrt(2.0) * 0.3, 0.5, 1.0, 2.4])
    def test_matches_the_generic_envelope(self, alpha):
        # b = 0 and c = 0 drop a fixed envelope, and 1e-200 squares to 0; negative b
        # reads as |b|; large entries put the peak far from F(0) = 1
        rng = np.random.default_rng(3)
        points = np.concatenate([[[0.0, 0.0], [0.0, 1.0], [0.0, 40.0], [0.5, 0.0], [0.15, 0.5],
                                  [1e-200, 2.0], [1e-200, 1e-200], [-0.4, 0.5], [-3.0, 60.0],
                                  [3.0, 40.0], [1e3, 1e7], [0.2, 1e-300]],
                                 np.column_stack([rng.uniform(-2.0, 2.0, 25),
                                                  rng.uniform(0.0, 10.0, 25)])])
        for d in sorted({required_cat_cutoff(alpha), 30, 40}):
            psi, basis = _even_cat_basis(alpha, d)
            matrix, peak, _ = _even_cat_ansatz(psi)
            for b, c in points:
                l_mat = matrix(b, c)
                ref = basis.T @ np.array([[1.0, b], [b, c]]) @ basis
                assert np.max(np.abs(l_mat - ref)) <= 1e-14 * float(np.max(np.abs(ref)))
                assert max(peak(b, c)[1], 1.0) == pytest.approx(envelope_max(l_mat), rel=1e-12)


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

    def test_exact_fits_keep_the_closed_form_inside(self):
        # on levels {0, 1} and on a Fock state the fit is exact, one atom, so the float KL
        # lands within an ulp of the closed form on either side; the rounding allowance
        # keeps the closed form inside every interval (without it, 25 of these 128 missed)
        from cvres.states import FockDiagonalState

        for p in np.linspace(0.01, 0.99, 99):
            res = fock_diagonal_ncm(FockDiagonalState((0, 1), np.array([1.0 - p, p]), 0.0))
            exact = noisy_fock_closed_form(float(p))
            assert res.lower.value <= exact <= res.upper.value, p
            assert max(res.upper.value - exact, exact - res.lower.value) <= 1e-12, p
            assert res.upper.value - res.lower.value <= 2e-13 + res.lower.certificate["duality_gap_bits"]
        for n in range(1, 30):
            res = fock_diagonal_ncm(FockDiagonalState((n,), np.array([1.0]), 0.0))
            assert res.lower.value <= fock_closed_form(n) <= res.upper.value, n

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

    def test_level_order_is_immaterial(self):
        # the certificate's envelope reads the levels as powers of t, in ascending order
        from cvres.states import FockDiagonalState

        ordered = fock_diagonal_ncm(FockDiagonalState((0, 3, 7), np.array([0.2, 0.5, 0.3]), 0.0))
        shuffled = fock_diagonal_ncm(FockDiagonalState((7, 0, 3), np.array([0.3, 0.2, 0.5]), 0.0))
        for a, b in zip(ordered, shuffled):
            assert b.value == pytest.approx(a.value, rel=1e-12)
            assert b.certificate["duality_gap_bits"] == a.certificate["duality_gap_bits"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["sparse", "even", "geometric", "dense", "vacuum-pair"]),
           d=st.integers(1, 40), start=st.sampled_from([0, 2]),
           ratio=st.floats(0.2, 0.97), seed=st.integers(0, 2**32 - 1))
    @example(kind="geometric", d=31, start=0, ratio=0.83, seed=0)
    @example(kind="even", d=40, start=0, ratio=0.7, seed=0)
    @example(kind="even", d=9, start=2, ratio=0.5, seed=0)
    @example(kind="vacuum-pair", d=1, start=0, ratio=0.5, seed=0)
    @example(kind="vacuum-pair", d=40, start=0, ratio=0.97, seed=0)
    def test_random_diagonals_converge(self, kind, d, start, ratio, seed):
        from cvres.states import FockDiagonalState

        rng = np.random.default_rng(seed)
        if kind == "vacuum-pair":  # levels {0, d}, which the fit solves in closed form
            levels = np.array([0, d])
            weights = np.array([1.0 - ratio, ratio])
        elif kind == "sparse":
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
        assert res.lower.certificate["duality_gap_bits"] <= 2 * _poisson.FD_TOL_BITS
        assert res.lower.certificate["iterations"] <= _poisson.FD_MAX_ROUNDS
        if kind == "vacuum-pair":
            assert res.lower.certificate["iterations"] == 0

    def test_noisy_fock_found_row_converges(self):
        spec = StateSpec("noisy_fock", {"n": 2, "nu": 2, "p": 0.1}, 40)
        res = fock_diagonal_ncm(make_state(spec, deficit_tol=1e-4))
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["duality_gap_bits"] <= 2 * _poisson.FD_TOL_BITS

    def test_dephased_squeezed_long_tail(self):
        # the fit must be optimal out to t = 54, where p is about 1e-9
        rho = make_state(StateSpec("squeezed", {"r": 0.9}, 80))
        res = fock_diagonal_ncm(dephase(rho))
        assert res.lower.converged
        assert res.upper.value == pytest.approx(0.3386844, abs=2e-7)
        assert res.upper.value - res.lower.value <= 2 * _poisson.FD_TOL_BITS + 1e-9

    @pytest.mark.slow
    def test_wide_thermal_converges(self):
        rho = make_state(StateSpec("thermal", {"nu": 20}, 500))
        res = fock_diagonal_ncm(rho)
        assert res.lower.converged and res.upper.converged
        assert res.lower.value == 0.0
        assert res.upper.value <= 1e-6

    def test_far_tail_is_regrown_in_few_rounds(self):
        # the first weight step empties the tail, where phi then reaches e^60; a step
        # towards the top atom refills it, where one least-squares step at most doubles q
        spec = StateSpec("noisy_fock", {"n": 2, "nu": 1, "p": 0.3}, 40)
        res = fock_diagonal_ncm(make_state(spec, deficit_tol=1e-4))
        assert res.lower.converged
        assert res.lower.certificate["iterations"] <= 20

    def test_vertex_step_is_the_exact_line_maximum(self):
        ks = np.arange(12.0)
        p = np.exp(_poisson._log_poisson(ks, np.array([3.0]))[:, 0])
        p /= p.sum()
        q = np.exp(_poisson._log_poisson(ks, np.array([1.0]))[:, 0])
        col = np.exp(_poisson._log_poisson(ks, np.array([5.0]))[:, 0])
        s = _poisson._vertex_step(p, q, col)
        grid = np.linspace(0.0, 1.0, 20001)[:-1]
        values = np.log(np.outer(1.0 - grid, q) + np.outer(grid, col)) @ p
        assert s == pytest.approx(grid[np.argmax(values)], abs=1e-4)
        assert abs(p @ ((col - q) / (q + s * (col - q)))) < 1e-9  # the slope vanishes there

    def test_certificate_counts_rounds(self):
        fock = fock_diagonal_ncm(fock_state(2, 20)).lower.certificate
        assert fock["iterations"] == 0  # one atom at t = 2 is already optimal
        from cvres.states import FockDiagonalState

        pair = fock_diagonal_ncm(FockDiagonalState((1, 3), (0.5, 0.5), 0.0))
        assert pair.lower.certificate["iterations"] >= 1
        # a vacuum pair is solved in closed form, in no rounds
        rho = make_state(StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.5}, 12))
        assert fock_diagonal_ncm(rho).lower.certificate["iterations"] == 0


def _vacuum_pair_search(n, p):
    """Least KL(p || q) in bits over q = w0 pois(.; 0) + (1 - w0) pois(.; t) on levels {0, n}.

    Nelder-Mead on (u, v), w0 = sin^2 u and t = v^2, from one atom at the mean p n
    and from atoms {0, n} at the state's own weights; the better end is taken.  Its
    value tolerance grows with n, as the rounding of n ln t does."""
    ln_fact = float(gammaln(n + 1.0))

    def kl(x):
        sin, cos, t = abs(math.sin(x[0])), abs(math.cos(x[0])), x[1] ** 2
        if cos == 0.0 or t == 0.0:
            return math.inf
        ln_w0 = 2.0 * math.log(sin) if sin > 0.0 else -math.inf
        ln_q0 = float(np.logaddexp(ln_w0, 2.0 * math.log(cos) - t))
        ln_qn = 2.0 * math.log(cos) + n * math.log(t) - t - ln_fact
        return LOG2E * ((1.0 - p) * (math.log1p(-p) - ln_q0) + p * (math.log(p) - ln_qn))

    starts = [(0.0, math.sqrt(p * n)), (math.asin(math.sqrt(1.0 - p)), math.sqrt(n))]
    return min(minimize(kl, x0, method="Nelder-Mead",
                        options={"xatol": 1e-9, "fatol": 4e-15 * (n + 1), "maxiter": 1000}).fun
               for x0 in starts)


class TestVacuumPair:
    """Levels {0, n}: the fit's closed form, against a search and its own phi."""

    NS = [*range(1, 9), 50, 1000, 4096]
    PS = [0.03, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97]

    @staticmethod
    def _state(n, p):
        from cvres.states import FockDiagonalState

        return FockDiagonalState((0, n), np.array([1.0 - p, p]), 0.0)

    @pytest.mark.parametrize("n", NS)
    def test_interval_holds_the_searched_optimum(self, n):
        for p in self.PS:
            res = fock_diagonal_ncm(self._state(n, p))
            assert res.lower.converged and res.upper.converged
            assert res.lower.certificate["iterations"] == 0
            oracle = _vacuum_pair_search(n, p)
            # the search's end is a feasible mixture, so never below the optimum
            assert res.lower.value <= oracle, (n, p)
            assert oracle <= res.upper.value + 1e-12, (n, p, oracle - res.upper.value)

    @pytest.mark.parametrize("n", NS)
    def test_phi_stays_below_one(self, n):
        # Lindsay's condition: phi(t) = sum_k (p_k/q_k) pois(k; t) <= 1 for every t >= 0
        ks = np.array([0.0, float(n)])
        grid = 2.0 * n * np.linspace(0.0, 1.0, 40001) ** 2
        for p in self.PS:
            p_vec = np.array([1.0 - p, p])
            q, rounds = _poisson._poisson_mixture_fit(ks, p_vec, float(n))[1:]
            assert rounds == 0
            ln_phi = _ln_phi(ks, np.log(p_vec / q), grid)
            assert float(ln_phi.max()) <= 1e-12, (n, p)

    @pytest.mark.parametrize("levels", [(1, 3), (0, 2, 5)])
    def test_other_supports_take_the_exchange_loop(self, levels):
        from cvres.states import FockDiagonalState

        weights = np.full(len(levels), 1.0 / len(levels))
        res = fock_diagonal_ncm(FockDiagonalState(levels, weights, 0.0))
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["iterations"] >= 1


def _fit_grid_values(monkeypatch, ks, ln_ell, t_cap):
    """The grid and the values of phi / max ell on it that the fit's polisher receives."""
    seen = []
    factory = _poisson._peak_polisher

    def recording(powers, grid):
        polish = factory(powers, grid)

        def record(ln_w, values):
            seen.append((grid, values))
            return polish(ln_w, values)

        return record

    monkeypatch.setattr(_poisson, "_peak_polisher", recording)
    _poisson._phi_maxima(ks, t_cap)(ln_ell)
    return seen[0]


def _ln_phi(ks, ln_ell, ts):
    """ln phi(t) = logsumexp_k(ln ell_k + ln pois(k; t)), level by level."""
    ts = np.asarray(ts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_ln_t = np.where(ks[:, None] == 0.0, 0.0, ks[:, None] * np.log(ts[None, :]))
    v = ln_ell[:, None] + k_ln_t - ts[None, :] - gammaln(ks + 1.0)[:, None]
    top = np.maximum(v.max(axis=0), -1e300)  # phi(0) = 0 without level 0
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(v - top).sum(axis=0))


class TestPhiMaxima:
    @pytest.mark.parametrize("case", ["span700", "span700-no-vacuum", "tail", "flat"])
    def test_grid_values_match_logsumexp(self, case, monkeypatch):
        # the shifted weights and the table product neither overflow nor warn, and
        # agree with the per-level logsumexp wherever phi >= 1e-300 max ell
        rng = np.random.default_rng(11)
        if case.startswith("span700"):
            ks = np.arange(1.0 if case.endswith("no-vacuum") else 0.0, 41.0)
            ln_ell = np.linspace(-700.0, 700.0, ks.size)
            rng.shuffle(ln_ell)
        elif case == "tail":
            ks = np.arange(0.0, 81.0, 2.0)
            ln_ell = np.linspace(0.0, 700.0, ks.size)
        else:
            ks = np.array([0.0, 3.0, 4.0, 9.0])
            ln_ell = rng.uniform(-1.0, 1.0, ks.size)
        grid, values = _fit_grid_values(monkeypatch, ks, ln_ell, float(ks.max()))
        ln_phi = _ln_phi(ks, ln_ell, grid)
        shift = float(ln_ell.max())
        keep = ln_phi >= math.log(1e-300) + shift
        assert np.count_nonzero(keep) > grid.size // 2
        ref = np.exp(ln_phi[keep] - shift)
        assert np.max(np.abs(values[keep] - ref) / ref) <= 1e-12

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(levels=st.sets(st.integers(0, 40), min_size=1), seed=st.integers(0, 2**32 - 1))
    @example(levels={0}, seed=0)  # t_cap = 1e-9
    @example(levels={7}, seed=0)  # the polished top level rounds past t_cap without its clip
    @example(levels={0, 1, 2, 5}, seed=0)
    def test_largest_maximum_matches_a_fine_search(self, levels, seed):
        ks = np.array(sorted(levels), dtype=float)
        ln_ell = np.random.default_rng(seed).uniform(-60.0, 60.0, ks.size)
        t_cap = max(float(ks.max()), 1e-9)  # as fock_diagonal_ncm sets it
        ts, ln_phi = _poisson._phi_maxima(ks, t_cap)(ln_ell)
        assert np.all((ts >= 0.0) & (ts <= t_cap))
        # oracle: a 20001-point sqrt(t) grid, its best point refined between its neighbours
        grid = t_cap * np.linspace(0.0, 1.0, 20001) ** 2
        fine = _ln_phi(ks, ln_ell, grid)
        i = int(np.argmax(fine))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        res = minimize_scalar(lambda t: -_ln_phi(ks, ln_ell, [t])[0], bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-14 * max(hi, 1.0)})
        oracle = max(float(fine[i]), -float(res.fun))
        assert abs(float(ln_phi.max()) - oracle) <= 1e-12 * max(1.0, abs(oracle))

    # (nu, n, p, cutoff, rounds the fit took with its own six-step Newton loop)
    BENCH_ROWS = [(0.0, 1, 0.2, 20, 11), (0.0, 1, 0.5, 20, 4), (0.0, 1, 0.8, 20, 6),
                  (0.0, 2, 0.2, 20, 4), (0.0, 2, 0.5, 20, 3), (0.0, 2, 0.8, 20, 9),
                  (0.5, 2, 0.3, 40, 12), (0.5, 2, 0.7, 40, 10),
                  (1.0, 2, 0.3, 40, 16), (1.0, 2, 0.7, 40, 12)]

    @pytest.mark.parametrize("nu, n, p, cutoff, rounds", BENCH_ROWS)
    def test_bench_rows_fit_in_no_more_rounds(self, nu, n, p, cutoff, rounds):
        # the noisy-Fock rows of the benchmark's figure commands
        spec = StateSpec("noisy_fock", {"n": n, "nu": nu, "p": p}, cutoff)
        res = fock_diagonal_ncm(make_state(spec, deficit_tol=1e-4))
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["iterations"] <= rounds

    @pytest.mark.parametrize("r, cutoff, rounds",
                             [(0.5, 50, 24), (0.9, 80, 20), (1.0, 120, 38), (1.1, 136, 43)])
    def test_dephased_squeezed_fit_in_no_more_rounds(self, r, cutoff, rounds):
        # long even-level diagonals, whose late weight steps run at model slopes of
        # 1e-12 to 1e-15 and so hinge on the last digits of the least-squares step;
        # with a heavy sum row in that step, r = 1.0 and 1.1 stalled unconverged after
        # 38 and 43 rounds
        rho = make_state(StateSpec("squeezed", {"r": r}, cutoff), deficit_tol=1e-3)
        res = fock_diagonal_ncm(dephase(rho))
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["iterations"] <= rounds

    def test_newton_rounds_reach_the_single_atom(self, monkeypatch):
        # levels {1, 3} at equal weights: the optimum is one atom, which the exchange
        # approaches linearly; a Newton step on the atom and the weights finishes it
        from cvres.states import FockDiagonalState

        newton = _poisson.mixture_newton
        calls = []
        monkeypatch.setattr(_poisson, "mixture_newton", lambda *a: calls.append(1) or newton(*a))
        res = fock_diagonal_ncm(FockDiagonalState((1, 3), (0.5, 0.5), 0.0))
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["iterations"] <= 5
        assert calls
        assert "(1 atoms)" in res.lower.certificate["ansatz_description"]
        # n = 1, p = 0.2 took 11 exchange rounds alone; it is a vacuum pair, now solved in none
        spec = StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.2}, 20)
        res = fock_diagonal_ncm(make_state(spec, deficit_tol=1e-4))
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["iterations"] == 0
        assert "(1 atoms)" in res.lower.certificate["ansatz_description"]

    @pytest.mark.parametrize("family, params, cutoff, deficit_tol", [
        *[("squeezed", {"r": r}, cutoff, tol) for r, cutoff in [(0.84, 75), (0.98, 88), (1.12, 102),
                                                                (1.2, 112)]
          for tol in (1e-3, 1e-6)],
        ("noisy_fock", {"n": 2, "nu": 1, "p": 0.9}, 100, 1e-6),
        ("noisy_fock", {"n": 3, "nu": 2, "p": 0.5}, 100, 1e-6),
    ])
    def test_far_tail_stall_takes_the_vertex_step(self, family, params, cutoff, deficit_tol):
        # late rounds on far-tail peaks, where sum p ln q is flat to rounding, so no
        # backtrack of the weight step ascends; a step towards the top new atom by the
        # slope's root still moves, and the fit ends only if that step is 0.  Each of
        # these fits ended unconverged at such a stall in some variant of the Newton step
        rho = make_state(StateSpec(family, params, cutoff), deficit_tol=deficit_tol)
        res = fock_diagonal_ncm(dephase(rho) if family == "squeezed" else rho)
        assert res.lower.converged and res.upper.converged
        assert res.lower.certificate["duality_gap_bits"] <= 2 * _poisson.FD_TOL_BITS

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["noisy-fock-fixed-n", "noisy-fock-fixed-nu"])
    def test_default_grid_figures_converge(self, name):
        # every row of the two default-grid figures (cutoff 40, deficit_tol 1e-4)
        ps = np.linspace(0.05, 0.95, 19)
        curves = ([(nu, 1) for nu in (0.0, 1.0, 2.0, 3.0)] if name.endswith("-n")
                  else [(0.0, n) for n in (1, 2, 3, 4)])
        for nu, n in curves:
            for p in ps:
                spec = StateSpec("noisy_fock", {"n": n, "nu": nu, "p": float(p)}, 40)
                res = fock_diagonal_ncm(make_state(spec, deficit_tol=1e-4))
                assert res.lower.converged and res.upper.converged, (nu, n, p)
                gap = res.lower.certificate["duality_gap_bits"]
                assert gap <= 2 * _poisson.FD_TOL_BITS, (nu, n, p, gap)


class TestGamma:
    def test_generic_dense_fock1(self):
        bound = gamma_lower_bound(fock_state(1, 20))
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
        rho = DensityOperator.from_hermitian(np.outer(vec, vec.conj()), 1, d)
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
        rho = DensityOperator.from_hermitian(ent / np.real(np.trace(ent)), 1, d)
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

    def test_infeasible_winner_falls_back_unconverged(self, monkeypatch):
        # at b_hi the grid's c is b^2, so E is singular there: a search that returns it
        # leaves the bound to b = 0, flagged
        def at_the_edge(fun, lo, hi):
            return hi, fun(hi), True

        rho = cat_state(0.5, "+", 30)
        best = cat_gamma_lower_bound(rho)
        monkeypatch.setattr(nonclassicality, "bounded_minimum", at_the_edge)
        bound = cat_gamma_lower_bound(rho)
        assert not bound.converged
        assert 0.0 < bound.value < best.value

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

    def test_even_cat_is_one_supremum(self, monkeypatch):
        # the search reads the uncertified envelope peak, so only its winner is certified
        calls = []
        inner = nonclassicality.coherent_sup_certified

        def recording(entries, *, tol):
            calls.append((entries, inner(entries, tol=tol)))
            return calls[-1][1]

        monkeypatch.setattr(nonclassicality, "coherent_sup_certified", recording)
        bound = cat_gamma_lower_bound(cat_state(0.5, "+", 30))
        assert len(calls) == 1
        l_mat, cert = calls[0]
        raw = bound.certificate["raw_value_bits"]
        assert raw == -math.log2(cert.value + 1e-12)
        rng = np.random.default_rng(2)
        betas = rng.uniform(0.0, 2.5, size=400) * np.exp(2j * math.pi * rng.random(400))
        sampled = max(float(np.real(np.vdot(v, l_mat @ v)))
                      for v in (coherent_vector(b, 30)[0] for b in betas))
        assert raw <= -math.log2(sampled)

    # values of the search that certified every point it read (tree c4f1ef0), and at
    # cutoff 8 the cat table's and the protocol figure's states (tree 1da6ab6)
    @pytest.mark.parametrize("alpha, cutoff, before", [(0.3, 30, 0.013949648617842782),
                                                       (0.5, 30, 0.10032487238066669),
                                                       (1.0, 30, 0.7517312048899026),
                                                       (0.3, 8, 0.013936588138299271),
                                                       (math.sqrt(2.0) * 0.3, 8, 0.053662635709248174)])
    def test_even_cat_keeps_its_value(self, alpha, cutoff, before):
        bound = cat_gamma_lower_bound(cat_state(alpha, "+", cutoff))
        assert bound.value >= before - math.log2(1 + nonclassicality.INNER_TOL)

    # values of the one-dimensional search over b, and of the Nelder-Mead search over
    # log E that took exp(M) from one LAPACK eigh per point (tree cc317ed)
    @pytest.mark.parametrize("alpha, cutoff, value, simplex", [
        (0.3, 8, 0.013936588138614477, 0.013936588138299271),
        (math.sqrt(2.0) * 0.3, 8, 0.05366263617892541, 0.053662635709248174),
        (1.0, 23, 0.7517312048848218, 0.7517312048787979),
        (2.4, 54, 0.9999844603809107, 0.9999844603809988)])
    def test_even_cat_matches_the_eigh_search(self, alpha, cutoff, value, simplex):
        bound = cat_gamma_lower_bound(cat_state(alpha, "+", cutoff)).value
        assert bound == pytest.approx(value, rel=0.0, abs=1e-12)
        assert bound >= simplex - 1e-12

    # the cat table's default grid at its cutoffs, from the Nelder-Mead search (tree 06837c3)
    @pytest.mark.parametrize("alpha, before", zip(np.linspace(0.4, 2.4, 11).tolist(), [
        0.04280096623523945, 0.19444235872957363, 0.48013859465443604, 0.7517309732213849,
        0.903123607842903, 0.9676328629190257, 0.990159048944311, 0.9969110541240217,
        0.9993418691053375, 0.9998682931054904, 0.9999739770777895]))
    def test_default_grid_keeps_its_value(self, alpha, before):
        rho = make_state(StateSpec("cat", {"alpha": alpha, "sign": "+"},
                                   required_cat_cutoff(alpha, 1e-9)), deficit_tol=1e-7)
        bound = cat_gamma_lower_bound(rho)
        assert bound.converged
        assert bound.value >= before - math.log2(1 + nonclassicality.INNER_TOL)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.05, 3.0))
    def test_even_cat_search_is_the_ansatz_optimum(self, alpha):
        # the search fixes E00 = 1 and takes the largest c; scipy maximises over (E00, b)
        # with c at its largest value, sup_t F <= 1 taken on a fine grid and refined
        d = required_cat_cutoff(alpha)
        psi, basis = _even_cat_basis(alpha, d)
        _, value, _, converged = _even_cat_ansatz(psi)[2]()
        coords = basis @ psi
        k = np.arange(d)
        # at real sqrt(t) every entry is nonnegative, so F is <sqrt(t)|L|sqrt(t)>
        def parts(t):
            t = np.atleast_1d(t)
            v = np.exp(0.5 * (k * np.log(t)[:, None] - gammaln(k + 1.0)) - 0.5 * t[:, None])
            x = v @ basis[1]
            return v[:, 0] ** 2, 2.0 * v[:, 0] * x, x * x

        grid = (np.linspace(0.0, 1.0, 4001)[1:] ** 2) * (d + 10.0)
        tables = parts(grid)

        def c_top(e00, b):
            def ratio(t):
                f_e0, f_x, f_tau = (p[0] for p in parts(t))
                return (1.0 - e00 * f_e0 - b * f_x) / f_tau
            r = (1.0 - e00 * tables[0] - b * tables[1]) / tables[2]
            i = int(np.argmin(r))
            lo, hi = grid[i - 1] if i else grid[0] * 1e-6, grid[min(i + 1, grid.size - 1)]
            res = minimize_scalar(ratio, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-14 * hi})
            return min(float(r[i]), float(res.fun))

        def loss(x):
            e00, b = x
            if not 0.0 < e00 <= 1.0 or b < 0.0:
                return math.inf
            c = c_top(e00, b)
            if c * e00 <= b * b:
                return math.inf
            lam, vec = np.linalg.eigh(np.array([[e00, b], [b, c]]))
            return -float((vec.T @ coords) ** 2 @ np.log2(lam))

        best = min((minimize(loss, [e00, 0.1], method="Nelder-Mead",
                             options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 2000})
                    for e00 in (1.0, 0.9)), key=lambda r: r.fun)
        assert converged
        assert value >= -best.fun - 1e-10

    def test_even_cat_search_calls_no_eigensolver_per_point(self, monkeypatch):
        # the search reads some 27 peaks at about 10 points b; only the certificate of
        # its winner may call
        rho = cat_state(0.3, "+", 8)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _real=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        bound = cat_gamma_lower_bound(rho)
        assert bound.certificate["iterations"] >= 20
        assert len(calls) <= 2

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

    @pytest.mark.parametrize("x", [1e-17, 1e-12])
    def test_g_keeps_its_digits_at_small_x(self, x):
        # log2(x + 1) would drop the digits of ln(1 + x): 2.5 % low at 1e-17
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            dx = decimal.Decimal(x)
            reference = ((dx + 1) * (dx + 1).ln() - dx * dx.ln()) / decimal.Decimal(2).ln()
        assert g_thermal(x) == pytest.approx(float(reference), rel=1e-12)

    @pytest.mark.parametrize("x", [1e2, 1e8, 1e12, 1e20, 1e300])
    def test_g_keeps_its_digits_at_large_x(self, x):
        # (x + 1) ln(1 + x) - x ln x cancels: it gave 41.3047 for 41.3058 at 1e12 and 0 at 1e20
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(int(math.log10(x)) + 40):  # the reference cancels as well
            mx = mpmath.mpf(x)
            reference = ((mx + 1) * mpmath.log(mx + 1) - mx * mpmath.log(mx)) / mpmath.log(2)
        assert g_thermal(x) == pytest.approx(float(reference), rel=1e-14)

    def test_energy_bound_at_huge_energy(self):
        assert energy_upper_bound(1e20, 1).value == pytest.approx(math.log2(1e20 * math.e), rel=1e-14)


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


def _random_state(rng, d: int, rank: int | None = None) -> DensityOperator:
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    mat = g @ g.conj().T
    return DensityOperator.from_matrix(mat / np.trace(mat), 1, d)


def _ladder(d: int) -> np.ndarray:
    """The lowering operator on d levels."""
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _ansatz_raw(rho) -> float:
    up = classical_ansatz_upper_bound(rho)
    return up.value - up.certificate["truncation_correction_bits"]


class TestClassicalAnsatz:
    def test_coherent_self(self):
        rho = make_state(StateSpec("coherent", {"alpha": 1.5}, 40))
        up = classical_ansatz_upper_bound(rho)
        assert up.value <= 1e-6

    @pytest.mark.parametrize("case", ["fock1", "squeezed", "noisy_fock", "random"])
    def test_fock1_thermal_family(self, case):
        # s = 0: the exact optimum nu = n_c = <n> - |beta|^2 against a fine scan of
        # D(rho || D tau_nu D^+) = -S(rho) + log2(1+nu) - n_c log2(nu/(1+nu))
        if case == "fock1":
            rho = fock_state(1, 30)
        elif case == "squeezed":
            rho = make_state(StateSpec("squeezed", {"r": 0.3}, 44))
        elif case == "noisy_fock":
            rho = make_state(StateSpec("noisy_fock", {"n": 2, "nu": 0.5, "p": 0.4}, 40))
        else:
            rho = _random_state(np.random.default_rng(11), 6)
        up = classical_ansatz_upper_bound(rho)
        raw = up.certificate["unsqueezed_raw_bits"]
        rho_n = rho.renormalized()
        beta = np.trace(rho_n.entries @ _ladder(rho.cutoff))
        n_c = float(np.dot(np.arange(rho.cutoff), rho_n.diagonal())) - abs(beta) ** 2
        assert raw == pytest.approx(g_thermal(n_c) - von_neumann_entropy(rho_n), abs=1e-12)
        nus = np.geomspace(1e-3, 50.0, 200_001)
        scan = -von_neumann_entropy(rho_n) + np.log2(1 + nus) - n_c * np.log2(nus / (1 + nus))
        assert np.all(raw <= scan + 1e-12)
        assert raw == pytest.approx(scan.min(), abs=1e-9)
        assert up.value <= raw + up.certificate["truncation_correction_bits"]
        if case == "fock1":
            # 1-d calculus oracle: min over nu of D(|1><1| || tau_nu) = g(1) = 2 at nu = 1,
            # and no squeezing helps a phase-invariant state
            assert up.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariant_under_rotation(self, seed):
        rng = np.random.default_rng(seed)
        rho = _random_state(rng, 6)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi) * np.arange(6))
        turned = DensityOperator.from_matrix(rho.entries * np.outer(phases, phases.conj()), 1, 6)
        assert _ansatz_raw(turned) == pytest.approx(_ansatz_raw(rho), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariant_under_displacement(self, seed):
        # D(gamma) rho D(gamma)^+ of a d = 6 state, from expm on 160 levels cut to 60, whose
        # tail is far below the tolerance; the ansatz moves its displacement along
        rng = np.random.default_rng(seed)
        rho = _random_state(rng, 6)
        gamma = complex(*rng.uniform(-0.8, 0.8, 2))
        a = _ladder(160)
        disp = expm(gamma * a.conj().T - np.conj(gamma) * a)
        padded = np.zeros((160, 160), dtype=complex)
        padded[:6, :6] = rho.entries
        moved = (disp @ padded @ disp.conj().T)[:60, :60]
        moved = DensityOperator.from_hermitian(moved / np.trace(moved), 1, 60)
        assert _ansatz_raw(moved) == pytest.approx(_ansatz_raw(rho), abs=1e-9)

    @pytest.mark.parametrize("r", [0.005, 0.02, 0.047, 0.3, -0.7, 1.2, -1.8])
    def test_never_above_the_squeezed_thermal_family(self, r):
        # N = n_s: D(s) = -S + log2(1 + n_s) - E_s log2(n_s/(1 + n_s)), scanned finely; the
        # tolerance is that of the refinement (bounded Brent, 1e-5 in ln s)
        rho = make_state(StateSpec("squeezed", {"r": r}, max(40, int(40 + 50 * r * r))),
                         deficit_tol=1e-5)
        rho_n = rho.renormalized()
        d = rho.cutoff
        mean = float(np.dot(np.arange(d), rho_n.diagonal()))
        m = abs(np.trace(rho_n.entries @ _ladder(d) @ _ladder(d)))
        s = np.linspace(1e-4, 2.6, 100_001)
        n_s = 0.5 * np.expm1(2.0 * s)
        frame = np.cosh(2.0 * s) * mean + np.sinh(s) ** 2 - np.sinh(2.0 * s) * m
        family = -von_neumann_entropy(rho_n) + np.log2(1 + n_s) - frame * np.log2(n_s / (1 + n_s))
        assert _ansatz_raw(rho) <= family.min() + 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=st.one_of(
        st.tuples(st.just("squeezed"), st.floats(-1.5, 1.5)),
        st.tuples(st.just("thermal"), st.floats(0.0, 3.0)),
        st.tuples(st.just("cat"), st.floats(0.1, 2.0), st.sampled_from("+-")),
        st.tuples(st.just("raw"), st.integers(2, 8), st.integers(0, 2**32 - 1)),
    ))
    def test_closed_form_against_a_dense_scan(self, case):
        # s* or Brent on [s_b, s*] is never above a dense scan of every s, and never below
        # the sandwich's certified lower bound
        family = case[0]
        if family == "squeezed":
            spec = StateSpec("squeezed", {"r": case[1]}, max(40, int(40 + 50 * case[1] ** 2)))
            rho = make_state(spec, deficit_tol=1e-5)
        elif family == "thermal":
            rho = make_state(StateSpec("thermal", {"nu": case[1]}, 80), deficit_tol=1e-5)
        elif family == "cat":
            rho = cat_state(case[1], case[2], required_cat_cutoff(case[1], 1e-9))
        else:
            rho = _random_state(np.random.default_rng(case[2]), case[1])
        up = classical_ansatz_upper_bound(rho)
        raw = up.value - up.certificate["truncation_correction_bits"]
        assert raw <= classical_gaussian_scan(rho) + 1e-9
        lower, _ = bound_sandwich(rho, max_iters=5)
        assert up.value >= lower.value

    @pytest.mark.parametrize("spec", [
        StateSpec("coherent", {"alpha": [1.2, -0.4]}, 40),
        StateSpec("cat", {"alpha": 1.0, "sign": "+"}, 30),
        StateSpec("cat", {"alpha": 0.5, "sign": "-"}, 30),
        StateSpec("squeezed", {"r": -0.9}, 80),
    ], ids=lambda spec: spec.to_json())
    def test_pure_spec_runs_no_eigensolver(self, monkeypatch, spec):
        # make_state's truncation of a pure vector, renormalised, has rank one: S = 0 exactly
        rho = make_state(spec, deficit_tol=1e-5)
        raw_copy = DensityOperator.from_matrix(rho.entries, 1, rho.cutoff)

        def refuse(state):
            raise AssertionError("von_neumann_entropy ran")

        monkeypatch.setattr(nonclassicality, "von_neumann_entropy", refuse)
        up = classical_ansatz_upper_bound(rho)
        assert math.isfinite(up.value) and up.value >= 0.0
        with pytest.raises(AssertionError, match="von_neumann_entropy ran"):
            classical_ansatz_upper_bound(raw_copy)  # a raw matrix still reads its entropy

    @pytest.mark.parametrize("spec", [
        StateSpec("thermal", {"nu": 1}, 60),
        StateSpec("thermal", {"nu": 0.3}, 30),
        StateSpec("noisy_fock", {"n": 2, "nu": 1, "p": 0.5}, 40),
        StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.2}, 20),
    ], ids=lambda spec: spec.to_json())
    def test_fock_diagonal_runs_no_eigensolver(self, monkeypatch, spec):
        # a Fock-diagonal state's spectrum is its diagonal: S is its Shannon entropy
        rho = make_state(spec, deficit_tol=1e-5)
        assert rho.fock_diagonal
        dense = classical_ansatz_upper_bound(dataclasses.replace(rho, fock_diagonal=False))

        def refuse(state):
            raise AssertionError("von_neumann_entropy ran")

        monkeypatch.setattr(nonclassicality, "von_neumann_entropy", refuse)
        up = classical_ansatz_upper_bound(rho)
        # the flag also sets the truncation fold, so compare the raw values
        raw, dense_raw = (b.value - b.certificate["truncation_correction_bits"] for b in (up, dense))
        assert raw == pytest.approx(dense_raw, rel=0.0, abs=1e-14)

    @given(d=st.integers(2, 6), rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lower_bounds_stay_below(self, d, rank, seed):
        rho = _random_state(np.random.default_rng(seed), d, min(rank, d))
        upper = classical_ansatz_upper_bound(rho).value
        lower, _ = centred_dephased_ncm(rho)
        for bound in (lower, husimi_lower_bound(rho),
                      gamma_lower_bound(rho, max_iters=5)):
            assert bound.value <= upper + 1e-9, bound.certificate

    @staticmethod
    def _dense_mixture(rho, alpha, weights):
        """Dense D(rho || sigma / Tr sigma), sigma = w+ |a><a| + w- |-a><-a| + w0 |0><0|."""
        d = rho.cutoff
        sigma = sum(w * np.outer(v, v.conj()) for w, v in zip(
            weights, (coherent_vector(a, d)[0] for a in (alpha, -alpha, 0.0))))
        sigma = DensityOperator.from_hermitian(sigma / np.trace(sigma), 1, d)
        return relative_entropy(rho.renormalized(), sigma)

    @staticmethod
    def _mixture_raw(up):
        w0 = float(up.certificate["ansatz_description"].split("vacuum weight ")[1])
        return up.value - up.certificate["truncation_correction_bits"], w0

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_cat_mixture_closed_form_matches_dense(self, monkeypatch, alpha, sign):
        # the even cat's objective is the one handed to Brent, in ln(1 - w0); the odd cat reads
        # w0 = 0 unsearched
        searched = []
        real = nonclassicality.bounded_minimum

        def recording(fun, lo, hi):
            searched.append(fun)
            return real(fun, lo, hi)

        monkeypatch.setattr(nonclassicality, "bounded_minimum", recording)
        rho = cat_state(alpha, sign, required_cat_cutoff(alpha, 1e-9))
        raw, w0 = self._mixture_raw(cat_mixture_upper_bound(rho))

        def dense(w):
            return self._dense_mixture(rho, alpha, (0.5 * (1.0 - w), 0.5 * (1.0 - w), w))

        # the certificate prints w0 to 9 digits
        assert raw == pytest.approx(dense(w0), abs=1e-12)
        weights = [1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999]
        if sign == "-":
            assert not searched and w0 == 0.0
            assert all(dense(w) >= raw for w in weights)  # D only rises with w0
        else:
            (divergence,) = searched
            for w in weights:
                assert divergence(math.log1p(-w)) == pytest.approx(dense(w), abs=1e-12)

    @pytest.mark.parametrize("alpha, sign, cutoff", [(0.3, "+", 35), (0.3, "-", 35), (1.0, "+", 30),
                                                     (2.0, "+", 40)])
    def test_cat_mixture_matches_a_dense_scan(self, alpha, sign, cutoff):
        # the 1-d search on equal weights of +-alpha against a scan of all three weights
        rho = cat_state(alpha, sign, cutoff)
        raw, w0 = self._mixture_raw(cat_mixture_upper_bound(rho))
        grid = np.linspace(0.0, 1.0, 41)
        scan = min(self._dense_mixture(rho, alpha, (x, y, max(1.0 - x - y, 0.0)))
                   for x in grid for y in grid if x + y <= 1.0 + 1e-12 and x + y > 0.0)
        assert raw <= scan + 1e-12
        assert raw == pytest.approx(
            self._dense_mixture(rho, alpha, (0.5 * (1 - w0), 0.5 * (1 - w0), w0)), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1])
    def test_near_vacuum_mixture_keeps_its_digits(self, alpha):
        # the even block's determinant w0 (1 - w0) c1^2 / sigma_00^2 is formed without
        # cancellation, so D stays finite and exact where sigma's atoms are nearly parallel
        mpmath = pytest.importorskip("mpmath")
        d = required_cat_cutoff(alpha, 1e-9)
        rho = make_state(StateSpec("cat", {"alpha": alpha, "sign": "+"}, d), deficit_tol=1e-7)
        raw, w0 = self._mixture_raw(cat_mixture_upper_bound(rho))
        assert math.isfinite(raw)
        with mpmath.workdps(60):
            a, w = mpmath.mpf(alpha), mpmath.mpf(w0)
            plus = [mpmath.exp(-a * a / 2) * a**n / mpmath.sqrt(mpmath.factorial(n))
                    for n in range(d)]
            minus = [(-1) ** n * x for n, x in enumerate(plus)]
            sigma = mpmath.matrix(d, d)
            for i in range(d):
                for j in range(d):
                    sigma[i, j] = (1 - w) * (plus[i] * plus[j] + minus[i] * minus[j]) / 2
            sigma[0, 0] += w
            tr = sum(sigma[i, i] for i in range(d))
            psi = [x + y for x, y in zip(plus, minus)]
            norm = mpmath.sqrt(sum(x * x for x in psi))
            vals, vecs = mpmath.eigsy(sigma)
            # sigma has rank 3; rho lies in its support, which the cut at 1e-40 keeps
            reference = -sum((sum(vecs[i, k] * psi[i] for i in range(d)) / norm) ** 2
                             * mpmath.log(vals[k] / tr, 2) for k in range(d) if vals[k] > 1e-40)
        assert raw == pytest.approx(float(reference), rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-4, 1e-3, 3e-3, 0.01])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_near_vacuum_cat_interval_is_ordered(self, alpha, sign):
        # the atoms +-alpha and 0 share all but ~alpha^4 of their span; the mixture's
        # closed form stays finite and positive there
        rho = make_state(StateSpec("cat", {"alpha": alpha, "sign": sign},
                                   required_cat_cutoff(alpha, 1e-9)), deficit_tol=1e-7)
        lower, upper = bound_sandwich(rho)
        assert lower.value <= upper.value
        assert cat_mixture_upper_bound(rho).value >= quadrature_lower_bound(rho).value
        if sign == "+":
            assert upper.value > 0.0

    def test_cat2_mixture_gap(self):
        spec = StateSpec("cat", {"alpha": 2, "sign": "+"}, 40)
        rho = make_state(spec, deficit_tol=1e-7)
        up = cat_mixture_upper_bound(rho)
        lo = cat_gamma_lower_bound(cat_state(2.0, "+", 40))
        assert up.value - lo.value < 0.5
        assert lo.value <= up.value + 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 1e-5])
    def test_near_vacuum_cat_interval_holds_zero(self, alpha):
        # the mixture's closed form reads 0 at alpha = 0 and 8.6e-24 bits at 1e-9
        rho = cat_state(alpha, "+", 8)
        upper, lower = cat_mixture_upper_bound(rho), cat_gamma_lower_bound(rho)
        assert upper.value >= 0.0 >= lower.value

    def test_cat_mixture_takes_a_cat(self):
        with pytest.raises(UsageError):
            cat_mixture_upper_bound(make_state(StateSpec("coherent", {"alpha": 1.0}, 20)))

    def test_squeezed_thermal_closed_form(self):
        spec = StateSpec("squeezed", {"r": 1}, 60)
        rho = make_state(spec, deficit_tol=1e-6)
        up = classical_ansatz_upper_bound(rho)
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
                                                          deficit_tol=1e-5)).value
                  for x in (r, -r)]
        assert values[1] == pytest.approx(values[0], rel=1e-12)

    @pytest.mark.parametrize("case", [(0.3, 40), (0.9, 80), (-0.9, 80), "random"])
    def test_squeezed_thermal_frame_energy_identity(self, case):
        # reference: D(rho || sigma) with Tr[rho log2 sigma] from the frame energy
        # Tr[rho D S n S^+ D^+], by expm padded far enough past the cutoff that its own
        # truncation error is negligible
        if case == "random":
            rho = _random_state(np.random.default_rng(4), 8)
        else:
            rho = make_state(StateSpec("squeezed", {"r": case[0]}, case[1]), deficit_tol=1e-5)
        rho_n = rho.renormalized()
        d = rho.cutoff
        pad = d + 200
        a = _ladder(pad)
        ent_pad = np.zeros((pad, pad), dtype=complex)
        ent_pad[:d, :d] = rho_n.entries
        # centre rho at beta, then rotate it by exp(-i phi n) until <a^2> is real and at
        # most 0, the quadrature S squeezes
        beta = np.trace(ent_pad @ a)
        centre = expm(np.conj(beta) * a - beta * a.conj().T)
        ent_pad = centre @ ent_pad @ centre.conj().T
        a2_mean = np.trace(ent_pad @ a @ a)
        u = np.sqrt(-abs(a2_mean) / a2_mean + 0j) if abs(a2_mean) > 0 else 1.0
        phases = u ** np.arange(pad)
        ent_pad = ent_pad * np.outer(phases, phases.conj())
        number_op = a.conj().T @ a
        s_bits = von_neumann_entropy(rho_n)

        def d_reference(s):
            sq = expm(0.5 * s * (a @ a - (a @ a).conj().T))
            frame = float(np.real(np.trace(ent_pad @ sq @ number_op @ sq.conj().T)))
            n_s = 0.5 * (math.exp(2.0 * s) - 1.0)
            n = max(frame, n_s)
            return -s_bits + math.log2(1 + n) - frame * math.log2(n / (1 + n))

        raw = _ansatz_raw(rho)
        best_s = float(classical_ansatz_upper_bound(rho).certificate["ansatz_description"]
                       .split("best s=")[1])
        assert raw == pytest.approx(d_reference(best_s), abs=1e-9)
        assert raw <= min(d_reference(s) for s in [0.05, 0.3, 0.8]) + 1e-9


class TestQuadratureBound:
    """The closed form from L = exp(-x X^2) on the quadrature of least variance."""

    @pytest.mark.parametrize("x", [0.2, 1.0, 3.0])
    def test_closed_form_supremum(self, x):
        # sup_alpha <alpha|exp(-x X^2)|alpha> = 1/sqrt(1+x); L is built on 80 levels so
        # that its top-left 40 x 40 block, which is certified, carries no truncation error
        a = _ladder(80)
        evals, vecs = np.linalg.eigh((a + a.T) / math.sqrt(2.0))
        ell = (vecs * np.exp(-x * evals**2)) @ vecs.T
        cert = coherent_sup_certified(ell[:40, :40])
        assert cert.value == pytest.approx(1.0 / math.sqrt(1.0 + x), abs=1e-9)

    @pytest.mark.parametrize("spec", [
        StateSpec("fock", {"n": 0}, 20),
        StateSpec("fock", {"n": 3}, 20),
        StateSpec("thermal", {"nu": 0.5}, 40),
        StateSpec("thermal", {"nu": 2.0}, 60),
        StateSpec("coherent", {"alpha": 1.2}, 40),
        StateSpec("coherent", {"alpha": 1.5}, 40),
        StateSpec("coherent", {"alpha": [0.5, 0.7]}, 30),
        StateSpec("coherent", {"alpha": [-2.0, 0.3]}, 40),
    ], ids=lambda spec: spec.to_json())
    def test_zero_without_squeezing(self, spec):
        # v = 2<n> + 1 on a Fock-diagonal state and v = 1 on a coherent state, where centring
        # cancels <n> and <a^2> against |beta|^2 and beta^2 to a few ulp, which the rounding
        # allowance covers: (v - 1 - ln v)/2 would turn them into 1e-32 to 1e-30 bits
        bound = quadrature_lower_bound(make_state(spec, deficit_tol=1e-5))
        assert bound.certificate["raw_value_bits"] == 0.0
        assert bound.value == 0.0

    def test_squeezed_vacuum_closed_form(self):
        # v = e^(-2r): (e^(-2r) - 1 + 2r)/2 nats, above log2 cosh r, the Gaussian lower bound
        for r in (0.3, -0.5, 0.9):
            rho = make_state(StateSpec("squeezed", {"r": r}, 80), deficit_tol=1e-5)
            raw = quadrature_lower_bound(rho).certificate["raw_value_bits"]
            assert raw == pytest.approx(0.5 * LOG2E * (math.exp(-2 * abs(r)) - 1 + 2 * abs(r)),
                                        abs=1e-9)
            assert raw > math.log2(math.cosh(r))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(r=st.floats(0.3, 0.8), w=st.floats(0.0, 0.05), theta=st.floats(0.0, 2 * math.pi),
           gamma=st.complex_numbers(max_magnitude=1.0), seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_rotation_and_displacement(self, r, w, theta, gamma, seed):
        # a squeezed vacuum mixed with a little of a random 3-level state, on 40 levels;
        # its displacement by gamma is kept on 40 + 60 levels, past which nothing is left
        d, rows = 40, 100
        squeezed = make_state(StateSpec("squeezed", {"r": r}, d), deficit_tol=1e-5)
        ent = (1.0 - w) * squeezed.renormalized().entries
        ent[:3, :3] += w * _random_state(np.random.default_rng(seed), 3).entries
        rho = DensityOperator.from_matrix(ent, 1, d)
        phases = np.exp(1j * theta * np.arange(d))
        turned = DensityOperator.from_matrix(ent * np.outer(phases, phases.conj()), 1, d)
        cols = displacement_columns(gamma, rows, d)
        moved = cols @ ent @ cols.conj().T
        moved = DensityOperator.from_hermitian(moved / np.trace(moved), 1, rows)
        raw = quadrature_lower_bound(rho).certificate["raw_value_bits"]
        assert raw > 0.0
        for other in (turned, moved):
            assert quadrature_lower_bound(other).certificate["raw_value_bits"] == pytest.approx(
                raw, abs=1e-9)


@pytest.mark.slow
class TestDephasingMonotonicity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_dephased_cat_below_cat_upper(self, alpha):
        # dephasing is a classical channel, so the exact value of the dephased
        # cat cannot exceed any upper bound on the cat itself
        d = 40
        spec = StateSpec("cat", {"alpha": alpha, "sign": "+"}, d)
        rho = make_state(spec, deficit_tol=1e-7)
        exact = fock_diagonal_ncm(dephase(rho))
        upper = cat_mixture_upper_bound(rho)
        assert exact.lower.value <= upper.value + 1e-6


def _displaced_mixture(beta: complex, d: int, weights: dict) -> DensityOperator:
    """Truncated D(beta) (sum_n w_n |n><n|) D(beta)^+, from the ladder on a padded space."""
    pad = d + 60
    coh, _ = coherent_vector(beta, pad)
    ent = np.zeros((d, d), dtype=complex)
    vec = coh
    for n in range(max(weights) + 1):
        if n in weights:
            ent += weights[n] * np.outer(vec[:d], vec[:d].conj())
        raised = np.zeros(pad, dtype=complex)
        raised[1:] = np.sqrt(np.arange(1, pad)) * vec[:-1]
        vec = (raised - np.conj(beta) * vec) / math.sqrt(n + 1)
    return DensityOperator.from_matrix(ent, 1, d)


def _random_raw_state(d: int, rank: int, seed: int) -> DensityOperator:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    return DensityOperator.from_matrix(mat / np.trace(mat), 1, d)


class TestCentredDephased:
    """The centred and dephased pair for raw single-mode matrices."""

    def test_interval_is_covariant(self):
        # the same noisy Fock state displaced by the four quarter turns and three random betas
        rng = np.random.default_rng(4)
        betas = [1j**k for k in range(4)] + list(
            rng.uniform(0.5, 1.2, 3) * np.exp(2j * math.pi * rng.random(3)))
        intervals = [bound_sandwich(_displaced_mixture(b, 30, {1: 0.6, 0: 0.4})) for b in betas]
        first = [b.certificate["raw_value_bits"] for b in intervals[0]]
        for pair in intervals:
            assert [b.certificate["raw_value_bits"] for b in pair] == pytest.approx(first, abs=1e-7)
            # the fold differs only by the trace's rounding, a deficit of at most a few ulp
            assert [b.value for b in pair] == pytest.approx([b.value for b in intervals[0]], abs=2e-6)

    @pytest.mark.parametrize("beta, weights, truth", [
        (1.0, {1: 1.0}, fock_closed_form(1)),
        (0.8, {2: 1.0}, fock_closed_form(2)),
        (1.0, {1: 0.6, 0: 0.4}, noisy_fock_closed_form(0.6)),
    ])
    def test_displaced_states_reach_the_closed_form(self, beta, weights, truth):
        lo, hi = bound_sandwich(_displaced_mixture(beta, 30, weights))
        assert lo.converged and hi.converged
        assert lo.certificate["ansatz_description"].startswith("centred at")
        assert truth - 1e-5 <= lo.value <= truth <= hi.value <= truth + 1e-5
        assert lo.certificate["raw_value_bits"] == pytest.approx(truth, abs=1e-7)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(d=st.integers(2, 6), pure=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_lower_below_upper_on_random_states(self, d, pure, seed):
        rho = _random_raw_state(d, 1 if pure else d, seed)
        lower, upper = centred_dephased_ncm(rho)
        assert lower.value <= upper.value
        assert upper.value <= energy_upper_bound(rho.energy).value + 1e-9

    def test_ascent_runs_only_on_a_gap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense ascent ran")

        monkeypatch.setattr(nonclassicality, "gamma_lower_bound", refuse)
        lo, hi = bound_sandwich(_displaced_mixture(1.0, 20, {1: 1.0}))
        assert hi.value - lo.value <= 1e-5
        with pytest.raises(AssertionError, match="dense ascent ran"):
            bound_sandwich(_random_raw_state(6, 6, 0))

    def test_mass_past_the_pad_is_folded(self):
        # half the coherent state of amplitude 3 and half |39> at cutoff 40: centring
        # by about 1.5 spreads |39> past level d + CENTRE_PAD
        d = 40
        coh, _ = coherent_vector(3.0, d)
        ent = 0.5 * np.outer(coh, coh.conj())
        ent[39, 39] += 0.5
        rho = DensityOperator.from_matrix(ent / np.real(np.trace(ent)), 1, d)
        beta = complex(np.sqrt(np.arange(1.0, d)) @ np.diagonal(rho.entries, offset=-1))
        a = np.diag(np.sqrt(np.arange(1.0, 400)), 1)
        shifted = expm(np.conj(beta) * a - beta * a.T)[:, :d]  # D(-beta) on 400 levels
        p_c = np.real(np.einsum("mj,jk,mk->m", shifted, rho.entries, shifted.conj()))
        kept = p_c[:d + nonclassicality.CENTRE_PAD]
        tau = 1.0 - float(kept.sum())
        assert tau > 1e-3
        pad = truncation_certificate(tau, (math.sqrt(rho.energy) + abs(beta)) ** 2)
        cut = fock_diagonal_ncm(DensityOperator.from_matrix(np.diag(kept / kept.sum()), 1, kept.size))
        dephasing = entropy_of_probabilities(kept / kept.sum()) - von_neumann_entropy(rho)

        lower, upper = centred_dephased_ncm(rho)
        assert lower.certificate["pad_epsilon"] == pytest.approx(tau, rel=1e-8)
        assert lower.certificate["pad_correction_bits"] == pytest.approx(pad, rel=1e-6)
        assert lower.certificate["raw_value_bits"] == pytest.approx(cut.lower.value - pad, abs=1e-6)
        assert upper.certificate["raw_value_bits"] == pytest.approx(
            cut.upper.value + dephasing + 2.0 * pad, abs=1e-6)


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
        self._correction(gamma_lower_bound(sq, max_iters=3), sq, energy)
        self._correction(husimi_lower_bound(sq), sq, energy)
        self._correction(cat_gamma_lower_bound(cat_state(1.0, "-", 14)),
                         make_state(self.CAT, deficit_tol=1e-6), exact_energy(self.CAT))

    def test_upper_engines_add_correction(self):
        rho = make_state(self.THERMAL, deficit_tol=1e-4)
        rho_n = rho.renormalized()
        s_bits = von_neumann_entropy(rho_n)
        up = classical_ansatz_upper_bound(rho)
        raw = g_thermal(rho_n.energy) - s_bits
        assert up.value - self._correction(up, rho, 1.0) == pytest.approx(raw, abs=1e-12)
        up = wehrl_upper_bound(rho)
        est = wehrl_entropy(rho_n)
        raw = est.bits + est.tail_bits - s_bits
        assert up.value - self._correction(up, rho, 1.0) == pytest.approx(raw, abs=1e-12)
        sq, sq_energy = make_state(self.SQUEEZED, deficit_tol=1e-4), exact_energy(self.SQUEEZED)
        self._correction(classical_ansatz_upper_bound(sq), sq, sq_energy)
        cat = make_state(self.CAT, deficit_tol=1e-6)
        mixture = cat_mixture_upper_bound(cat)
        assert math.isfinite(mixture.value)
        self._correction(mixture, cat, exact_energy(self.CAT))

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
        bounds = [gamma_lower_bound(rho, max_iters=3),
                  husimi_lower_bound(rho),
                  wehrl_upper_bound(rho),
                  classical_ansatz_upper_bound(rho)]
        if rho.fock_diagonal:
            bounds.extend(fock_diagonal_ncm(rho))
        if spec.family == "cat":
            bounds += [cat_gamma_lower_bound(rho), cat_mixture_upper_bound(rho)]
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
        lo, hi = bound_sandwich(rho, max_iters=60)
        assert lo.value <= hi.value
        assert gamma_lower_bound(rho).value <= hi.value + SANDWICH_SLACK

    def test_spec_cat_takes_the_centred_pair(self):
        # a spec-built cat gets the generic candidates of a raw matrix, whose centre is 0 by
        # parity, and its family adds the parity-block ansatz and the {+-alpha, 0} mixture
        pair = "centred at 0+0j and dephased"
        cats = {(a, sign): make_state(StateSpec("cat", {"alpha": a, "sign": sign}, 20))
                for a, sign in ((0.3, "+"), (0.3, "-"), (0.3 * math.sqrt(2.0), "+"))}
        intervals = {key: bound_sandwich(rho) for key, rho in cats.items()}
        lo, hi = intervals[0.3, "+"]
        assert lo.certificate["ansatz_description"].startswith("cat parity-block ansatz")
        assert hi.certificate["ansatz_description"].startswith(pair)
        assert all(b.certificate["ansatz_description"].startswith(pair)
                   for b in intervals[0.3, "-"])
        hi = intervals[0.3 * math.sqrt(2.0), "+"][1]
        assert hi.certificate["ansatz_description"].startswith("coherent mixture")
        for key, rho in cats.items():
            raw = DensityOperator.from_matrix(rho.entries, 1, rho.cutoff)
            np.testing.assert_array_equal(raw.entries, rho.entries)
            raw_lo, raw_hi = bound_sandwich(raw, max_iters=5)
            lo, hi = intervals[key]
            assert raw_lo.value <= lo.value <= hi.value <= raw_hi.value

    def test_sparse_basel_keeps_its_interval(self):
        # a FockDiagonalState takes the diagonal program alone: the moment engines need a matrix
        lo, hi = bound_sandwich(make_state(StateSpec("basel", {"n_max": 3}, 9)))
        assert lo.value == 0.0
        assert hi.value == pytest.approx(2.28612228, abs=1e-8)

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


class TestCrossCutoffSandwich:
    """Every interval holds the same true value, so no cutoff's lower bound exceeds
    another cutoff's upper bound of the same state."""

    @staticmethod
    def assert_nested(family, params, cutoffs, deficit_tol):
        intervals = [bound_sandwich(make_state(StateSpec(family, params, d),
                                               deficit_tol=deficit_tol)) for d in cutoffs]
        for d_lo, (lo, _) in zip(cutoffs, intervals):
            for d_hi, (_, hi) in zip(cutoffs, intervals):
                assert lo.value <= hi.value + SANDWICH_SLACK, (d_lo, d_hi, lo.value, hi.value)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n=st.integers(0, 4), nu=st.floats(0.0, 2.0), p=st.floats(0.0, 1.0))
    def test_noisy_fock(self, n, nu, p):
        self.assert_nested("noisy_fock", {"n": n, "nu": nu, "p": p}, (30, 45, 70), 1e-4)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.1, 2.0), sign=st.sampled_from(["+", "-"]))
    def test_cat(self, alpha, sign):
        d = required_cat_cutoff(alpha, 1e-9)
        self.assert_nested("cat", {"alpha": alpha, "sign": sign}, (d, d + 8, d + 20), 1e-7)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(r=st.floats(-1.2, 1.2))
    def test_squeezed(self, r):
        d = max(40, int(40 + 50 * r * r))  # the squeezed figure's default cutoff
        self.assert_nested("squeezed", {"r": r}, (d, d + 15), 1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_noisy_fock_lower_bound_stable_in_cutoff(self, n):
        # a larger cutoff folds in less truncation correction: the corrected lower bound
        # may rise with it, but falls by no more than the Fock-diagonal program's tolerance
        for nu in (0.0, 0.5, 1.0):
            for p in (0.2, 0.5, 0.9):
                lowers = [fock_diagonal_ncm(make_state(
                    StateSpec("noisy_fock", {"n": n, "nu": nu, "p": p}, d), deficit_tol=1e-4)
                ).lower.value for d in (30, 45, 70)]
                assert all(b >= a - 2 * _poisson.FD_TOL_BITS
                           for a, b in zip(lowers, lowers[1:])), (nu, p, lowers)


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
        StateSpec("cat", {"alpha": 0.3, "sign": "+"}, 20),
        StateSpec("cat", {"alpha": 0.3, "sign": "-"}, 20),
        StateSpec("cat", {"alpha": 1.0, "sign": "+"}, 30),
        StateSpec("cat", {"alpha": 1.0, "sign": "-"}, 30),
    ], ids=lambda spec: spec.to_json())
    def test_never_looser(self, spec):
        rho = make_state(spec, deficit_tol=1e-5)
        energy = exact_energy(spec)
        lo, hi = bound_sandwich(rho)
        lowers = [husimi_lower_bound(rho), quadrature_lower_bound(rho)]
        uppers = [energy_upper_bound(energy), classical_ansatz_upper_bound(rho)]
        if spec.family in ("coherent", "thermal", "squeezed"):
            g_lower, g_upper = gaussian_bounds(gaussian_descriptor(spec))
            lowers.append(g_lower)
            uppers.append(g_upper)
        if rho.fock_diagonal:
            lowers.append(fock_diagonal_ncm(rho).lower)
        elif spec.family not in ("coherent", "thermal", "squeezed"):
            pair = centred_dephased_ncm(rho)
            lowers.append(pair.lower)
            uppers.append(pair.upper)
        for b in lowers:
            assert lo.value >= b.value - 1e-12, b.certificate
        for b in uppers:
            assert hi.value <= b.value + 1e-12, b.certificate


@pytest.mark.parametrize("name", ["coherent_sup_certified", "cat_gamma_lower_bound",
                                  "fock_diagonal_ncm", "gamma_lower_bound",
                                  "classical_ansatz_upper_bound", "bound_sandwich"])
def test_traced_bounds_are_defined_here(name):
    # bench/tracing.py wraps only the functions a layer module defines itself, so a traced
    # bound moved out of cvres.nonclassicality would silently read zero calls and zero time
    assert getattr(nonclassicality, name).__module__ == "cvres.nonclassicality"
