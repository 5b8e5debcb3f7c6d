import math

import numpy as np
import pytest

from cvres.errors import UsageError
from cvres.fock_core import DensityOperator, dephase, fock_state, trace_distance
from cvres.entropies import (
    QuadratureGrid,
    ascend,
    default_quadrature_grid,
    husimi_q,
    kl_divergence,
    measured_relative_entropy,
    relative_entropy,
    von_neumann_entropy,
    wehrl_entropy,
)
from cvres.nonclassicality import husimi_sup
from cvres.states import StateSpec, make_state
from oracles import husimi_kl_on_grid

LOG2E = math.log2(math.e)


def random_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityOperator.from_hermitian(m / np.real(np.trace(m)), 1, d)


def diag_state(p):
    return DensityOperator.from_hermitian(np.diag(np.asarray(p)).astype(complex), 1, len(p))


class TestVonNeumann:
    def test_pure_zero(self):
        rho = make_state(StateSpec("coherent", {"alpha": 1.5}, 40))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_qubit(self):
        assert von_neumann_entropy(diag_state([0.5, 0.5])) == pytest.approx(1.0)

    def test_thermal_matches_g(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 40))
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-9)


class TestRelativeEntropy:
    def test_self(self):
        rho = make_state(StateSpec("thermal", {"nu": 0.7}, 30))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_vacuum_vs_thermal(self):
        vac = fock_state(0, 40)
        tau = make_state(StateSpec("thermal", {"nu": 1}, 40))
        assert relative_entropy(vac, tau) == pytest.approx(1.0, abs=1e-10)

    def test_disjoint_support(self):
        assert relative_entropy(fock_state(0, 5), fock_state(1, 5)) == math.inf


class TestKl:
    def test_zero_bins(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)
        assert kl_divergence([0.5, 0.5], [0.0, 1.0]) == math.inf
        assert kl_divergence([1e-16, 1.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


class TestMeasuredRelativeEntropy:
    def test_commuting_example(self):
        val, rep = measured_relative_entropy(diag_state([0.5, 0.5]), diag_state([0.25, 0.75]))
        expected = 0.5 * math.log2(2) + 0.5 * math.log2(2 / 3)
        assert val == pytest.approx(expected, abs=1e-6)
        assert rep.converged

    def test_equal_states_zero(self):
        rho = diag_state([0.3, 0.7])
        val, _ = measured_relative_entropy(rho, rho)
        assert abs(val) < 1e-12

    def test_commuting_equals_kl(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            val, _ = measured_relative_entropy(diag_state(p), diag_state(q))
            assert val == pytest.approx(kl_divergence(p, q), abs=1e-6)

    def test_never_exceeds_relative_entropy(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            r1, r2 = random_state(rng, 4), random_state(rng, 4)
            val, _ = measured_relative_entropy(r1, r2)
            assert val <= relative_entropy(r1, r2) + 1e-8

    def test_pinsker(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            r1, r2 = random_state(rng, 4), random_state(rng, 4)
            val, _ = measured_relative_entropy(r1, r2)
            assert val >= 0.5 * LOG2E * trace_distance(r1, r2) ** 2 - 1e-6

    def test_dephasing_data_processing(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            r1, r2 = random_state(rng, 8), random_state(rng, 8)
            val, _ = measured_relative_entropy(r1, r2)
            dephased = kl_divergence(dephase(r1).diagonal(), dephase(r2).diagonal())
            assert dephased <= val + 1e-6


class TestAscend:
    def test_tiny_gain_at_kink_is_not_converged(self):
        # tent f(x) = c - |x - c|: the first accepted step overshoots the kink and
        # gains far less than objective_tol while the gradient norm stays 1
        c = 1e-9
        _, value, _, report = ascend(lambda x: (c - abs(x - c), None),
                                     lambda x, _: 1.0 if x < c else -1.0, 0.0, 50, 1e-8)
        assert 0.0 < value < 1e-8
        assert report.iterations == 1
        assert not report.converged


class TestHusimi:
    def test_vacuum_origin(self):
        vac = fock_state(0, 10)
        assert husimi_q(vac, 0.0) == pytest.approx(1 / math.pi)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_fock_formula(self, n):
        # single-amplitude formula e^{-|a|^2} |a|^{2n} / (pi n!)
        rho = fock_state(n, 30)
        for alpha in (0.5, 1.0, 1.0 + 0.5j):
            t = abs(alpha) ** 2
            expected = math.exp(-t) * t**n / (math.pi * math.factorial(n))
            assert husimi_q(rho, alpha) == pytest.approx(expected, rel=1e-10)

    def test_grid_normalization(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 40))
        grid = default_quadrature_grid(rho.energy, rho.cutoff)
        from cvres.entropies import _husimi_on_grid

        q = _husimi_on_grid(rho, grid)
        radial = grid.radial_weights * np.exp(grid.radial_nodes)
        mass = 0.5 * float(radial @ (q.mean(axis=1) * 2 * math.pi))
        assert mass == pytest.approx(rho.trace(), abs=1e-8)

    def test_husimi_sup_vacuum(self):
        assert husimi_sup(fock_state(0, 10)) == pytest.approx(1 / math.pi, rel=1e-8)

    def test_husimi_sup_fock1(self):
        assert husimi_sup(fock_state(1, 12)) == pytest.approx(math.exp(-1) / math.pi, rel=1e-8)

    def test_husimi_sup_cat_window(self):
        rho = make_state(StateSpec("cat", {"alpha": 1, "sign": "+"}, 30))
        sup = husimi_sup(rho)
        assert husimi_q(rho, 1.0) <= sup <= 2 / math.pi


class TestWehrl:
    def test_vacuum(self):
        est = wehrl_entropy(fock_state(0, 10))
        assert est.bits == pytest.approx(LOG2E, abs=1e-6)
        assert est.tail_bits >= 0.0

    def test_thermal_dominates_von_neumann(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 40))
        est = wehrl_entropy(rho)
        assert est.bits >= 2.0

    def test_squeezed_dominates_coherent_minimum(self):
        rho = make_state(StateSpec("squeezed", {"r": 0.5}, 40))
        est = wehrl_entropy(rho)
        assert est.bits >= LOG2E
        assert est.bits != pytest.approx(LOG2E, abs=1e-3)

    def test_radius_precondition(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 30), deficit_tol=1e-4)
        nodes = np.linspace(0.5, 2.0, 16)
        grid = QuadratureGrid(nodes, np.ones(16) / 16, 16, math.sqrt(2.0), 0.1)
        with pytest.raises(UsageError, match="radius"):
            wehrl_entropy(rho, grid)

    def test_grid_invariants(self):
        with pytest.raises(UsageError):
            QuadratureGrid(np.ones(4), np.ones(4), 64, 10.0, 0.0)
        with pytest.raises(UsageError):
            QuadratureGrid(np.ones(16), np.ones(16), 64, 10.0, -0.1)

    def test_heterodyne_margin(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            r1, r2 = random_state(rng, 8), random_state(rng, 8)
            val, _ = measured_relative_entropy(r1, r2)
            assert val >= husimi_kl_on_grid(r1, r2) - 1e-6
