import math

import numpy as np
import pytest
from scipy.linalg import expm

from cvres.errors import ConfigurationError, UsageError
from cvres.fock_core import (
    DensityOperator,
    beam_splitter_fock_column,
    coherent_vector,
    dephase,
    displacement_columns,
    fock_state,
    partial_trace,
    pure_state,
    total_photon_numbers,
    vacuum_state,
)
from cvres.states import StateSpec, cat_amplitudes, make_state, thermal_weights
from oracles import beam_splitter_unitary, tensor_states, trace_distance


def fock_projector(n, d):
    ent = np.zeros((d, d), dtype=complex)
    ent[n, n] = 1.0
    return DensityOperator.from_matrix(ent, 1, d)


class TestTensorProduct:
    def test_vacuum_vacuum(self):
        v = fock_projector(0, 4)
        out = tensor_states(v, v)
        assert out.modes == 2
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.allclose(out.entries, expected)

    def test_one_zero_projector(self):
        out = tensor_states(fock_projector(1, 3), fock_projector(0, 3))
        # |1,0> sits at flat index 1*3 + 0
        expected = np.zeros((9, 9))
        expected[3, 3] = 1.0
        assert np.allclose(out.entries, expected)

    def test_thermal_pair_weights(self):
        # oracle: direct index arithmetic on the product of single-mode weights
        w = thermal_weights(1.0, 5)
        tau = DensityOperator.from_matrix(np.diag(w).astype(complex), 1, 5)
        out = tensor_states(tau, tau)
        diag = np.real(np.diagonal(out.entries))
        for j in range(5):
            for k in range(5):
                assert diag[j * 5 + k] == pytest.approx(w[j] * w[k], abs=1e-15)

    def test_cutoff_mismatch(self):
        with pytest.raises(ConfigurationError):
            tensor_states(fock_projector(0, 3), fock_projector(0, 4))


class TestPartialTrace:
    def test_product_state(self):
        rho = DensityOperator.from_matrix(
            np.kron(fock_projector(1, 3).entries, fock_projector(0, 3).entries), 2, 3
        )
        red = partial_trace(rho, {1})
        assert np.allclose(red.entries, fock_projector(1, 3).entries)

    def test_bell_like(self):
        # hand computation on the 4x4 projector onto (|0,0> + |1,1>)/sqrt(2)
        vec = np.zeros(4)
        vec[0] = vec[3] = 1 / math.sqrt(2)
        rho = DensityOperator.from_matrix(np.outer(vec, vec), 2, 2)
        red = partial_trace(rho, {1})
        assert np.allclose(red.entries, 0.5 * np.eye(2), atol=1e-15)
        assert red.trace() == pytest.approx(1.0, abs=1e-14)

    def test_recovers_factors(self):
        a = make_state(StateSpec("thermal", {"nu": 0.5}, 24))
        b = make_state(StateSpec("fock", {"n": 2}, 24))
        joint = tensor_states(a, b)
        assert np.allclose(partial_trace(joint, {2}).entries, b.entries, atol=1e-14)
        assert np.allclose(partial_trace(joint, {1}).entries, a.entries, atol=1e-14)
        assert partial_trace(joint, {1}).energy <= joint.energy + 1e-12

    def test_empty_keep(self):
        rho = vacuum_state(2, 3)
        with pytest.raises(UsageError):
            partial_trace(rho, set())


class TestCoherentVector:
    def test_vacuum(self):
        vec, deficit = coherent_vector(0.0, 5)
        assert np.allclose(vec, [1, 0, 0, 0, 0])
        assert deficit == 0.0

    def test_alpha_one_d2(self):
        vec, deficit = coherent_vector(1.0, 2)
        assert vec[0] == pytest.approx(math.exp(-0.5))
        assert vec[1] == pytest.approx(math.exp(-0.5))
        assert deficit == pytest.approx(1 - 2 / math.e, abs=1e-12)

    def test_alpha_one_d30_tail(self):
        _, deficit = coherent_vector(1.0, 30)
        assert deficit < 1e-12

    def test_complex_phase(self):
        vec, _ = coherent_vector(1j, 20)
        assert vec[1] == pytest.approx(1j * math.exp(-0.5))


class TestDisplacementColumns:
    @pytest.mark.parametrize("beta", [3.0, 2.0 - 2.0j, 0.3j])
    def test_match_the_dense_exponential(self, beta):
        # at |beta| = 3 the ladder (a^dag - conj(beta))^k |beta> is 4e-4 off on these columns
        d, rows, size = 40, 60, 400
        a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
        dense = expm(beta * a.T - np.conj(beta) * a)[:rows, :d]
        np.testing.assert_allclose(displacement_columns(beta, rows, d), dense, rtol=0, atol=1e-12)

    def test_zero_is_the_identity(self):
        np.testing.assert_array_equal(displacement_columns(0.0, 8, 5), np.eye(8, 5))


class TestLogFactorials:
    def test_values_and_sharing(self):
        from cvres.fock_core import log_factorials

        table = log_factorials(50)
        assert table.shape == (50,) and not table.flags.writeable
        assert table[0] == table[1] == 0.0
        assert all(table[k] == math.lgamma(k + 1.0) for k in range(50))
        assert np.array_equal(log_factorials(500)[:50], table)  # regrown, same values

class TestBeamSplitter:
    def test_lambda_one_identity(self):
        u = beam_splitter_unitary(1.0, 5)
        assert np.allclose(u, np.eye(25), atol=1e-14)

    def test_half_on_one_photon(self):
        u = beam_splitter_unitary(0.5, 4)
        vec = np.zeros(16, dtype=complex)
        vec[1 * 4 + 0] = 1.0
        out = u @ vec
        s = 1 / math.sqrt(2)
        assert out[1 * 4 + 0] == pytest.approx(s, abs=1e-12)
        assert out[0 * 4 + 1] == pytest.approx(-s, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.8])
    def test_fock_closed_form(self, n, lam):
        d = 40
        u = beam_splitter_unitary(lam, d)
        vec = np.zeros(d * d, dtype=complex)
        vec[n * d] = 1.0
        out = (u @ vec).reshape(d, d)
        closed = beam_splitter_fock_column(n, lam)
        sim = np.array([out[n - ell, ell] for ell in range(n + 1)])
        assert np.max(np.abs(np.real(sim) - closed)) < 1e-10
        assert np.max(np.abs(np.imag(sim))) < 1e-12

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)])
    def test_coherent_mapping(self, alpha, beta):
        d = 40
        u = beam_splitter_unitary(0.5, d)
        va, _ = coherent_vector(alpha, d)
        vb, _ = coherent_vector(beta, d)
        out = u @ np.kron(va, vb)
        ta, _ = coherent_vector((alpha + beta) / math.sqrt(2), d)
        tb, _ = coherent_vector((-alpha + beta) / math.sqrt(2), d)
        assert np.max(np.abs(out - np.kron(ta, tb))) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_unitarity(self, lam):
        d = 12
        u = beam_splitter_unitary(lam, d)
        dev = np.max(np.abs(u @ u.conj().T - np.eye(d * d)))
        assert dev < 1e-10

    def test_photon_number_conservation_exact(self):
        d = 8
        u = beam_splitter_unitary(0.37, d)
        totals = total_photon_numbers(2, d)
        mask = totals[:, None] != totals[None, :]
        assert np.all(u[mask] == 0.0)

    def test_invalid_transmissivity(self):
        with pytest.raises(UsageError):
            beam_splitter_unitary(1.2, 4)


class TestDephase:
    def test_fixed_point_on_diagonal(self):
        tau = make_state(StateSpec("thermal", {"nu": 1}, 10), deficit_tol=1e-2)
        assert np.allclose(dephase(tau).entries, tau.entries)

    def test_coherent_poisson_weights(self):
        # oracle: direct amplitude squaring of the coherent expansion
        rho = make_state(StateSpec("coherent", {"alpha": 1}, 25), deficit_tol=1e-4)
        diag = dephase(rho).diagonal()
        expected = np.exp(-1.0) / np.array([float(math.factorial(int(i))) for i in range(25)])
        assert np.allclose(diag, expected, atol=1e-12)

    def test_even_cat_support(self):
        rho = make_state(StateSpec("cat", {"alpha": 1, "sign": "+"}, 25))
        diag = dephase(rho).diagonal()
        assert np.all(diag[1::2] == 0.0)

    def test_idempotent_and_trace_preserving(self):
        rho = make_state(StateSpec("cat", {"alpha": 1, "sign": "+"}, 25))
        once = dephase(rho)
        twice = dephase(once)
        assert np.array_equal(once.entries, twice.entries)
        assert once.trace() == rho.trace()


class TestTraceDistance:
    def test_self(self):
        rho = make_state(StateSpec("coherent", {"alpha": 1}, 15))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert trace_distance(fock_state(0, 4), fock_state(1, 4)) == pytest.approx(2.0)

    def test_mixed_case(self):
        # eigenvalues of the 2x2 difference are +-1/2, so the trace norm is 1
        mixed = DensityOperator.from_matrix(np.diag([0.5, 0.5]).astype(complex), 1, 2)
        assert trace_distance(fock_state(0, 2), mixed) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            trace_distance(fock_state(0, 4), fock_state(0, 5))


class TestDensityOperator:
    def test_energy_matches_definition(self):
        rho = make_state(StateSpec("coherent", {"alpha": 1.3}, 40))
        numbers = total_photon_numbers(1, 40)
        expected = float(np.dot(numbers, rho.diagonal()))
        assert abs(rho.energy - expected) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(UsageError):
            DensityOperator.from_matrix(np.diag([1.5, -0.5]).astype(complex), 1, 2)

    def test_hermiticity_enforced(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(UsageError):
            DensityOperator.from_matrix(bad, 1, 2)

    def test_entries_readonly(self):
        rho = vacuum_state(1, 3)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 2.0
