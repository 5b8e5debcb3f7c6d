import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvres.errors import InsufficientCutoffError, UsageError
from cvres.fock_core import (
    DensityOperator,
    dephase,
    partial_trace,
    total_photon_numbers,
    tensor_states,
)
from cvres.states import (
    FockDiagonalState,
    StateSpec,
    basel_weights,
    exact_energy,
    gaussian_descriptor,
    make_state,
    thermal_weights,
)


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_specs(draw):
    """Random specs of the dense families, with parameters a cutoff up to 4096 holds."""
    family = draw(st.sampled_from(["fock", "coherent", "thermal", "noisy_fock", "cat", "squeezed"]))
    if family == "fock":
        params = {"n": draw(st.integers(0, 30))}
    elif family == "coherent":
        params = {"alpha": draw(_real(-4, 4) | st.lists(_real(-3, 3), min_size=2, max_size=2))}
    elif family == "thermal":
        params = {"nu": draw(_real(0, 5))}
    elif family == "noisy_fock":
        params = {"n": draw(st.integers(0, 5)), "nu": draw(_real(0, 3)), "p": draw(_real(0, 1))}
    elif family == "cat":
        alpha = draw(_real(0.1, 3) | _real(-3, -0.1))  # the odd cat needs alpha != 0
        params = {"alpha": alpha, "sign": draw(st.sampled_from("+-"))}
    else:
        params = {"r": draw(_real(-1.5, 1.5))}
    low = params["n"] + 1 if family == "noisy_fock" else 1  # past the |n>-fits check
    return StateSpec(family, params, draw(st.integers(low, 60)))


class TestMakeState:
    def test_fock(self):
        rho = make_state(StateSpec("fock", {"n": 2}, 5))
        assert rho.diagonal()[2] == 1.0
        assert rho.trace_deficit == 0.0
        assert rho.energy == pytest.approx(2.0)

    def test_thermal_weights(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 40))
        k = np.arange(40)
        assert np.allclose(rho.diagonal(), 0.5 * 0.5**k)
        assert rho.trace_deficit == pytest.approx(2.0**-40, rel=1e-6)

    def test_cat_overlap_symmetry(self):
        # overlap with |-1> equals overlap with |1> by the expansion's symmetry
        from cvres.fock_core import coherent_vector

        rho = make_state(StateSpec("cat", {"alpha": 1, "sign": "+"}, 30))
        vp, _ = coherent_vector(1.0, 30)
        vm, _ = coherent_vector(-1.0, 30)
        op = np.real(np.vdot(vp, rho.entries @ vp))
        om = np.real(np.vdot(vm, rho.entries @ vm))
        assert op == pytest.approx(om, abs=1e-13)
        assert rho.purity() >= 1 - 2 * rho.trace_deficit - 1e-12

    def test_cat_parity_exact(self):
        even = make_state(StateSpec("cat", {"alpha": 1.5, "sign": "+"}, 30))
        odd = make_state(StateSpec("cat", {"alpha": 1.5, "sign": "-"}, 30))
        assert np.all(even.diagonal()[1::2] == 0.0)
        assert np.all(odd.diagonal()[0::2] == 0.0)

    def test_squeezed_r0_is_vacuum(self):
        rho = make_state(StateSpec("squeezed", {"r": 0}, 10))
        assert rho.diagonal()[0] == 1.0

    def test_squeezed_amplitudes_formula(self):
        # rho[4,0] = c_2 * c_0 with c_n = sqrt(C(2n,n)) (-tanh(r)/2)^n / sqrt(cosh r)
        rho = make_state(StateSpec("squeezed", {"r": 0.8}, 50))
        t = math.tanh(0.8)
        expected = math.sqrt(math.comb(4, 2)) * (t / 2) ** 2 / math.cosh(0.8)
        assert np.real(rho.entries[4, 0]) == pytest.approx(expected, rel=1e-12)
        # adjacent even levels alternate in sign
        assert np.real(rho.entries[2, 0]) < 0.0

    def test_purity_of_pure_families(self):
        for spec in [
            StateSpec("coherent", {"alpha": 2}, 40),
            StateSpec("cat", {"alpha": 1, "sign": "-"}, 40),
            StateSpec("squeezed", {"r": 1}, 70),
        ]:
            rho = make_state(spec, deficit_tol=1e-6)
            assert rho.purity() >= 1 - 2 * rho.trace_deficit - 1e-12

    def test_noisy_fock(self):
        rho = make_state(StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 0.3}, 10))
        diag = rho.diagonal()
        assert diag[0] == pytest.approx(0.7)
        assert diag[1] == pytest.approx(0.3)
        assert rho.fock_diagonal

    @pytest.mark.parametrize("family, params, cutoff", [
        ("coherent", {"alpha": 3}, 10),
        ("thermal", {"nu": 1}, 10),
        ("noisy_fock", {"n": 1, "nu": 5, "p": 0.5}, 20),
        ("cat", {"alpha": 2, "sign": "-"}, 10),
        ("squeezed", {"r": 1}, 10),
    ])
    def test_insufficient_cutoff_names_requirement(self, family, params, cutoff):
        with pytest.raises(InsufficientCutoffError) as err:
            make_state(StateSpec(family, params, cutoff))
        required = err.value.required_cutoff
        assert required > cutoff
        rho = make_state(StateSpec(family, params, required))
        assert rho.trace_deficit <= 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=valid_specs(), tol=st.sampled_from([1e-4, 1e-8]))
    def test_deficit_within_tol_or_required_cutoff_builds(self, spec, tol):
        try:
            rho = make_state(spec, deficit_tol=tol)
        except InsufficientCutoffError as err:
            assert err.required_cutoff > spec.cutoff
            rho = make_state(StateSpec(spec.family, spec.params, err.required_cutoff),
                             deficit_tol=tol)
        assert rho.trace_deficit <= tol

    @pytest.mark.parametrize("family, params", [
        ("coherent", {"alpha": 70}),
        ("thermal", {"nu": 2000}),
        ("squeezed", {"r": 4}),
    ])
    def test_no_workable_cutoff_is_a_plain_usage_error(self, family, params):
        with pytest.raises(UsageError, match="no cutoff up to 4096") as err:
            make_state(StateSpec(family, params, 10))
        assert not isinstance(err.value, InsufficientCutoffError)

    def test_renormalized_has_unit_trace(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 20), deficit_tol=1e-4).renormalized()
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        assert rho.trace_deficit == 0.0
        assert rho.renormalized() is rho

    def test_energy_tracks_exact_energy(self):
        for spec in [
            StateSpec("coherent", {"alpha": 1.5}, 50),
            StateSpec("thermal", {"nu": 2}, 90),
            StateSpec("cat", {"alpha": 1, "sign": "+"}, 40),
            StateSpec("squeezed", {"r": 0.8}, 60),
            StateSpec("noisy_fock", {"n": 2, "nu": 1, "p": 0.4}, 60),
        ]:
            rho = make_state(spec, deficit_tol=1e-6)
            assert rho.energy == pytest.approx(exact_energy(spec), abs=1e-5)

    @pytest.mark.parametrize("family, params", [
        ("coherent", {"alpha": 1e200}),
        ("cat", {"alpha": 1e200, "sign": "+"}),
        ("squeezed", {"r": 1000}),
    ])
    def test_exact_energy_past_float_range_is_inf(self, family, params):
        assert exact_energy(StateSpec(family, params, 10)) == math.inf


class TestBasel:
    def test_sparse_representation(self):
        state = make_state(StateSpec("basel", {"n_max": 20}, 2**20 + 1))
        assert isinstance(state, FockDiagonalState)
        assert state.indices[-1] == 2**20

    def test_trace_partial_sum(self):
        _, w, deficit = basel_weights(20)
        partial = (6 / math.pi**2) * sum(1 / (n + 1) ** 2 for n in range(21))
        assert float(np.sum(w)) == pytest.approx(partial, abs=1e-15)
        assert deficit == pytest.approx(1 - partial, abs=1e-15)

    def test_insufficient_cutoff(self):
        with pytest.raises(InsufficientCutoffError) as err:
            make_state(StateSpec("basel", {"n_max": 5}, 10))
        assert err.value.required_cutoff == 2**5 + 1
        assert "needs cutoff >= 2**5 + 1, got 10" in str(err.value)


class TestSpecOnState:
    """Only make_state records the spec on the state it returns."""

    @pytest.mark.parametrize("spec", [
        StateSpec("fock", {"n": 1}, 6),
        StateSpec("coherent", {"alpha": 1}, 12),
        StateSpec("thermal", {"nu": 1}, 12),
        StateSpec("noisy_fock", {"n": 1, "nu": 1, "p": 0.5}, 12),
        StateSpec("cat", {"alpha": 1, "sign": "-"}, 12),
        StateSpec("squeezed", {"r": 0.5}, 16),
        StateSpec("basel", {"n_max": 3}, 9),
    ], ids=lambda spec: spec.family)
    def test_make_state_records_its_spec(self, spec):
        assert make_state(spec, deficit_tol=1e-2).spec is spec

    def test_every_other_constructor_leaves_none(self):
        rho = make_state(StateSpec("thermal", {"nu": 1}, 6), deficit_tol=1e-1)
        assert rho.trace_deficit > 0.0 and rho.spec is not None
        pair = tensor_states(rho, rho)
        derived = [DensityOperator.from_matrix(rho.entries, 1, 6), dephase(rho),
                   rho.renormalized(), pair, partial_trace(pair, [1])]
        assert [state.spec for state in derived] == [None] * len(derived)
        assert FockDiagonalState((0, 1), np.array([0.5, 0.5]), 0.0).spec is None

    def test_renormalized_without_deficit_is_the_state_itself(self):
        rho = make_state(StateSpec("fock", {"n": 2}, 6))
        assert rho.trace_deficit == 0.0 and rho.renormalized() is rho
        assert rho.renormalized().spec is rho.spec


class TestStateSpecJson:
    def test_round_trip(self):
        spec = StateSpec("cat", {"alpha": 1.5, "sign": "+"}, 40)
        again = StateSpec.from_json(spec.to_json())
        assert again == spec

    def test_field_names(self):
        doc = json.loads(StateSpec("noisy_fock", {"n": 1, "nu": 0.5, "p": 0.9}, 30).to_json())
        assert set(doc) == {"family", "params", "cutoff"}
        assert set(doc["params"]) == {"n", "nu", "p"}

    def test_rejects_unknown_family(self):
        with pytest.raises(UsageError):
            StateSpec("noon", {"n": 1}, 10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=valid_specs())
    def test_round_trip_random(self, spec):
        assert StateSpec.from_json(spec.to_json()) == spec
        assert StateSpec(spec.family, spec.params, spec.cutoff) == spec

    def test_complex_alpha_round_trip(self):
        spec = StateSpec("coherent", {"alpha": [0.5, -0.7]}, 30)
        assert spec.params["alpha"] == complex(0.5, -0.7)
        assert json.loads(spec.to_json())["params"]["alpha"] == [0.5, -0.7]
        assert StateSpec.from_json(spec.to_json()) == spec
        assert json.loads(StateSpec("coherent", {"alpha": 2}, 30).to_json())["params"] == {
            "alpha": 2.0}

    def test_params_converted_once(self):
        spec = StateSpec("noisy_fock", {"p": 1, "nu": 2, "n": 3.0}, 20.0)
        assert spec.params == {"n": 3, "nu": 2.0, "p": 1.0}
        assert [type(v) for v in spec.params.values()] == [int, float, float]
        assert type(spec.cutoff) is int

    def test_validates_params(self):
        with pytest.raises(UsageError):
            StateSpec("noisy_fock", {"n": 1, "nu": 0, "p": 1.5}, 10)
        with pytest.raises(UsageError):
            StateSpec("cat", {"alpha": 1, "sign": "x"}, 10)

    @pytest.mark.parametrize("family, params, cutoff", [
        ("fock", {"n": 2.5}, 10),
        ("fock", {"n": True}, 10),
        ("thermal", {"nu": "1.5"}, 10),
        ("thermal", {"nu": math.inf}, 10),
        ("coherent", {"alpha": [1]}, 10),
        ("cat", {"alpha": [1, 0], "sign": "+"}, 10),
        ("squeezed", {"r": math.nan}, 10),
        ("squeezed", {"r": 0.5, "s": 1}, 10),
        ("basel", {}, 10),
        ("fock", {"n": 1}, 10.5),
        ("fock", {"n": 1}, "10"),
        ("fock", [1], 10),
    ])
    def test_rejects_ill_typed_params(self, family, params, cutoff):
        with pytest.raises(UsageError, match=family):
            StateSpec(family, params, cutoff)

    def test_rejects_modes_other_than_one(self):
        doc = {"family": "fock", "params": {"n": 1}, "cutoff": 10}
        assert StateSpec.from_json(json.dumps({**doc, "modes": 1})) == StateSpec.from_json(
            json.dumps(doc))
        with pytest.raises(UsageError, match="modes"):
            StateSpec.from_json(json.dumps({**doc, "modes": 2}))


def quadrature_moments(rho):
    d = rho.cutoff
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    x = (a + a.T.conj()) / math.sqrt(2)
    p = (a - a.T.conj()) / (1j * math.sqrt(2))
    rvec = [x, np.asarray(p)]
    ent = rho.entries
    s = np.array([np.real(np.trace(ent @ r)) for r in rvec])
    v = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            anti = rvec[i] @ rvec[j] + rvec[j] @ rvec[i]
            v[i, j] = np.real(np.trace(ent @ anti)) - 2 * s[i] * s[j]
    return s, v


class TestGaussianDescriptor:
    def test_vacuum(self):
        gd = gaussian_descriptor(StateSpec("coherent", {"alpha": 0}, 10))
        assert np.allclose(gd.s, 0.0)
        assert np.allclose(gd.V, np.eye(2))

    def test_thermal(self):
        gd = gaussian_descriptor(StateSpec("thermal", {"nu": 1}, 10))
        assert np.allclose(gd.V, 3 * np.eye(2))

    def test_coherent_means(self):
        gd = gaussian_descriptor(StateSpec("coherent", {"alpha": [1.0, 0.5]}, 10))
        assert np.allclose(gd.s, math.sqrt(2) * np.array([1.0, 0.5]))

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec("coherent", {"alpha": 1.5}, 60),
            StateSpec("coherent", {"alpha": 3.0}, 80),
            StateSpec("thermal", {"nu": 3}, 120),
            StateSpec("squeezed", {"r": 1.0}, 90),
            StateSpec("squeezed", {"r": 1.5}, 210),
        ],
    )
    def test_moments_match_construction(self, spec):
        rho = make_state(spec, deficit_tol=1e-6).renormalized()
        s_num, v_num = quadrature_moments(rho)
        gd = gaussian_descriptor(spec)
        assert np.max(np.abs(s_num - gd.s)) < 1e-6
        assert np.max(np.abs(v_num - gd.V)) < 1e-6

    def test_rejects_non_gaussian(self):
        with pytest.raises(UsageError):
            gaussian_descriptor(StateSpec("cat", {"alpha": 1, "sign": "+"}, 10))

    def test_uncertainty_validation(self):
        from cvres.states import GaussianDescriptor

        with pytest.raises(UsageError):
            GaussianDescriptor(np.zeros(2), 0.5 * np.eye(2))
