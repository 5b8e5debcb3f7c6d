"""The numpy optimisers of cvres._optim against scipy.optimize, which serves as the oracle."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.optimize import nnls as scipy_nnls

from cvres import nonclassicality
from cvres._optim import bounded_minimum, nnls
from cvres.states import StateSpec, make_state


def _recorded(monkeypatch, name):
    """Record the arguments of every call to ``nonclassicality.<name>`` while still serving it."""
    calls = []
    real = getattr(nonclassicality, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(nonclassicality, name, recording)
    return calls


class TestBoundedMinimum:
    @staticmethod
    def _matches_scipy(calls):
        (fun, lo, hi), _ = calls[0]
        evaluations = []

        def counted(s):
            evaluations.append(s)
            return fun(s)

        x, value, closed = bounded_minimum(counted, lo, hi)
        ref = minimize_scalar(fun, method="bounded", bounds=(lo, hi))
        assert x == ref.x and value == ref.fun and len(evaluations) == ref.nit
        assert closed == (ref.status == 0)

    @pytest.mark.parametrize("r", [0.25, -0.7, 1.2])
    def test_squeezed_thermal_objective_matches_scipy(self, monkeypatch, r):
        calls = _recorded(monkeypatch, "bounded_minimum")
        rho = make_state(StateSpec("squeezed", {"r": r}, 100), deficit_tol=1e-6)
        nonclassicality.classical_ansatz_upper_bound(rho)
        self._matches_scipy(calls)

    @pytest.mark.parametrize("alpha", [0.8, 0.15])
    def test_cat_mixture_objective_matches_scipy(self, monkeypatch, alpha):
        calls = _recorded(monkeypatch, "bounded_minimum")
        rho = make_state(StateSpec("cat", {"alpha": alpha, "sign": "+"}, 30), deficit_tol=1e-6)
        nonclassicality.cat_mixture_upper_bound(rho)
        self._matches_scipy(calls)

    def test_odd_cat_mixture_runs_no_search(self, monkeypatch):
        # the odd cat's divergence only rises with the vacuum weight, so it reads w0 = 0
        calls = _recorded(monkeypatch, "bounded_minimum")
        rho = make_state(StateSpec("cat", {"alpha": 1.0, "sign": "-"}, 30), deficit_tol=1e-6)
        nonclassicality.cat_mixture_upper_bound(rho)
        assert not calls

    def test_even_cat_objective_matches_scipy(self, monkeypatch):
        # the even cat's search over b, whose points past positive definiteness read +inf
        calls = _recorded(monkeypatch, "bounded_minimum")
        rho = make_state(StateSpec("cat", {"alpha": 0.5, "sign": "+"}, 30), deficit_tol=1e-6)
        nonclassicality.cat_gamma_lower_bound(rho)
        self._matches_scipy(calls)

    def test_minimum_at_an_edge(self):
        x, value, closed = bounded_minimum(lambda s: (s - 3.0) ** 2, 0.0, 1.0)
        ref = minimize_scalar(lambda s: (s - 3.0) ** 2, method="bounded", bounds=(0.0, 1.0))
        assert x == ref.x and value == ref.fun and closed

    def test_budget_is_reported(self):
        # golden sections from a bracket of 1e105 need more than the 500 evaluations;
        # scipy's parabola products overflow numpy scalars on the way
        def fun(s):
            return abs(s - 1.0)

        x, value, closed = bounded_minimum(fun, 0.0, 1e105)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = minimize_scalar(fun, method="bounded", bounds=(0.0, 1e105))
        assert not closed and ref.status == 1
        assert x == ref.x and value == ref.fun


def _problems():
    """Random problems, problems with repeated and nearly repeated columns, and the
    Poisson-mixture weight steps' shape: repeated atoms under a heavy row."""
    rng = np.random.default_rng(7)
    for trial in range(240):
        m, n = int(rng.integers(2, 30)), int(rng.integers(1, 16))
        a = rng.standard_normal((m, n))
        kind = trial % 4
        if kind == 1:
            a = a[:, rng.integers(0, max(1, n // 2), n)]
        elif kind == 2:
            a = np.abs(a)
            a = np.hstack([a, a * (1.0 + 1e-9 * rng.standard_normal(a.shape))])
        elif kind == 3:
            ks = np.arange(m - 1, dtype=float)
            ts = np.repeat(rng.uniform(0.0, m, n), 2) + np.tile([0.0, 1e-7], n)
            cols = np.exp(nonclassicality._log_poisson(ks, ts))
            cols /= np.linalg.norm(cols, axis=0)
            a = np.vstack([cols, 1e4 * np.ones(cols.shape[1])])
        b = rng.standard_normal(a.shape[0])
        if kind == 3:
            b = np.append(2.0 * np.sqrt(rng.dirichlet(np.ones(m - 1))), 1e4)
        yield a, b


def test_nnls_matches_scipy_residual():
    for i, (a, b) in enumerate(_problems()):
        x = nnls(a, b)
        ref, ref_norm = scipy_nnls(a, b)
        assert x.shape == ref.shape and np.all(x >= 0.0), i
        ours = float(np.linalg.norm(a @ x - b))
        assert ours <= ref_norm * (1.0 + 1e-9) + 1e-12 * float(np.linalg.norm(b)), i


def test_nnls_small_cases():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(nnls(a, np.array([2.0, 1.0, 1.0])), [1.5, 1.0])
    assert np.array_equal(nnls(a, -np.ones(3)), [0.0, 0.0])
    assert np.array_equal(nnls(np.zeros((3, 2)), np.ones(3)), [0.0, 0.0])


def test_nnls_duplicate_columns_share_no_negative_weight():
    a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    x = nnls(a, np.array([1.0, 3.0, 1.0]))
    assert np.all(x >= 0.0)
    assert math.isclose(x[0] + x[1], 1.0, rel_tol=1e-12) and math.isclose(x[2], 1.0, rel_tol=1e-12)
