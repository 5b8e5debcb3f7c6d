"""The numpy optimisers of cvres._optim, and the Newton step of cvres._poisson, with
scipy.optimize as the oracle where it has one."""

import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.optimize import nnls as scipy_nnls

from cvres import _poisson, nonclassicality
from cvres._optim import bounded_minimum, simplex_lstsq
from cvres._poisson import _newton_system, mixture_newton
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
    """Random problems with sums c in [0.5, 2]; repeated columns with repeated sums (the
    same vertex twice) and nearly repeated ones; and the Poisson-mixture weight steps'
    shape, unit Poisson columns of repeated atoms."""
    rng = np.random.default_rng(7)
    for trial in range(240):
        m, n = int(rng.integers(2, 30)), int(rng.integers(1, 16))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        c = rng.uniform(0.5, 2.0, n)
        kind = trial % 4
        if kind == 1:
            cols = rng.integers(0, max(1, n // 2), n)
            a, c = a[:, cols], c[cols]
        elif kind == 2:
            a = np.abs(a)
            a = np.hstack([a, a * (1.0 + 1e-9 * rng.standard_normal(a.shape))])
            c = np.tile(c, 2)
        elif kind == 3:
            ks = np.arange(m, dtype=float)
            ts = np.repeat(rng.uniform(0.0, m, n), 2) + np.tile([0.0, 1e-7], n)
            a = np.exp(_poisson._log_poisson(ks, ts))
            a /= np.linalg.norm(a, axis=0)
            b = 2.0 * np.sqrt(rng.dirichlet(np.ones(m)))
            c = rng.uniform(0.5, 2.0, 2 * n)
        yield a, b, c


def test_simplex_lstsq_matches_scipy_residual():
    # the oracle holds c . x = 1 by a heavy row and is renormalised onto it
    for i, (a, b, c) in enumerate(_problems()):
        x = simplex_lstsq(a, b, c)
        assert x.shape == c.shape and np.all(x >= 0.0), i
        assert abs(c @ x - 1.0) <= 1e-12, i
        ref, _ = scipy_nnls(np.vstack([a, 1e6 * c]), np.append(b, 1e6))
        ref /= c @ ref
        ours = float(np.linalg.norm(a @ x - b))
        assert ours <= float(np.linalg.norm(a @ ref - b)) + 1e-12, i


def test_simplex_lstsq_single_column():
    x = simplex_lstsq(np.array([[1.0], [2.0]]), np.array([5.0, -1.0]), np.array([2.0]))
    assert np.array_equal(x, [0.5])


def test_simplex_lstsq_duplicate_columns_share_no_negative_weight():
    a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    x = simplex_lstsq(a, np.array([0.5, 1.5, 0.5]), np.ones(3))
    assert np.all(x >= 0.0)
    assert math.isclose(x[0] + x[1], 0.5, rel_tol=1e-12) and math.isclose(x[2], 0.5, rel_tol=1e-12)


def test_simplex_lstsq_more_columns_than_rows():
    # b lies inside the hull of the vertices a_j / c_j, so the residual vanishes
    a = np.array([[1.0, 0.0, 1.0, 4.0, 0.0], [0.0, 1.0, 1.0, 0.0, 4.0]])
    c = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
    x = simplex_lstsq(a, np.array([0.7, 1.2]), c)
    assert np.all(x >= 0.0) and abs(c @ x - 1.0) <= 1e-12
    assert np.linalg.norm(a @ x - [0.7, 1.2]) <= 1e-14


def _mixture(seed, levels, n_atoms, with_zero):
    """A random target p on levels 0..levels-1 and a random mixture (atoms, w, pois) on it,
    with q > 0 on every level as the fit keeps it: an atom at t = 0 only beside others."""
    rng = np.random.default_rng(seed)
    ks = np.arange(float(levels))
    p = rng.dirichlet(np.ones(levels))
    atoms = np.sort(rng.uniform(0.05, levels - 1.0, n_atoms))
    if with_zero and n_atoms > 1:
        atoms[0] = 0.0
    w = rng.dirichlet(np.ones(n_atoms))
    return ks, p, atoms, w, np.exp(_poisson._log_poisson(ks, atoms))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(3, 14), n_atoms=st.integers(1, 4),
       with_zero=st.booleans())
def test_newton_system_matches_central_differences(seed, levels, n_atoms, with_zero):
    # the gradient and negated Hessian of sum p ln q in (the weights but w_i, ln t of the
    # moving atoms), against central differences of the objective itself
    ks, p, atoms, w, pois = _mixture(seed, levels, n_atoms, with_zero)
    i, free, grad, hess = _newton_system(p, ks, atoms, w, pois, pois @ w)
    assert i == int(np.argmax(w)) and np.array_equal(free, np.flatnonzero(atoms > 0.0))
    rest = np.arange(n_atoms) != i

    def objective(x):
        w_x = w.copy()
        w_x[rest] = x[:n_atoms - 1]
        w_x[i] = 1.0 - w_x[rest].sum()
        t_x = atoms.copy()
        t_x[free] = np.exp(x[n_atoms - 1:])
        return float(p @ np.log(np.exp(_poisson._log_poisson(ks, t_x)) @ w_x))

    x0 = np.concatenate([w[rest], np.log(atoms[free])])
    if x0.size == 0:
        assert grad.size == 0 and hess.shape == (0, 0)
        return
    h = 1e-4
    eye = h * np.eye(x0.size)
    num_grad = np.array([(objective(x0 + e) - objective(x0 - e)) / (2 * h) for e in eye])
    num_hess = np.array([[(objective(x0 + a + b) - objective(x0 + a - b)
                           - objective(x0 - a + b) + objective(x0 - a - b)) / (4 * h * h)
                          for b in eye] for a in eye])
    scale = max(1.0, float(np.abs(hess).max()))
    assert np.allclose(grad, num_grad, rtol=0.0, atol=1e-7 * scale)
    assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(-hess, num_hess, rtol=0.0, atol=1e-5 * scale)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(2, 30), n_atoms=st.integers(1, 5),
       with_zero=st.booleans())
def test_mixture_newton_ascends_on_the_simplex(seed, levels, n_atoms, with_zero):
    # a step that returns ascends the normalised objective, keeps w > 0 with sum 1,
    # keeps every atom in [0, t_cap], and raises no RuntimeWarning on the way
    ks, p, atoms, w, pois = _mixture(seed, levels, n_atoms, with_zero)
    t_cap = float(ks.max())

    def columns(ts):
        return np.exp(_poisson._log_poisson(ks, ts))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = mixture_newton(p, ks, atoms, w, pois, t_cap)
    if fit is None:
        return
    atoms_1, w_1, pois_1 = fit
    assert np.all(w_1 > 0.0) and abs(w_1.sum() - 1.0) <= 1e-12
    assert np.all((atoms_1 >= 0.0) & (atoms_1 <= t_cap))
    assert np.array_equal(pois_1, columns(atoms_1))
    assert p @ np.log(pois_1 @ w_1) - math.log(w_1.sum()) >= p @ np.log(pois @ w) - 1e-15


def test_mixture_newton_merges_close_atoms():
    # two atoms 0.01 apart in sqrt(t) merge at their weighted mean; then the Newton step
    # moves the remaining atom towards the target's mean
    ks = np.arange(6.0)
    p = np.exp(_poisson._log_poisson(ks, np.array([2.0]))[:, 0])
    p /= p.sum()
    atoms = np.array([(math.sqrt(1.7) - 0.01) ** 2, 1.7])
    w = np.array([0.25, 0.75])

    def columns(ts):
        return np.exp(_poisson._log_poisson(ks, ts))

    atoms_1, w_1, _ = mixture_newton(p, ks, atoms, w, columns(atoms), 5.0)
    assert atoms_1.size == 1 and w_1[0] == 1.0
    assert abs(atoms_1[0] - 2.0) < abs(w @ atoms - 2.0)
