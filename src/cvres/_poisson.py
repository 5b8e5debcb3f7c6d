"""The Poisson-mixture program behind the exact Fock-diagonal bound.

``_poisson_mixture_fit`` minimises KL(p || q) over Poisson mixtures q_k = sum_j w_j
pois(k; t_j) by an exchange loop with a constrained-Newton weight step, and in its
last rounds by ``mixture_newton``, damped Newton steps on the atoms and weights
together.  The Poisson columns and their t-derivatives are formed here alone,
from ``_log_poisson``.

On a vacuum pair, levels {0, n} (noisy Fock p|n><n| + (1 - p)|0><0|), the program
is solved in closed form and the loop never runs.  KL depends on q only through
(q_0, q_n), and sum p_k ln q_k grows in both, so the optimum lies on the upper
boundary of the convex hull of c(t) = (x, y) = e^(-t) (1, t^n/n!), t >= 0.  The
curve has d^2 y/dx^2 = e^t t^(n-2) n (n - 1 - t)/n!, so it is concave for
t > n - 1 and convex below.  For n >= 2 that boundary is therefore the tangent
from c(0) to the curve, touching at t_s, then the curve from t_s to its top at
t = n.  The chord from c(0) has the curve's slope -t^(n-1) (n - t)/n! where
t = n (1 - e^(-t)); t_s is that equation's root in (n - 1, n) (``_tangent_atom``).
On the curve, sum p_k ln q_k = -t + p n ln t + const peaks at t = p n, which is
the optimum, one atom, if p n >= t_s.  Otherwise the optimum lies on the
tangent, atoms {0, t_s} with weight s on t_s: (1 - p) ln(1 - s (1 - e^(-t_s)))
+ p ln s peaks at s = p/(1 - e^(-t_s)) <= 1, so w_0 = (1 - p) - p e^(-t_s)/(1 -
e^(-t_s)), and then q_0 = 1 - p.  For n = 1 the curve is concave throughout and
the optimum is one atom at t = p.  Nothing downstream trusts this derivation:
``fock_diagonal_ncm`` still bounds the gap by the certified supremum of phi.
"""

from __future__ import annotations

import math

import numpy as np

from ._envelope import _distinct, _peak_polisher
from ._optim import simplex_lstsq
from .entropies import LOG2E
from .fock_core import log_factorials


def _log_poisson(ks: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """ln pois(k; t) for integer-valued k (rows) and t (cols); t = 0 is the point mass at 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        k_ln_t = np.where(ks[:, None] == 0.0, 0.0, ks[:, None] * np.log(ts[None, :]))
    log_fact = log_factorials(int(ks.max()) + 1)[ks.astype(np.intp)]
    return k_ln_t - ts[None, :] - log_fact[:, None]


FD_TOL_BITS = 1e-7  # half the primal-dual gap the Fock-diagonal program may leave
FD_MAX_ROUNDS = 500  # rounds of the Poisson-mixture fit
FD_VERTEX_LN_PHI = 1.0  # ln sup phi above which a round first moves weight onto its top atom
FD_NEWTON_LN_PHI = 0.1  # ln sup phi below which a round may take Newton steps on atoms and weights
FD_NEWTON_REACH = 0.25  # ... when every maximum with phi > 1 is this close to an atom in sqrt(t)
FD_NEWTON_CUT = 4.0  # ... and the last Newton round cut ln sup phi by at least this factor

def _phi_maxima(ks: np.ndarray, t_cap: float):
    """ln ell -> local maxima (t, ln phi(t)) on [0, t_cap] of phi(t) = e^(-t) sum_k (ell_k/k!) t^k.

    phi is sampled by one product with the Poisson table of a grid uniform in
    sqrt(t), where Poisson bumps have constant width, that holds t = 0 only with
    level 0 (else phi(0) = 0); one ``_peak_polisher`` per fit polishes the samples'
    maxima, with ln W_k = ln ell_k - ln k! shifted by max ln ell so nothing overflows."""
    grid = t_cap * np.linspace(0.0, 1.0, max(257, int(32.0 * math.sqrt(t_cap)) + 1)) ** 2
    if ks.min() > 0.0:
        grid = grid[1:]
    pois_grid = np.exp(_log_poisson(ks, grid))
    ln_fact = log_factorials(int(ks.max()) + 1)[ks.astype(np.intp)]
    polish = _peak_polisher(ks, grid)

    def maxima(ln_ell):
        shift = float(ln_ell.max())
        ts, phi = polish(ln_ell - ln_fact - shift, np.exp(ln_ell - shift) @ pois_grid)
        with np.errstate(divide="ignore"):
            return ts, np.log(phi) + shift

    return maxima


def _vertex_step(p: np.ndarray, q: np.ndarray, col: np.ndarray) -> float:
    """argmax over s in [0, 1) of sum_k p_k ln((1 - s) q_k + s col_k).

    The objective is concave in s, with slope phi - 1 > 0 at s = 0 when col
    is the Poisson column of an atom where phi > 1.  Newton steps on the slope
    stay inside the bracket of its root and bisect it when they would leave;
    the bracket's lower end is returned, where the slope is still positive, so
    the step never descends.
    """
    diff = col - q
    lo, hi, s = 0.0, 1.0, 0.0
    for _ in range(60):
        ratio = diff / (q + s * diff)
        slope = float(p @ ratio)
        if slope > 0.0:
            lo = s
        else:
            hi = s
        newton = s + slope / float(p @ ratio**2)
        s_next = newton if lo < newton < hi else 0.5 * (lo + hi)
        if abs(s_next - s) <= 1e-12 * s_next:
            break
        s = s_next
    return lo


def _tangent_atom(n: float) -> float:
    """The root t_s in (n - 1, n) of t = n (1 - e^(-t)) for n >= 2, and 0 for n = 1.

    g(t) = t - n + n e^(-t) is convex, and increasing past ln n < t_s, so Newton
    steps from g(n) = n e^(-n) > 0 fall monotonically onto the root; they stop
    when one no longer moves t down."""
    if n < 2.0:
        return 0.0
    t = n
    for _ in range(64):
        e = n * math.exp(-t)
        step = (t - n + e) / (1.0 - e)
        if not (step > 0.0 and t - step < t):
            break
        t -= step
    return t


def _poisson_mixture_fit(ks: np.ndarray, p: np.ndarray, t_cap: float):
    """Minimize KL(p || q), q_k = sum_j w_j pois(k; t_j), over mixing measures on [0, t_cap].

    The fit is optimal iff phi(t) = sum_k (p_k/q_k) pois(k; t) <= 1 for all t
    (Lindsay, Ann. Statist. 11, 1983); phi averages to exactly 1 under the
    mixing measure, and past the largest supported level it only falls, so
    [0, t_cap] is exhaustive.  On levels {0, n} (t_cap = n) the fit returns the
    closed-form optimum of the module docstring, with q from ``_log_poisson`` so
    that n up to 4096 stays finite, in 0 rounds.  Any other support takes one
    exchange loop (the constrained Newton method of Y. Wang, J. R. Stat. Soc. B
    69, 2007): each round finds the local maxima of phi with ``_phi_maxima``.  It
    stops once log2 sup phi <= FD_TOL_BITS/4, or once KL(p || q) is that small,
    since [0, KL] is then already that narrow.
    Otherwise it adds the maxima with phi > 1 as atoms of zero weight and takes
    one weight step: ``simplex_lstsq`` on the quadratic model sum_k p_k (sum_j w_j
    pois(k; t_j)/q_k - 2)^2 over w >= 0 with sum_j w_j = 1, then an Armijo backtrack on
    sum_k p_k ln q_k.  Atoms left at weight 0 are dropped.  Where ln sup phi exceeds
    ``FD_VERTEX_LN_PHI`` (a tail the model has emptied, where it can at most double q
    per step), the round first moves weight onto the new atom of largest phi by the
    exact line search of ``_vertex_step``.  Where no backtrack ascends, the round
    takes that line search instead, and the loop ends only if it returns 0: it finds
    the root of the slope, so rounding in the objective cannot stop it.

    The exchange moves an atom only by shifting weight to a neighbour, so it ends
    linearly.  A round instead takes ``mixture_newton``'s steps on the atoms' positions
    and weights (in place of the new atoms and the weight step) when ln sup phi <
    ``FD_NEWTON_LN_PHI``, every maximum with phi > 1 lies within ``FD_NEWTON_REACH``
    of an atom in sqrt(t), and the last Newton round, if any, cut ln sup phi at least
    ``FD_NEWTON_CUT``-fold; where those steps fail, the round is an exchange round.

    With L = p/q on the supported levels, Tr[rho log2 L] = KL(p || q), so the
    primal value of L is exactly the dual minus log2 sup phi.  Returns the atoms,
    q on the supported levels and the number of rounds.
    """
    if ks.size == 2 and ks[0] == 0.0:  # a vacuum pair: the closed form of the module docstring
        n, t_s = float(ks[1]), _tangent_atom(float(ks[1]))
        if p[1] * n >= t_s:
            atoms, w = np.array([p[1] * n]), np.ones(1)
        else:
            room = -math.expm1(-t_s)
            atoms = np.array([0.0, t_s])
            w = np.array([p[0] - p[1] * math.exp(-t_s) / room, p[1] / room])
        return atoms, np.exp(_log_poisson(ks, atoms)) @ w, 0
    phi_maxima = _phi_maxima(ks, t_cap)
    root_p = np.sqrt(p)
    # start with one atom per half unit of sqrt(t), carrying the weight of its nearest levels
    start = np.minimum(np.round(2.0 * np.sqrt(ks)) ** 2 / 4.0, t_cap)
    atoms = _distinct(start)
    w = np.bincount(np.searchsorted(atoms, start), weights=p)

    pois = np.exp(_log_poisson(ks, atoms))
    q = pois @ w
    rounds, newton_ok, newton_from = 0, True, None
    while rounds < FD_MAX_ROUNDS:
        ln_ell = np.log(p / q)
        ts, ln_phi = phi_maxima(ln_ell)
        top_ln_phi = float(ln_phi.max())
        if LOG2E * min(top_ln_phi, float(p @ ln_ell)) <= 0.25 * FD_TOL_BITS:
            break
        rounds += 1
        if newton_from is not None:
            newton_ok, newton_from = FD_NEWTON_CUT * top_ln_phi <= newton_from, None
        new = ts[ln_phi > 0.0]
        if newton_ok and top_ln_phi < FD_NEWTON_LN_PHI and np.all(np.min(np.abs(
                np.sqrt(new)[:, None] - np.sqrt(atoms)), axis=1) <= FD_NEWTON_REACH):
            fit = mixture_newton(p, ks, atoms, w, pois, t_cap)
            if fit is not None:
                atoms, w, pois = fit
                q, newton_from = pois @ w, top_ln_phi
                continue
        top = w.size + int(np.argmax(ln_phi[ln_phi > 0.0]))
        atoms = np.concatenate([atoms, new])
        w = np.concatenate([w, np.zeros(new.size)])
        pois = np.hstack([pois, np.exp(_log_poisson(ks, new))])
        if top_ln_phi > FD_VERTEX_LN_PHI:
            s = _vertex_step(p, q, pois[:, top])
            w *= 1.0 - s
            w[top] += s
            q = pois @ w
        ratio = pois / q[:, None]
        model = root_p[:, None] * ratio
        scale = np.linalg.norm(model, axis=0)  # unit columns keep small tail weights resolvable
        direction = simplex_lstsq(model / scale, 2.0 * root_p, 1.0 / scale) / scale - w
        slope = float(p @ ratio @ direction)
        for step in 0.5 ** np.arange(34):
            with np.errstate(divide="ignore"):  # a step that empties a level scores -inf
                if p @ np.log(pois @ (w + step * direction) / q) >= step * slope / 3.0:
                    break
        else:  # no backtrack ascends: step towards the top new atom, and stop only if that is 0
            step = _vertex_step(p, q, pois[:, top])
            if step == 0.0:
                break
            direction = np.eye(1, w.size, top)[0] - w
        w = w + step * direction
        keep = w > 0.0
        atoms, w, pois = atoms[keep], w[keep], pois[:, keep]
        q = pois @ w
    return atoms, q, rounds


_NEWTON_MERGE = 0.02  # atoms closer than this in sqrt(t) merge before a Newton step
_NEWTON_DECREMENT = 1e-10  # a first Newton decrement below this skips the second step
_NEWTON_BACKTRACKS = 30  # halvings of a Newton step before it counts as no ascent


def mixture_newton(p: np.ndarray, ks: np.ndarray, atoms: np.ndarray, w: np.ndarray,
                   pois: np.ndarray, t_cap: float):
    """Up to two damped Newton steps on the atoms t and weights w of a Poisson mixture
    q = pois @ w, pois[k, j] = pois(ks_k; t_j) from ``_log_poisson``, that ascend
    F = sum_k p_k ln q_k over sum_j w_j = 1, w >= 0 and t in [0, t_cap].

    Atoms closer than 0.02 in sqrt(t) first merge at their weighted mean.  Each step
    eliminates the largest weight through sum w = 1 and moves every atom with t > 0 in
    x = ln t, where ln pois is k x - e^x - ln k!, so no step takes an atom to 0 or
    below; an atom at 0 holds still, and one past t_cap is put back there (phi falls
    past the top level, so F never pulls an atom out).  A failed Cholesky factorisation
    of the negated Hessian H (``_newton_system``) returns None.  The step d = H^-1 g is
    cut where the first weight reaches 0, and that atom leaves.  Armijo backtracking
    takes it once sum_k p_k ln(q1_k/q_k) - ln(sum w1/sum w) >= (step/3) g.d: q1 - q is
    formed from the weight changes and expm1 of the columns' log changes, and the
    second term takes out the rounding of the weights' sum, so the test keeps its
    digits where the gain is far below the rounding of q, as on far-tail atoms of tiny
    weight.  The second step is skipped once the Newton decrement g.d is below 1e-10.
    Returns (atoms, w, pois), or None when the first step finds no ascent.
    """
    order = np.argsort(atoms)
    atoms, w, pois = atoms[order], w[order], pois[:, order]
    head = np.concatenate([[True], np.diff(np.sqrt(atoms)) >= _NEWTON_MERGE])
    if not head.all():
        group = np.cumsum(head) - 1
        merged = np.bincount(group) > 1
        w_sum = np.bincount(group, weights=w)
        atoms = np.where(merged, np.bincount(group, weights=w * atoms) / w_sum, atoms[head])
        pois = pois[:, head].copy()
        pois[:, merged] = np.exp(_log_poisson(ks, atoms[merged]))
        w = w_sum
    for attempt in range(2):
        q = pois @ w
        i, free, grad, hess = _newton_system(p, ks, atoms, w, pois, q)
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            return None
        delta = np.linalg.solve(hess, grad)
        decrement = float(grad @ delta)
        dw = np.insert(delta[:w.size - 1], i, -delta[:w.size - 1].sum())
        dx = delta[w.size - 1:]
        t, ln_room = atoms[free], np.log(t_cap / atoms[free])
        falling = np.flatnonzero(dw < 0.0)
        cuts = w[falling] / -dw[falling]
        cut = min(1.0, float(cuts.min())) if cuts.size else 1.0
        step = cut
        for _ in range(_NEWTON_BACKTRACKS):
            w1 = np.maximum(w + step * dw, 0.0)
            if step == cut < 1.0:
                w1[falling[np.argmin(cuts)]] = 0.0
            ln_move = np.minimum(step * dx, ln_room)
            t_move = t * np.expm1(ln_move)
            grow = pois[:, free] * np.expm1(ks[:, None] * ln_move - t_move)
            # a step that empties a level scores -inf (or nan, rounded below -1): no ascent
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = p @ np.log1p((pois @ (w1 - w) + grow @ w1[free]) / q)
            gain -= math.log1p(float(np.sum(w1 - w)) / float(np.sum(w)))
            if gain >= step * decrement / 3.0:
                break
            step *= 0.5
        else:
            return None if attempt == 0 else (atoms, w, pois)
        atoms = atoms.copy()
        atoms[free] = np.minimum(t + t_move, t_cap)
        pois = pois.copy()
        pois[:, free] = np.exp(_log_poisson(ks, atoms[free]))
        keep = w1 > 0.0
        atoms, w, pois = atoms[keep], w1[keep], pois[:, keep]
        if decrement < _NEWTON_DECREMENT:
            break
    return atoms, w, pois


def _newton_system(p, ks, atoms, w, pois, q):
    """(i, free, g, H) for ``mixture_newton``: the eliminated weight i, the indices of the
    atoms that move, and the gradient and negated Hessian of F = sum_k p_k ln q_k in (the
    weights other than w_i, ln t of the atoms in ``free``).

    With J the Jacobian of q in those variables (columns pois_j - pois_i, then w_j
    d pois_j/dx_j), H = J^T diag(p/q^2) J - sum_k (p_k/q_k) d^2 q_k.  The second
    derivatives of q are d pois_j/dx_j between w_j and x_j (its negative between every
    weight and x_i) and w_j d^2 pois_j/dx_j^2 on the diagonal, where
    d pois/dx = pois (k - t) and d^2 pois/dx^2 = pois ((k - t)^2 - t).
    """
    ratio = p / q
    free = np.flatnonzero(atoms > 0.0)
    i = int(np.argmax(w))
    rest = np.flatnonzero(np.arange(w.size) != i)
    lin = ks[:, None] - atoms[free]
    d1 = pois[:, free] * lin
    jac = np.hstack([pois[:, rest] - pois[:, i:i + 1], d1 * w[free]])
    hess = (jac.T * (ratio / q)) @ jac
    c1 = ratio @ d1
    diag = rest.size + np.arange(free.size)
    at_i = free == i
    hess[free[~at_i] - (free[~at_i] > i), diag[~at_i]] -= c1[~at_i]
    hess[:rest.size, diag[at_i]] += c1[at_i]
    hess[rest.size:, :rest.size] = hess[:rest.size, rest.size:].T
    hess[diag, diag] -= w[free] * (ratio @ (pois[:, free] * (lin * lin - atoms[free])))
    return i, free, ratio @ jac, hess
