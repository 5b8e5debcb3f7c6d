"""The three benchmark workloads as lists of cvres CLI commands.

A workload is one round of commands, rebuilt identically from the seed; the
runner repeats whole rounds.  Each command carries the name of its check in
``checks.CHECKS`` and the parameters that check needs, all chosen here.

- ``cat``: the cat table and the protocol figure.  Nearly all of the time is
  the certified coherent supremum inside the cat ansatz's Nelder-Mead.  The
  inputs are fixed; the seed only orders the commands.
- ``ascent``: the Fock-diagonal figures and the dense gradient ascent on
  displaced Fock and displaced noisy Fock raw matrices.  The seed draws the
  displacement phase, to which every exact value is invariant, from the four
  quarter turns: there the rotated matrix is exact in floating point, so every
  seed asks the ascent for the same work up to rounding.
- ``protocols``: exact protocol simulations, the squeezed table, certify and
  Gaussian monotones.  No command reaches the certified supremum.  The seed
  draws the Fock-dilution transmissivity.
"""

from __future__ import annotations

import math
import random

import numpy as np

from checks import fock_value, noisy_fock_value

WORKLOADS = ("cat", "ascent", "protocols")


def _cmd(cid, argv, fmt, check, params, state=None) -> dict:
    return {"id": cid, "argv": argv, "format": fmt, "check": check, "params": params,
            "state": state}


def _fmt_grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def displaced_raw_state(n: int, beta: complex, cutoff: int, p: float = 1.0) -> dict:
    """Raw-matrix JSON of p D|n><n|D^dag + (1-p) D|0><0|D^dag, D = D(beta).

    D|n> = (a^dag - conj(beta))^n |beta> / sqrt(n!), built on a padded space
    and cut to ``cutoff`` levels, so the matrix is the truncation of the ideal
    state.
    """
    pad = cutoff + 40
    k = np.arange(pad)
    log_fact = np.array([math.lgamma(x + 1.0) for x in k])
    mag = abs(beta)
    coherent = (np.exp(-0.5 * mag**2 + k * math.log(mag) - 0.5 * log_fact)
                * np.exp(1j * k * math.atan2(beta.imag, beta.real)))
    vec = coherent.copy()
    for _ in range(n):
        raised = np.zeros(pad, dtype=complex)
        raised[1:] = np.sqrt(k[1:]) * vec[:-1]
        vec = raised - np.conj(beta) * vec
    vec = vec[:cutoff] / math.sqrt(math.factorial(n))
    coh = coherent[:cutoff]
    rho = p * np.outer(vec, vec.conj()) + (1.0 - p) * np.outer(coh, coh.conj())
    return {"modes": 1, "cutoff": cutoff,
            "entries_re": rho.real.ravel().tolist(), "entries_im": rho.imag.ravel().tolist()}


def _cat(rng: random.Random, threads: int) -> list[dict]:
    alphas, signs = [0.3], ["+", "-"]
    proto_alpha, tasks = 0.3, ["amplify", "dilute"]
    cmds = [
        _cmd("cat-table", ["figure", "--name", "cat", "--alpha-grid", _fmt_grid(alphas),
                           "--threads", str(threads)],
             "csv", "figure_cat", {"alphas": alphas, "signs": signs}),
        _cmd("protocols-figure", ["figure", "--name", "protocols",
                                  "--alpha-grid", _fmt_grid([proto_alpha]),
                                  "--threads", str(threads)],
             "csv", "figure_protocols", {"alphas": [proto_alpha], "tasks": tasks}),
    ]
    rng.shuffle(cmds)
    return cmds


def _ascent(rng: random.Random, threads: int) -> list[dict]:
    turn = rng.choice([1.0, 1j, -1.0, -1j])
    nu0_ns, nu0_ps = [1, 2], [0.2, 0.5, 0.8]
    fixed_n, nus, ps = 2, [0.5, 1.0], [0.3, 0.7]
    cmds = [
        _cmd("noisy-fock-nu0", ["figure", "--name", "noisy-fock-fixed-nu", "--nu", "0",
                                "--n-grid", ",".join(map(str, nu0_ns)),
                                "--p-grid", _fmt_grid(nu0_ps), "--cutoff", "20",
                                "--threads", str(threads)],
             "csv", "figure_noisy_fock",
             {"rows": [(p, 0.0, n) for n in nu0_ns for p in nu0_ps]}),
        _cmd("noisy-fock-n2", ["figure", "--name", "noisy-fock-fixed-n", "--n", str(fixed_n),
                               "--nu-grid", _fmt_grid(nus), "--p-grid", _fmt_grid(ps),
                               "--threads", str(threads)],
             "csv", "figure_noisy_fock",
             {"rows": [(p, nu, fixed_n) for nu in nus for p in ps]}),
    ]
    # (id, n, |beta|, cutoff, p, max_iters); max_iters None keeps the CLI default
    displaced = [
        ("displaced-fock1", 1, 1.0, 20, 1.0, None),
        ("displaced-fock2", 2, 0.8, 24, 1.0, 60),
        ("displaced-noisy1", 1, 1.0, 20, 0.6, 60),
    ]
    for cid, n, mag, cutoff, p, max_iters in displaced:
        beta = mag * turn
        argv = ["monotone", "--which", "sandwich"]
        if max_iters is not None:
            argv += ["--max-iters", str(max_iters)]
        truth = fock_value(n) if p == 1.0 else noisy_fock_value(p)
        cmds.append(_cmd(cid, argv, "json", "monotone_sandwich",
                         {"label": cid, "energy": p * n + mag * mag, "truth": truth},
                         state=displaced_raw_state(n, beta, cutoff, p)))
    return cmds


def _protocols(rng: random.Random, threads: int) -> list[dict]:
    lam = round(rng.uniform(0.3, 0.7), 6)
    cmds = []
    for alpha in (1.0, 3.0):
        cmds.append(_cmd(f"cat-amplify-{alpha:g}",
                         ["protocol", "--task", "cat-amplify", "--alpha", repr(alpha)],
                         "json", "protocol_cat_amplify", {"alpha": alpha}))
        cmds.append(_cmd(f"cat-dilute-{alpha:g}",
                         ["protocol", "--task", "cat-dilute", "--alpha", repr(alpha)],
                         "json", "protocol_cat_dilute", {"alpha": alpha}))
    for p in (0.5, 1.0):
        cmds.append(_cmd(f"fock-dilution-p{p:g}",
                         ["protocol", "--task", "fock-dilution", "--n", "3", "--p", repr(p),
                          "--lam", repr(lam)],
                         "json", "protocol_fock_dilution", {"n": 3, "p": p, "lam": lam}))
    rs = [0.3, 0.9]
    cmds.append(_cmd("squeezed-table", ["figure", "--name", "squeezed", "--r-grid", _fmt_grid(rs),
                                        "--threads", str(threads)],
                     "csv", "figure_squeezed", {"rs": rs}))
    sq_r, sq_cutoff = 0.5, 50
    sq_spec = ('{"family": "squeezed", "params": {"r": %r}, "cutoff": %d}' % (sq_r, sq_cutoff))
    sq_energy = math.sinh(sq_r) ** 2
    cmds.append(_cmd("certify-squeezed",
                     ["certify", "--epsilon", "0.05", "--energy", repr(sq_energy),
                      "--state", sq_spec],
                     "json", "certify",
                     {"epsilon": 0.05, "energy": sq_energy, "label": "certify squeezed"}))
    coh_alpha = 1.2
    cmds.append(_cmd("monotone-coherent",
                     ["monotone", "--which", "sandwich", "--state",
                      '{"family": "coherent", "params": {"alpha": %r}, "cutoff": 40}' % coh_alpha],
                     "json", "monotone_sandwich",
                     {"label": "coherent", "energy": coh_alpha**2, "truth": 0.0}))
    cmds.append(_cmd("monotone-squeezed", ["monotone", "--which", "sandwich", "--state", sq_spec],
                     "json", "monotone_sandwich",
                     {"label": "squeezed", "energy": sq_energy,
                      "lower_at_least": math.log2(math.cosh(sq_r))}))
    return cmds


def build(name: str, seed: int, threads: int) -> list[dict]:
    """One round of the named workload; the same seed gives the same round."""
    builders = {"cat": _cat, "ascent": _ascent, "protocols": _protocols}
    return builders[name](random.Random(seed), threads)
