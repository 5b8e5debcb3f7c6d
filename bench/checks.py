"""Output checks for the cvres benchmark, computed independently of cvres.

Every expected value here is derived from a closed form written out in this
file; nothing is imported from cvres and nothing is compared against a stored
copy of earlier output.  Each check takes the parsed output of one CLI command
plus the parameters the benchmark chose, raises CheckError on a wrong answer,
and returns the bit-valued intervals the command emitted (for the
``interval_width_bits`` metric).

``self_test()`` feeds every check a correct synthetic output built from the
same closed forms, then a perturbed one, and fails unless the check accepts
the first and rejects the second.
"""

from __future__ import annotations

import math

LOG2E = 1.0 / math.log(2.0)
SLACK = 1e-9  # absolute slack on inequalities between emitted bit values


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(value, expected: float, tol: float, what: str) -> None:
    _require(value is not None and math.isfinite(value) and abs(value - expected) <= tol,
             f"{what}: got {value}, expected {expected} (tol {tol})")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def g_bits(x: float) -> float:
    """Entropy in bits of a thermal state of mean photon number x."""
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def fock_value(n: int) -> float:
    """log2(n! e^n / n^n): the monotone of |n>, invariant under displacement."""
    if n == 0:
        return 0.0
    return (math.lgamma(n + 1) + n - n * math.log(n)) * LOG2E


def noisy_fock_value(p: float) -> float:
    """p log2 e + (1-p) log2(1-p): the monotone of p|1><1| + (1-p)|0><0|."""
    if p >= 1.0:
        return LOG2E
    return p * LOG2E + (1.0 - p) * math.log2(1.0 - p)


def cat_energy(alpha: float, sign: str) -> float:
    a2 = alpha * alpha
    return a2 * math.tanh(a2) if sign == "+" else a2 / math.tanh(a2)


def cat_amplify_success(alpha: float) -> dict:
    a2 = alpha * alpha
    return {
        "ours": 0.5 * math.tanh(a2) ** 2,
        "lund": math.exp(-a2) * math.cosh(2 * a2) * math.sinh(a2 / 2) ** 2 / math.cosh(a2) ** 2,
    }


def cat_dilute_branches(alpha: float) -> dict:
    a2 = alpha * alpha
    c2 = math.cosh(2 * a2)
    return {"plus": math.cosh(a2) ** 2 / c2, "minus": math.sinh(a2) ** 2 / c2}


def fock_dilution_success(n: int, p: float, lam: float) -> float:
    """Vacuum never heralds, so the zero-count recursion is a geometric series."""
    return p * n * lam ** (n - 1) * (1.0 - lam) / (1.0 - lam**n)


def truncation_bits(eps: float, energy: float) -> float:
    """Single-mode truncation error bar eps g(2E/eps) + g(eps)."""
    if eps == 0.0:
        return 0.0
    return eps * g_bits(2.0 * energy / eps) + g_bits(eps)


# ---------------------------------------------------------------------------
# shared interval property
# ---------------------------------------------------------------------------

def check_interval(lower, upper, energy: float, what: str) -> tuple[float, float]:
    """0 <= lower <= upper and lower <= g(E), E the family's closed-form energy."""
    _require(lower is not None and upper is not None, f"{what}: missing endpoint")
    _require(math.isfinite(lower) and math.isfinite(upper), f"{what}: non-finite endpoint")
    _require(lower >= 0.0, f"{what}: lower {lower} < 0")
    _require(lower <= upper + SLACK, f"{what}: lower {lower} > upper {upper}")
    _require(lower <= g_bits(energy) + SLACK,
             f"{what}: lower {lower} > g(E) = {g_bits(energy)} at E = {energy}")
    return (lower, upper)


def _contains(lower: float, upper: float, truth: float, what: str) -> None:
    _require(lower <= truth + SLACK and truth <= upper + SLACK,
             f"{what}: [{lower}, {upper}] misses the exact value {truth}")


# ---------------------------------------------------------------------------
# per-command checks; ``out`` is a list of CSV row dicts or the parsed JSON
# ---------------------------------------------------------------------------

def check_figure_cat(out, params) -> list:
    expected = [(a, s) for s in params["signs"] for a in params["alphas"]]
    _require(len(out) == len(expected), f"cat figure: {len(out)} rows, expected {len(expected)}")
    intervals = []
    for row, (alpha, sign) in zip(out, expected):
        _close(row["alpha"], alpha, 1e-9, "cat figure alpha column")
        _require(row["sign"] == sign, f"cat figure: sign {row['sign']} != {sign}")
        intervals.append(check_interval(row["lower_bits"], row["upper_bits"],
                                        cat_energy(alpha, sign), f"cat({alpha},{sign})"))
    return intervals


def check_figure_protocols(out, params) -> list:
    expected = [(a, t) for t in params["tasks"] for a in params["alphas"]]
    _require(len(out) == len(expected), f"protocols figure: {len(out)} rows")
    for row, (alpha, task) in zip(out, expected):
        _close(row["alpha"], alpha, 1e-9, "protocols figure alpha column")
        _require(row["task"] == task, f"protocols figure: task {row['task']} != {task}")
        if task == "amplify":
            rate = 0.5 * max(cat_amplify_success(alpha).values())
        else:
            rate = 0.5 * cat_dilute_branches(alpha)["minus"]
        _close(row["lower_rate"], rate, 1e-8, f"{task} lower_rate at alpha={alpha}")
        # an achieved rate can never exceed a valid upper bound on the rate
        _require(row["upper_rate"] is not None and row["upper_rate"] >= row["lower_rate"] - SLACK,
                 f"{task} at alpha={alpha}: upper_rate {row['upper_rate']} < lower_rate")
    return []


def check_figure_noisy_fock(out, params) -> list:
    expected = params["rows"]
    _require(len(out) == len(expected), f"noisy-fock figure: {len(out)} rows")
    intervals = []
    for row, (p, nu, n) in zip(out, expected):
        _close(row["p"], p, 1e-9, "noisy-fock p column")
        _close(row["nu"], nu, 1e-9, "noisy-fock nu column")
        _require(int(row["n"]) == n, f"noisy-fock n column {row['n']} != {n}")
        what = f"noisy_fock(n={n},nu={nu},p={p})"
        lo, hi = check_interval(row["lower_bits"], row["upper_bits"], p * n + (1 - p) * nu, what)
        if n == 1 and nu == 0.0:
            _close(lo, noisy_fock_value(p), 1e-6, what + " lower")
            _close(hi, noisy_fock_value(p), 1e-6, what + " upper")
        intervals.append((lo, hi))
    return intervals


def check_figure_squeezed(out, params) -> list:
    rs = params["rs"]
    _require(len(out) == len(rs), f"squeezed figure: {len(out)} rows")
    intervals = []
    for row, r in zip(out, rs):
        _close(row["r"], r, 1e-9, "squeezed r column")
        energy = math.sinh(r) ** 2
        _close(row["lower_bits"], math.log2(math.cosh(r)), 1e-8, f"squeezed({r}) lower")
        _close(row["upper_energy_bits"], g_bits(energy), 1e-8, f"squeezed({r}) upper_energy")
        upper = min(row["upper_thermal_bits"], row["upper_sq_thermal_bits"],
                    row["upper_energy_bits"])
        intervals.append(check_interval(row["lower_bits"], upper, energy, f"squeezed({r})"))
    return intervals


def check_monotone_sandwich(out, params) -> list:
    _require(isinstance(out, list) and len(out) == 2, "sandwich: expected two bounds")
    lower, upper = out
    _require(lower["direction"] == "lower" and upper["direction"] == "upper",
             "sandwich: bounds out of order")
    what = params["label"]
    lo, hi = check_interval(lower["value"], upper["value"], params["energy"], what)
    if "truth" in params:
        _contains(lo, hi, params["truth"], what)
    if "lower_at_least" in params:
        _require(lo >= params["lower_at_least"] - SLACK,
                 f"{what}: lower {lo} below the closed-form lower {params['lower_at_least']}")
    return [(lo, hi)]


def check_protocol_fock_dilution(out, params) -> list:
    n, p, lam = params["n"], params["p"], params["lam"]
    ps = fock_dilution_success(n, p, lam)
    _close(out["success_probability"], ps, 1e-9, f"fock-dilution(n={n},p={p},lam={lam})")
    _close(out["rate_lower_bound"], ps, 1e-9, "fock-dilution rate")
    return []


def check_protocol_cat_amplify(out, params) -> list:
    alpha = params["alpha"]
    for name, ps in cat_amplify_success(alpha).items():
        _close(out[name]["success_probability"], ps, 1e-8, f"cat-amplify {name} at {alpha}")
        _close(out[name]["rate_lower_bound"], ps / 2, 1e-8, f"cat-amplify {name} rate")
    return []


def check_protocol_cat_dilute(out, params) -> list:
    alpha = params["alpha"]
    br = cat_dilute_branches(alpha)
    _close(out["branch_plus"], br["plus"], 1e-8, f"cat-dilute plus branch at {alpha}")
    _close(out["branch_minus"], br["minus"], 1e-8, f"cat-dilute minus branch at {alpha}")
    _close(out["success_probability"], br["minus"], 1e-8, "cat-dilute success")
    _close(out["rate_lower_bound"], br["minus"] / 2, 1e-8, "cat-dilute rate")
    return []


def check_certify(out, params) -> list:
    """``certify --state``, with ``--energy`` the state's closed-form energy."""
    eps, energy = params["epsilon"], params["energy"]
    cert = truncation_bits(eps, energy)
    _close(out["certificate_bits"], cert, 1e-9 * max(1.0, cert), f"certify(eps={eps},E={energy})")
    lo, hi = out["corrected_interval"]
    return [check_interval(lo, hi, energy, params["label"])]


CHECKS = {
    "figure_cat": check_figure_cat,
    "figure_protocols": check_figure_protocols,
    "figure_noisy_fock": check_figure_noisy_fock,
    "figure_squeezed": check_figure_squeezed,
    "monotone_sandwich": check_monotone_sandwich,
    "protocol_fock_dilution": check_protocol_fock_dilution,
    "protocol_cat_amplify": check_protocol_cat_amplify,
    "protocol_cat_dilute": check_protocol_cat_dilute,
    "certify": check_certify,
}


# ---------------------------------------------------------------------------
# self-test: every check accepts a correct output and rejects a perturbed one
# ---------------------------------------------------------------------------

def _bound(direction: str, value: float) -> dict:
    return {"direction": direction, "value": value}


def _self_test_cases():
    """(check, params, correct output, perturbed output) for every check."""
    cat_params = {"alphas": [1.0], "signs": ["+"]}
    cat_ok = [{"alpha": 1.0, "sign": "+", "lower_bits": 0.5, "upper_bits": 0.9}]
    cat_swapped = [dict(cat_ok[0], lower_bits=0.9, upper_bits=0.5)]
    cat_above_energy = [dict(cat_ok[0], lower_bits=g_bits(cat_energy(1.0, "+")) + 1e-3,
                             upper_bits=5.0)]
    cat_negative = [dict(cat_ok[0], lower_bits=-1e-3)]

    proto_params = {"alphas": [1.0], "tasks": ["amplify", "dilute"]}
    amp = 0.5 * max(cat_amplify_success(1.0).values())
    dil = 0.5 * cat_dilute_branches(1.0)["minus"]
    proto_ok = [{"alpha": 1.0, "task": "amplify", "lower_rate": amp, "upper_rate": 1.0},
                {"alpha": 1.0, "task": "dilute", "lower_rate": dil, "upper_rate": 1.0}]
    proto_bad = [proto_ok[0], dict(proto_ok[1], lower_rate=dil * (1 + 1e-6))]
    proto_upper_low = [proto_ok[0], dict(proto_ok[1], upper_rate=dil / 2)]

    nf_params = {"rows": [(0.3, 0.0, 1)]}
    v = noisy_fock_value(0.3)
    nf_ok = [{"p": 0.3, "nu": 0.0, "n": 1, "lower_bits": v, "upper_bits": v, "cert_bits": 0.0}]
    nf_bad = [dict(nf_ok[0], lower_bits=v - 2e-6)]

    r = 0.7
    e_sq = math.sinh(r) ** 2
    sq_ok = [{"r": r, "lower_bits": math.log2(math.cosh(r)), "upper_thermal_bits": 1.0,
              "upper_sq_thermal_bits": 0.9, "upper_energy_bits": g_bits(e_sq)}]
    sq_bad_lower = [dict(sq_ok[0], lower_bits=sq_ok[0]["lower_bits"] + 1e-6)]
    sq_bad_energy = [dict(sq_ok[0], upper_energy_bits=g_bits(e_sq) * (1 - 1e-6))]

    fv = fock_value(1)
    sw_params = {"label": "displaced fock(1)", "energy": 2.0, "truth": fv}
    sw_ok = [_bound("lower", fv - 0.05), _bound("upper", g_bits(2.0))]
    sw_miss = [_bound("lower", fv + 1e-4), _bound("upper", g_bits(2.0))]
    sq_sw_params = {"label": "squeezed(0.7)", "energy": e_sq,
                    "lower_at_least": math.log2(math.cosh(r))}
    sq_sw_ok = [_bound("lower", math.log2(math.cosh(r))), _bound("upper", g_bits(e_sq))]
    sq_sw_low = [_bound("lower", math.log2(math.cosh(r)) - 1e-6), _bound("upper", g_bits(e_sq))]

    fd_params = {"n": 3, "p": 0.6, "lam": 0.4}
    fd = fock_dilution_success(3, 0.6, 0.4)
    fd_ok = {"success_probability": fd, "rate_lower_bound": fd}
    fd_bad = {"success_probability": fd + 1e-8, "rate_lower_bound": fd + 1e-8}

    ca = cat_amplify_success(1.5)
    ca_ok = {k: {"success_probability": x, "rate_lower_bound": x / 2} for k, x in ca.items()}
    ca_bad = dict(ca_ok, lund={"success_probability": ca["lund"] + 1e-7,
                               "rate_lower_bound": (ca["lund"] + 1e-7) / 2})

    br = cat_dilute_branches(1.5)
    cd_ok = {"branch_plus": br["plus"], "branch_minus": br["minus"],
             "success_probability": br["minus"], "rate_lower_bound": br["minus"] / 2}
    cd_bad = dict(cd_ok, branch_plus=br["plus"] - 1e-7)

    ct_params = {"epsilon": 0.1, "energy": 2.0, "label": "certify"}
    cert = truncation_bits(0.1, 2.0)
    ct_ok = {"certificate_bits": cert, "corrected_interval": [fv - 0.1, fv + cert]}
    ct_bad_cert = dict(ct_ok, certificate_bits=cert * (1 + 1e-6))
    ct_bad_interval = dict(ct_ok, corrected_interval=[g_bits(2.0) + 0.01, g_bits(2.0) + 1.0])

    return [
        ("figure_cat", cat_params, cat_ok, cat_swapped),
        ("figure_cat", cat_params, cat_ok, cat_above_energy),
        ("figure_cat", cat_params, cat_ok, cat_negative),
        ("figure_protocols", proto_params, proto_ok, proto_bad),
        ("figure_protocols", proto_params, proto_ok, proto_upper_low),
        ("figure_noisy_fock", nf_params, nf_ok, nf_bad),
        ("figure_squeezed", {"rs": [r]}, sq_ok, sq_bad_lower),
        ("figure_squeezed", {"rs": [r]}, sq_ok, sq_bad_energy),
        ("monotone_sandwich", sw_params, sw_ok, sw_miss),
        ("monotone_sandwich", sq_sw_params, sq_sw_ok, sq_sw_low),
        ("protocol_fock_dilution", fd_params, fd_ok, fd_bad),
        ("protocol_cat_amplify", {"alpha": 1.5}, ca_ok, ca_bad),
        ("protocol_cat_dilute", {"alpha": 1.5}, cd_ok, cd_bad),
        ("certify", ct_params, ct_ok, ct_bad_cert),
        ("certify", ct_params, ct_ok, ct_bad_interval),
    ]


def self_test() -> int:
    """Run every self-test case; returns the number of cases, raises on a miss."""
    cases = _self_test_cases()
    for name, params, good, bad in cases:
        try:
            CHECKS[name](good, params)
        except CheckError as exc:
            raise AssertionError(f"check {name} rejected a correct output: {exc}") from exc
        try:
            CHECKS[name](bad, params)
        except CheckError:
            continue
        raise AssertionError(f"check {name} accepted a perturbed output")
    untested = set(CHECKS) - {c[0] for c in cases}
    if untested:
        raise AssertionError(f"checks without a self-test: {sorted(untested)}")
    return len(cases)
