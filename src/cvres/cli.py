"""Command-line front end: state specs in, certified bounds and tables out.

Commands: monotone, figure, protocol, certify.  Exit codes: 0 success,
1 usage error, 2 numerical non-convergence (bounds still emitted).
Numeric output uses %.9g formatting with \n line endings so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import nonclassicality as nc
from . import rates
from .errors import CvresError, UsageError
from .fock_core import DensityOperator
from .states import FockDiagonalState, StateSpec, _count, gaussian_descriptor, make_state

FIGURE_NAMES = ("noisy-fock-fixed-n", "noisy-fock-fixed-nu", "cat", "squeezed", "protocols")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".9g")
    return str(x)


def _bits_out(x: float | None, nats: bool) -> float | None:
    if x is None:
        return None
    return x * math.log(2.0) if nats else x


def _write(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)] + [",".join(_fmt(c) for c in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_state(text: str) -> DensityOperator | FockDiagonalState:
    """Parse a state argument (inline JSON, @path, or a raw-matrix JSON file) into a state."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    doc = json.loads(text)
    if isinstance(doc, dict) and "entries_re" in doc:
        modes, cutoff = _count(doc.get("modes")), _count(doc.get("cutoff"))
        if not (modes and cutoff):
            raise UsageError(f"raw modes and cutoff must be integers >= 1, got {doc.get('modes')!r}"
                             f" and {doc.get('cutoff')!r}")
        dim = cutoff**modes
        re_part = _real_entries(doc["entries_re"], dim)
        im_part = _real_entries(doc["entries_im"], dim) if "entries_im" in doc else 0.0
        return DensityOperator.from_matrix(re_part + 1j * im_part, modes, cutoff)
    return make_state(StateSpec.from_json(json.dumps(doc)))


def _real_entries(values, dim: int) -> np.ndarray:
    """A raw matrix's entry list as a dim x dim real array; anything else is a UsageError."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "iuf" and arr.size == dim * dim and np.all(np.isfinite(arr)):
            return arr.astype(float).reshape(dim, dim)
    except ValueError:  # ragged nesting
        pass
    raise UsageError("raw entries_re and entries_im need cutoff^(2 modes) finite reals, row-major")


def _grid(text: str) -> list[float]:
    """Parse "a:b:n" (n evenly spaced points) or a comma list of finite numbers."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            values = [float(x) for x in np.linspace(float(a), float(b), int(n))]
        else:
            values = [float(x) for x in text.split(",")]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise UsageError(f"grid {text!r} must be a:b:n or a comma list of finite numbers")


# ---------------------------------------------------------------------------
# monotone
# ---------------------------------------------------------------------------

_WHICH = ("ncm-lower", "nc-upper", "fd-exact", "energy-upper", "wehrl-upper",
          "husimi-lower", "gaussian-lower", "gaussian-upper", "sandwich")


def _bounds_for(which: str, rho, cfg) -> list[nc.MonotoneBound]:
    if isinstance(rho, FockDiagonalState):
        # sparse basel-family state: only the diagonal engines apply
        if which == "ncm-lower":
            value = max(0.0, nc.basel_divergence_bound(rho.spec.params["n_max"]))
            return [nc.MonotoneBound(
                "NCM", "lower", value,
                {"ansatz_description": "log-domain diagonal divergence ansatz (ideal state)"},
            )]
        if which == "fd-exact":
            res = nc.fock_diagonal_ncm(rho)
            return [res.lower, res.upper]
        raise UsageError(f"selector {which!r} is not available for the basel family; "
                         "use ncm-lower or fd-exact")
    if which == "ncm-lower":
        lo, _ = nc.bound_sandwich(rho, cfg)
        return [lo]
    if which == "nc-upper":
        _, hi = nc.bound_sandwich(rho, cfg)
        return [hi]
    if which == "sandwich":
        lo, hi = nc.bound_sandwich(rho, cfg)
        return [lo, hi]
    if which == "fd-exact":
        res = nc.fock_diagonal_ncm(rho)
        return [res.lower, res.upper]
    if which == "energy-upper":
        return [nc.energy_upper_bound(nc.ideal_energy(rho), rho.modes)]
    if which == "wehrl-upper":
        return [nc.wehrl_upper_bound(rho)]
    if which == "husimi-lower":
        return [nc.husimi_lower_bound(rho)]
    if which in ("gaussian-lower", "gaussian-upper"):
        if rho.spec is None:
            raise UsageError("gaussian bounds need a Gaussian state spec")
        lo, hi = nc.gaussian_bounds(gaussian_descriptor(rho.spec))
        return [lo if which == "gaussian-lower" else hi]
    raise UsageError(f"unknown bound selector {which!r}; valid: {', '.join(_WHICH)}")


def cmd_monotone(args) -> int:
    rho = _load_state(args.state)
    cfg = nc.OptimizerConfig(max_iters=args.max_iters, objective_tol=args.tol)
    selectors = [w.strip() for w in args.which.split(",") if w.strip()]
    if not selectors:
        raise UsageError("--which must name at least one bound")
    bounds: list[nc.MonotoneBound] = []
    for sel in selectors:
        bounds.extend(_bounds_for(sel, rho, cfg))
    payload = []
    for b in bounds:
        doc = json.loads(b.to_json())
        doc["value"] = _bits_out(doc["value"], args.nats)
        payload.append(doc)
    if args.format == "json":
        _write_json(args.output, payload)
    else:
        rows = [
            [d["quantity"], d["direction"], d["value"],
             d["certificate"].get("truncation_correction_bits", 0.0),
             d["converged"]]
            for d in payload
        ]
        _write_csv(args.output, ["quantity", "direction", "value_bits", "cert_bits", "converged"],
                   rows)
    return 0 if all(b.converged for b in bounds) else 2


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def _figure_noisy_fock(args) -> tuple[list[str], list[list], bool]:
    header = ["p", "nu", "n", "lower_bits", "upper_bits", "cert_bits"]
    cutoff = args.cutoff or 40
    ps = _grid(args.p_grid) if args.p_grid else list(np.linspace(0.05, 0.95, 19))
    if args.name == "noisy-fock-fixed-n":
        n = args.n if args.n is not None else 1
        nus = _grid(args.nu_grid) if args.nu_grid else [0.0, 1.0, 2.0, 3.0]
        curves = [(nu, n) for nu in nus]
    else:
        nu = args.nu if args.nu is not None else 0.0
        ns = _grid(args.n_grid) if args.n_grid else [1, 2, 3, 4]
        curves = [(nu, n) for n in ns]
    rows, converged = [], True
    for nu, n in curves:
        for p in ps:
            # the emitted cert_bits column covers the truncation deficit honestly
            spec = StateSpec("noisy_fock", {"n": n, "nu": nu, "p": p}, cutoff)
            res = nc.fock_diagonal_ncm(make_state(spec, deficit_tol=1e-4))
            rows.append([p, nu, n, res.lower.value, res.upper.value,
                         res.lower.certificate["truncation_correction_bits"]])
            converged = converged and res.lower.converged
    return header, rows, converged


def _figure_cat(args) -> tuple[list[str], list[list], bool]:
    alphas = _grid(args.alpha_grid) if args.alpha_grid else list(np.linspace(0.4, 2.4, 11))
    signs = [args.sign] if args.sign else ["+", "-"]
    rows, converged = [], True
    for sign in signs:
        for a in alphas:
            lo, hi = rates.cat_interval(a, sign, args.cutoff or rates.required_cat_cutoff(a, 1e-9))
            rows.append([a, sign, lo.value, hi.value])
            converged = converged and lo.converged and hi.converged
    return ["alpha", "sign", "lower_bits", "upper_bits"], rows, converged


def _figure_squeezed(args) -> tuple[list[str], list[list], bool]:
    rs = _grid(args.r_grid) if args.r_grid else list(np.linspace(0.1, 1.5, 8))
    rows = []
    for r in rs:
        spec = StateSpec("squeezed", {"r": r}, args.cutoff or max(40, int(40 + 50 * r * r)))
        rho = make_state(spec, deficit_tol=1e-5)
        g_lower, _ = nc.gaussian_bounds(gaussian_descriptor(spec))
        up_th = nc.classical_ansatz_upper_bound(rho, "thermal")
        up_sq = nc.classical_ansatz_upper_bound(rho, "squeezed_thermal")
        up_en = nc.energy_upper_bound(nc.ideal_energy(rho), 1)
        rows.append([r, g_lower.value, up_th.value, up_sq.value, up_en.value])
    header = ["r", "lower_bits", "upper_thermal_bits", "upper_sq_thermal_bits",
              "upper_energy_bits"]
    return header, rows, True


def _figure_protocols(args) -> tuple[list[str], list[list], bool]:
    alphas = _grid(args.alpha_grid) if args.alpha_grid else list(np.linspace(0.5, 2.0, 7))
    tasks = [t for t in ("amplify", "dilute") if args.task in (None, t)]
    data = [row for task in tasks for row in rates.protocol_figure_data(task, alphas)]
    rows = [[row["alpha"], row["task"], row["lower_rate"], row["upper_rate"]] for row in data]
    return ["alpha", "task", "lower_rate", "upper_rate"], rows, all(r["converged"] for r in data)


def cmd_figure(args) -> int:
    # rows run serially: they are Python-bound, and a thread pool was slower on every figure
    if args.threads is not None and args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    if args.name in ("noisy-fock-fixed-n", "noisy-fock-fixed-nu"):
        header, rows, converged = _figure_noisy_fock(args)
    elif args.name == "cat":
        header, rows, converged = _figure_cat(args)
    elif args.name == "squeezed":
        header, rows, converged = _figure_squeezed(args)
    elif args.name == "protocols":
        header, rows, converged = _figure_protocols(args)
    else:
        raise UsageError(f"unknown figure {args.name!r}; valid names: {', '.join(FIGURE_NAMES)}")
    if args.nats:
        for row in rows:
            for i, (h, v) in enumerate(zip(header, row)):
                if h.endswith("_bits") and isinstance(v, float):
                    row[i] = v * math.log(2.0)
    _write_csv(args.output, header, rows)
    return 0 if converged else 2


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def cmd_protocol(args) -> int:
    if args.task == "fock-dilution":
        out = rates.fock_dilution(args.n, args.p, args.lam)
        payload = {
            "task": args.task,
            "success_probability": out.success_probability,
            "rate_lower_bound": out.rate_lower_bound,
            "output_fidelity_check": out.output_fidelity_check,
            "closed_form": out.details["closed_form"],
        }
    elif args.task == "cat-amplify":
        outs = rates.cat_amplification(args.alpha, args.cutoff)
        forms = rates.cat_amplification_formulas(args.alpha)
        payload = {
            "task": args.task,
            "ours": {
                "success_probability": outs["ours"].success_probability,
                "rate_lower_bound": outs["ours"].rate_lower_bound,
                "closed_form": forms["ours"],
                "output_fidelity_check": outs["ours"].output_fidelity_check,
            },
            "lund": {
                "success_probability": outs["lund"].success_probability,
                "rate_lower_bound": outs["lund"].rate_lower_bound,
                "closed_form": forms["lund"],
                "output_fidelity_check": outs["lund"].output_fidelity_check,
            },
        }
    elif args.task == "cat-dilute":
        out = rates.cat_dilution(args.alpha, args.cutoff)
        forms = rates.cat_dilution_formulas(args.alpha)
        payload = {
            "task": args.task,
            "success_probability": out.success_probability,
            "rate_lower_bound": out.rate_lower_bound,
            "branch_plus": out.details["branch_plus"],
            "branch_minus": out.details["branch_minus"],
            "closed_form_rate": forms["rate"],
            "output_fidelity_check": out.output_fidelity_check,
        }
    else:
        raise UsageError("task must be fock-dilution, cat-amplify or cat-dilute")
    if args.format == "csv":
        flat = _flatten(payload)
        _write_csv(args.output, list(flat), [list(flat.values())])
    else:
        _write_json(args.output, payload)
    return 0


def _flatten(doc, prefix="") -> dict:
    out = {}
    for key, val in doc.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, name + "."))
        else:
            out[name] = val
    return out


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    cert = nc.truncation_certificate(args.epsilon, args.energy, args.modes)
    payload = {"epsilon": args.epsilon, "energy": args.energy, "modes": args.modes,
               "certificate_bits": _bits_out(cert, args.nats)}
    converged = True
    if args.state:
        rho = _load_state(args.state)
        if isinstance(rho, FockDiagonalState):
            raise UsageError("certify --state does not support the basel family")
        lo, hi = nc.bound_sandwich(rho)
        converged = lo.converged and hi.converged
        payload["corrected_interval"] = [
            _bits_out(max(0.0, lo.value - cert), args.nats),
            _bits_out(hi.value + cert, args.nats),
        ]
    if args.format == "csv":
        flat = _flatten(payload)
        _write_csv(args.output, list(flat), [list(flat.values())])
    else:
        _write_json(args.output, payload)
    return 0 if converged else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvres",
        description="Certified nonclassicality bounds and protocol tables on truncated Fock space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, fmt=True, nats=True):
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if fmt:  # figure always writes CSV
            p.add_argument("--format", choices=("csv", "json"), default="json")
        if nats:  # protocol outputs carry no bits
            p.add_argument("--nats", action="store_true", help="convert bit outputs to nats")

    p_mono = sub.add_parser("monotone", help="certified bounds for one state")
    p_mono.add_argument("--state", required=True,
                        help="state spec JSON, @file, or raw-matrix JSON file")
    p_mono.add_argument("--which", default="sandwich",
                        help=f"comma list from: {', '.join(_WHICH)}")
    p_mono.add_argument("--max-iters", type=int, default=300)
    p_mono.add_argument("--tol", type=float, default=1e-8)
    common(p_mono)
    p_mono.set_defaults(func=cmd_monotone)

    p_fig = sub.add_parser("figure", help="CSV tables behind the survey figures")
    p_fig.add_argument("--name", required=True, help=f"one of: {', '.join(FIGURE_NAMES)}")
    p_fig.add_argument("--cutoff", type=int, default=None)
    p_fig.add_argument("--p-grid", dest="p_grid", default=None)
    p_fig.add_argument("--nu-grid", dest="nu_grid", default=None)
    p_fig.add_argument("--n-grid", dest="n_grid", default=None)
    p_fig.add_argument("--alpha-grid", dest="alpha_grid", default=None)
    p_fig.add_argument("--r-grid", dest="r_grid", default=None)
    p_fig.add_argument("--n", type=int, default=None)
    p_fig.add_argument("--nu", type=float, default=None)
    p_fig.add_argument("--sign", choices=("+", "-"), default=None)
    p_fig.add_argument("--task", choices=("amplify", "dilute"), default=None)
    p_fig.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: rows run serially (kept for existing "
                            "command lines)")
    common(p_fig, fmt=False)
    p_fig.set_defaults(func=cmd_figure)

    p_proto = sub.add_parser("protocol", help="exact protocol simulation")
    p_proto.add_argument("--task", required=True,
                         choices=("fock-dilution", "cat-amplify", "cat-dilute"))
    p_proto.add_argument("--n", type=int, default=2)
    p_proto.add_argument("--p", type=float, default=1.0)
    p_proto.add_argument("--lam", type=float, default=0.5)
    p_proto.add_argument("--alpha", type=float, default=1.0)
    p_proto.add_argument("--cutoff", type=int, default=None)
    common(p_proto, nats=False)
    p_proto.set_defaults(func=cmd_protocol)

    p_cert = sub.add_parser("certify", help="truncation certificate and corrected interval")
    p_cert.add_argument("--epsilon", type=float, required=True)
    p_cert.add_argument("--energy", type=float, required=True)
    p_cert.add_argument("--modes", type=int, default=1)
    p_cert.add_argument("--state", default=None)
    common(p_cert)
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, CvresError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
