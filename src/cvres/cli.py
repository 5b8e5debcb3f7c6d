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
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import nonclassicality as nc
from . import rates
from .entropies import von_neumann_entropy
from .errors import CvresError, UsageError
from .fock_core import DensityOperator
from .states import StateSpec, exact_energy, gaussian_descriptor, make_state

THREADS_ENV = "CVRES_THREADS"
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


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    text = "\n".join([",".join(header)] + [",".join(_fmt(c) for c in row) for row in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _thread_count(args) -> int:
    if getattr(args, "threads", None):
        return max(1, int(args.threads))
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _load_state(text: str) -> tuple[DensityOperator, StateSpec | None]:
    """Parse a state argument: inline JSON, @path, or a raw-matrix JSON file."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    doc = json.loads(text)
    if "entries_re" in doc:
        modes, cutoff = int(doc["modes"]), int(doc["cutoff"])
        re_part = np.asarray(doc["entries_re"], dtype=float)
        im_part = np.asarray(doc.get("entries_im", np.zeros_like(re_part)), dtype=float)
        dim = cutoff**modes
        ent = (re_part + 1j * im_part).reshape(dim, dim)
        return DensityOperator.from_matrix(ent, modes, cutoff), None
    spec = StateSpec.from_json(json.dumps(doc))
    state = make_state(spec)
    return state, spec


def _grid(text: str) -> list[float]:
    """Parse "a:b:n" (n evenly spaced points) or a comma list."""
    if ":" in text:
        a, b, n = text.split(":")
        return [float(x) for x in np.linspace(float(a), float(b), int(n))]
    return [float(x) for x in text.split(",")]


# ---------------------------------------------------------------------------
# monotone
# ---------------------------------------------------------------------------

_WHICH = ("ncm-lower", "nc-upper", "fd-exact", "energy-upper", "wehrl-upper",
          "husimi-lower", "gaussian-lower", "gaussian-upper", "sandwich")


def _bounds_for(which: str, rho, spec, cfg) -> list[nc.MonotoneBound]:
    from cvres.states import FockDiagonalState

    if isinstance(rho, FockDiagonalState):
        # sparse basel-family state: only the diagonal engines apply
        if which == "ncm-lower":
            value = max(0.0, nc.basel_divergence_bound(int(spec.params["n_max"])))
            return [nc.MonotoneBound(
                "NCM", "lower", value,
                {"ansatz_description": "log-domain diagonal divergence ansatz (ideal state)"},
            )]
        if which == "fd-exact":
            res = nc.fock_diagonal_ncm(rho, cfg)
            return [res.lower, res.upper]
        raise UsageError(f"selector {which!r} is not available for the basel family; "
                         "use ncm-lower or fd-exact")
    energy = exact_energy(spec) if spec is not None else rho.energy
    if which == "ncm-lower":
        lo, _ = nc.bound_sandwich(rho, cfg, spec=spec)
        return [lo]
    if which == "nc-upper":
        _, hi = nc.bound_sandwich(rho, cfg, spec=spec)
        return [hi]
    if which == "sandwich":
        lo, hi = nc.bound_sandwich(rho, cfg, spec=spec)
        return [lo, hi]
    if which == "fd-exact":
        res = nc.fock_diagonal_ncm(rho, cfg, energy=energy)
        return [res.lower, res.upper]
    if which == "energy-upper":
        return [nc.energy_upper_bound(energy, rho.modes)]
    if which == "wehrl-upper":
        return [nc.wehrl_upper_bound(rho, energy=energy)]
    if which == "husimi-lower":
        return [nc.husimi_lower_bound(rho, energy=energy)]
    if which in ("gaussian-lower", "gaussian-upper"):
        if spec is None:
            raise UsageError("gaussian bounds need a Gaussian state spec")
        s_bits = (
            nc.g_thermal(float(spec.params["nu"]))
            if spec.family == "thermal"
            else von_neumann_entropy(rho.renormalized())
        )
        lo, hi = nc.gaussian_bounds(gaussian_descriptor(spec), s_bits)
        return [lo if which == "gaussian-lower" else hi]
    raise UsageError(f"unknown bound selector {which!r}; valid: {', '.join(_WHICH)}")


def cmd_monotone(args) -> int:
    rho, spec = _load_state(args.state)
    cfg = nc.OptimizerConfig(max_iters=args.max_iters, objective_tol=args.tol)
    selectors = [w.strip() for w in args.which.split(",") if w.strip()]
    if not selectors:
        raise UsageError("--which must name at least one bound")
    bounds: list[nc.MonotoneBound] = []
    for sel in selectors:
        bounds.extend(_bounds_for(sel, rho, spec, cfg))
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

def _noisy_fock_row(task) -> tuple[list, bool]:
    p, nu, n, cutoff = task
    spec = StateSpec("noisy_fock", {"n": n, "nu": nu, "p": p}, cutoff)
    # the emitted cert_bits column covers the truncation deficit honestly
    rho = make_state(spec, deficit_tol=1e-4)
    res = nc.fock_diagonal_ncm(rho, energy=exact_energy(spec))
    cert = res.lower.certificate["truncation_correction_bits"]
    return [p, nu, n, res.lower.value, res.upper.value, cert], res.lower.converged


def _collect(results: list[tuple[list, bool]]) -> tuple[list[list], bool]:
    """Split (row, converged) pairs into the rows and whether every row converged."""
    return [row for row, _ in results], all(ok for _, ok in results)


def _figure_noisy_fock(args, threads: int) -> tuple[list[str], list[list], bool]:
    header = ["p", "nu", "n", "lower_bits", "upper_bits", "cert_bits"]
    cutoff = args.cutoff or 40
    if args.name == "noisy-fock-fixed-n":
        n = int(args.n if args.n is not None else 1)
        nus = _grid(args.nu_grid) if args.nu_grid else [0.0, 1.0, 2.0, 3.0]
        ps = _grid(args.p_grid) if args.p_grid else list(np.linspace(0.05, 0.95, 19))
        tasks = [(p, nu, n, cutoff) for nu in nus for p in ps]
    else:
        nu = float(args.nu if args.nu is not None else 0.0)
        ns = [int(x) for x in (_grid(args.n_grid) if args.n_grid else [1, 2, 3, 4])]
        ps = _grid(args.p_grid) if args.p_grid else list(np.linspace(0.05, 0.95, 19))
        tasks = [(p, nu, n, cutoff) for n in ns for p in ps]
    rows, converged = _collect(_map_ordered(_noisy_fock_row, tasks, threads))
    return header, rows, converged


def _cat_row(task) -> tuple[list, bool]:
    alpha, sign, cutoff, cfg = task
    spec = StateSpec("cat", {"alpha": alpha, "sign": sign}, cutoff)
    rho = make_state(spec, deficit_tol=1e-7)
    lo, hi = nc.bound_sandwich(rho, cfg, spec=spec)
    return [alpha, sign, lo.value, hi.value], lo.converged and hi.converged


def _figure_cat(args, threads: int) -> tuple[list[str], list[list], bool]:
    alphas = _grid(args.alpha_grid) if args.alpha_grid else list(np.linspace(0.4, 2.4, 11))
    signs = [args.sign] if args.sign else ["+", "-"]
    cfg = nc.OptimizerConfig()
    tasks = []
    for sign in signs:
        for a in alphas:
            cutoff = args.cutoff or rates.required_cat_cutoff(a, 1e-9)
            tasks.append((a, sign, cutoff, cfg))
    rows, converged = _collect(_map_ordered(_cat_row, tasks, threads))
    return ["alpha", "sign", "lower_bits", "upper_bits"], rows, converged


def _squeezed_row(task) -> list:
    r, cutoff = task
    spec = StateSpec("squeezed", {"r": r}, cutoff)
    rho = make_state(spec, deficit_tol=1e-5)
    energy = exact_energy(spec)
    g_lower, _ = nc.gaussian_bounds(gaussian_descriptor(spec), 0.0)
    up_th = nc.classical_ansatz_upper_bound(rho, "thermal", energy=energy)
    up_sq = nc.classical_ansatz_upper_bound(rho, "squeezed_thermal", energy=energy, squeeze_r=r)
    up_en = nc.energy_upper_bound(energy, 1)
    return [r, g_lower.value, up_th.value, up_sq.value, up_en.value]


def _figure_squeezed(args, threads: int) -> tuple[list[str], list[list], bool]:
    rs = _grid(args.r_grid) if args.r_grid else list(np.linspace(0.1, 1.5, 8))
    tasks = []
    for r in rs:
        cutoff = args.cutoff or max(40, int(40 + 50 * r * r))
        tasks.append((r, cutoff))
    header = ["r", "lower_bits", "upper_thermal_bits", "upper_sq_thermal_bits",
              "upper_energy_bits"]
    return header, _map_ordered(_squeezed_row, tasks, threads), True


def _figure_protocols(args, threads: int) -> tuple[list[str], list[list], bool]:
    alphas = _grid(args.alpha_grid) if args.alpha_grid else list(np.linspace(0.5, 2.0, 7))
    tasks = [t for t in ("amplify", "dilute") if args.task in (None, t)]
    data = [row for task in tasks for row in rates.protocol_figure_data(task, alphas)]
    rows = [[row["alpha"], row["task"], row["lower_rate"], row["upper_rate"]] for row in data]
    return ["alpha", "task", "lower_rate", "upper_rate"], rows, all(r["converged"] for r in data)


def cmd_figure(args) -> int:
    threads = _thread_count(args)
    if args.name in ("noisy-fock-fixed-n", "noisy-fock-fixed-nu"):
        header, rows, converged = _figure_noisy_fock(args, threads)
    elif args.name == "cat":
        header, rows, converged = _figure_cat(args, threads)
    elif args.name == "squeezed":
        header, rows, converged = _figure_squeezed(args, threads)
    elif args.name == "protocols":
        header, rows, converged = _figure_protocols(args, threads)
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
        out = rates.fock_dilution(int(args.n), float(args.p), float(args.lam))
        payload = {
            "task": args.task,
            "success_probability": out.success_probability,
            "rate_lower_bound": out.rate_lower_bound,
            "output_fidelity_check": out.output_fidelity_check,
            "closed_form": out.details["closed_form"],
        }
    elif args.task == "cat-amplify":
        outs = rates.cat_amplification(float(args.alpha), args.cutoff)
        forms = rates.cat_amplification_formulas(float(args.alpha))
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
        out = rates.cat_dilution(float(args.alpha), args.cutoff)
        forms = rates.cat_dilution_formulas(float(args.alpha))
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
    eps = float(args.epsilon)
    energy = float(args.energy)
    modes = int(args.modes)
    cert = nc.truncation_certificate(eps, energy, modes)
    payload = {"epsilon": eps, "energy": energy, "modes": modes,
               "certificate_bits": _bits_out(cert, args.nats)}
    converged = True
    if args.state:
        from cvres.states import FockDiagonalState

        rho, spec = _load_state(args.state)
        if isinstance(rho, FockDiagonalState):
            raise UsageError("certify --state does not support the basel family")
        lo, hi = nc.bound_sandwich(rho, spec=spec)
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
                       help=f"worker count (default ${THREADS_ENV} or machine)")
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
    p_cert.add_argument("--epsilon", required=True)
    p_cert.add_argument("--energy", required=True)
    p_cert.add_argument("--modes", default=1)
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
