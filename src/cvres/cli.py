"""Command-line front end: state specs in, certified bounds and tables out.

Commands: monotone, figure, protocol, certify.  Exit codes: 0 success,
1 usage error, 2 numerical non-convergence (bounds still emitted).
Numeric output uses %.9g formatting with \n line endings so identical
configurations produce byte-identical files.

Every subcommand's options live in one table, ``SUBCOMMANDS``.  A plain command
line (exact long flags, each with one valid value) is read straight off it;
anything else (-h, abbreviations, --flag=value, values starting with "-", bad
values) goes to the argparse parser built from the same table, so help, error
messages and exit codes are argparse's own.  Likewise each ``--which`` selector
is one entry of ``SELECTORS`` (``BASEL_SELECTORS`` for the basel family) and each
``--name`` one entry of ``FIGURES``: help, dispatch and unknown-name errors all
read those keys.  A ``monotone`` command computes the sandwich at most once, however
many of its selectors use it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import textwrap

import numpy as np

from . import nonclassicality as nc
from . import rates
from .errors import CvresError, InsufficientCutoffError, UsageError
from .fock_core import DensityOperator
from .states import FockDiagonalState, StateSpec, _count, make_state


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(x, ".9g") if isinstance(x, float) else str(x)


def _bits_out(x: float, nats: bool) -> float:
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


def _write_payload(args, payload: dict) -> None:
    """A protocol or certify payload: one CSV row of it flattened, or the payload as JSON."""
    if args.format == "csv":
        flat = _flatten(payload)
        _write_csv(args.output, list(flat), [list(flat.values())])
    else:
        _write_json(args.output, payload)


def _flatten(doc, prefix="") -> dict:
    out = {}
    for key, val in doc.items() if isinstance(doc, dict) else enumerate(doc):
        name = f"{prefix}{key}"
        if isinstance(val, (dict, list)):
            out.update(_flatten(val, name + "."))
        else:
            out[name] = val
    return out


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
    """Parse "a:b:n" (n >= 1 evenly spaced points) or a comma list of finite numbers."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            values = [float(x) for x in np.linspace(float(a), float(b), int(n))]
        else:
            values = [float(x) for x in text.split(",")]
        if values and all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise UsageError(f"grid {text!r} must be a:b:n with n >= 1 or a comma list of finite numbers")


# ---------------------------------------------------------------------------
# monotone
# ---------------------------------------------------------------------------

# --which name -> the bounds it emits, from the state and the command's sandwich: a
# zero-argument function that runs bound_sandwich on its first call and repeats that result
SELECTORS = {
    "ncm-lower": lambda rho, sandwich: [sandwich()[0]],
    "nc-upper": lambda rho, sandwich: [sandwich()[1]],
    "fd-exact": lambda rho, _: list(nc.fock_diagonal_ncm(rho)),
    "energy-upper": lambda rho, _: [nc.energy_upper_bound(nc.ideal_energy(rho), rho.modes)],
    "husimi-lower": lambda rho, _: [nc.husimi_lower_bound(rho)],
    "gaussian-lower": lambda rho, _: [nc.gaussian_bounds(rho)[0]],
    "gaussian-upper": lambda rho, _: [nc.gaussian_bounds(rho)[1]],
    "sandwich": lambda rho, sandwich: list(sandwich()),
}

# the same for the sparse basel-family state, to which only the diagonal engines apply
BASEL_SELECTORS = {
    "ncm-lower": lambda rho, _: [nc.MonotoneBound(
        "NCM", "lower", max(0.0, nc.basel_divergence_bound(rho.spec.params["n_max"])),
        {"ansatz_description": "log-domain diagonal divergence ansatz (ideal state)"})],
    "fd-exact": SELECTORS["fd-exact"],
}


def cmd_monotone(args) -> int:
    if args.max_iters < 1:
        raise UsageError(f"--max-iters must be at least 1, got {args.max_iters}")
    rho = _load_state(args.state)
    selectors = [w.strip() for w in args.which.split(",") if w.strip()]
    if not selectors:
        raise UsageError("--which must name at least one bound")
    table = BASEL_SELECTORS if isinstance(rho, FockDiagonalState) else SELECTORS
    sandwich = functools.cache(lambda: nc.bound_sandwich(rho, max_iters=args.max_iters))
    bounds: list[nc.MonotoneBound] = []
    for sel in selectors:
        if sel not in table:
            if table is SELECTORS:
                raise UsageError(f"unknown bound selector {sel!r}; valid: {', '.join(SELECTORS)}")
            raise UsageError(f"selector {sel!r} is not available for the basel family; "
                             f"use {' or '.join(BASEL_SELECTORS)}")
        bounds.extend(table[sel](rho, sandwich))
    payload = [dataclasses.asdict(b) for b in bounds]
    for doc in payload:
        doc["value"] = _bits_out(doc["value"], args.nats)
    if args.format == "json":
        _write_json(args.output, payload)
    else:
        rows = [[d["quantity"], d["direction"], d["value"],
                 _bits_out(d["certificate"].get("truncation_correction_bits", 0.0), args.nats),
                 d["converged"]] for d in payload]
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
        try:
            rho = make_state(spec, deficit_tol=1e-5)
        except InsufficientCutoffError as exc:
            if args.cutoff:
                raise
            # the default cutoff falls short from about r = 1.9: take the one the error names
            spec = StateSpec("squeezed", {"r": r}, exc.required_cutoff)
            rho = make_state(spec, deficit_tol=1e-5)
        g_lower, _ = nc.gaussian_bounds(rho)
        up = nc.classical_ansatz_upper_bound(rho)
        # the thermal column is the ansatz's unsqueezed member, s = 0
        up_th = up.certificate["unsqueezed_raw_bits"] + up.certificate["truncation_correction_bits"]
        up_en = nc.energy_upper_bound(nc.ideal_energy(rho), 1)
        rows.append([r, g_lower.value, up_th, up.value, up_en.value])
    header = ["r", "lower_bits", "upper_thermal_bits", "upper_sq_thermal_bits",
              "upper_energy_bits"]
    return header, rows, True


def _figure_protocols(args) -> tuple[list[str], list[list], bool]:
    alphas = _grid(args.alpha_grid) if args.alpha_grid else list(np.linspace(0.5, 2.0, 7))
    tasks = [t for t in ("amplify", "dilute") if args.task in (None, t)]
    data = [row for task in tasks for row in rates.protocol_figure_data(task, alphas)]
    rows = [[row["alpha"], row["task"], row["lower_rate"], row["upper_rate"]] for row in data]
    return ["alpha", "task", "lower_rate", "upper_rate"], rows, all(r["converged"] for r in data)


# --name -> the builder of its (header, rows, converged)
FIGURES = {
    "noisy-fock-fixed-n": _figure_noisy_fock,
    "noisy-fock-fixed-nu": _figure_noisy_fock,
    "cat": _figure_cat,
    "squeezed": _figure_squeezed,
    "protocols": _figure_protocols,
}


def cmd_figure(args) -> int:
    # rows run serially: they are Python-bound, and a thread pool was slower on every figure
    if args.threads is not None and args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    if args.cutoff is not None and args.cutoff < 1:
        raise UsageError(f"--cutoff must be at least 1, got {args.cutoff}")
    if args.name not in FIGURES:
        raise UsageError(f"unknown figure {args.name!r}; valid names: {', '.join(FIGURES)}")
    header, rows, converged = FIGURES[args.name](args)
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

def _outcome(out: rates.ProtocolOutcome, **extra) -> dict:
    """Probability and rate, then ``extra``, then the fidelity check: its CSV column order."""
    return {"success_probability": out.success_probability,
            "rate_lower_bound": out.rate_lower_bound,
            **extra, "output_fidelity_check": out.output_fidelity_check}


def cmd_protocol(args) -> int:
    if args.task == "fock-dilution":
        out = rates.fock_dilution(args.n, args.p, args.lam)
        payload = {**_outcome(out), "closed_form": out.details["closed_form"]}
    elif args.task == "cat-amplify":
        outs = rates.cat_amplification(args.alpha, args.cutoff)
        forms = rates.cat_amplification_formulas(args.alpha)
        payload = {name: _outcome(outs[name], closed_form=forms[name]) for name in outs}
    elif args.task == "cat-dilute":
        out = rates.cat_dilution(args.alpha, args.cutoff)
        payload = _outcome(out, branch_plus=out.details["branch_plus"],
                           branch_minus=out.details["branch_minus"],
                           closed_form_rate=rates.cat_dilution_formulas(args.alpha)["rate"])
    else:
        raise UsageError("task must be fock-dilution, cat-amplify or cat-dilute")
    _write_payload(args, {"task": args.task, **payload})
    return 0


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
    _write_payload(args, payload)
    return 0 if converged else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# flag -> add_argument keywords; a flag's dest is its name without "--", "-" read as "_",
# and its default None unless given
_OUTPUT = {"--output": {"help": "output path (default stdout)"}}
_FORMAT = {"--format": {"choices": ("csv", "json"), "default": "json"}}  # figure writes CSV only
_NATS = {"--nats": {"action": "store_true", "default": False,  # protocol outputs carry no bits
                    "help": "convert bit outputs to nats"}}

# name -> (help, options, handler) of every subcommand; each registers only the flags it reads
SUBCOMMANDS = {
    "monotone": ("certified bounds for one state", {
        "--state": {"required": True, "help": "state spec JSON, @file, or raw-matrix JSON file"},
        "--which": {"default": "sandwich", "help": f"comma list from: {', '.join(SELECTORS)}"},
        "--max-iters": {"type": int, "default": 300},
        **_OUTPUT, **_FORMAT, **_NATS,
    }, cmd_monotone),
    "figure": ("CSV tables behind the survey figures", {
        "--name": {"required": True, "help": f"one of: {', '.join(FIGURES)}"},
        "--cutoff": {"type": int},
        "--p-grid": {},
        "--nu-grid": {},
        "--n-grid": {},
        "--alpha-grid": {},
        "--r-grid": {},
        "--n": {"type": int},
        "--nu": {"type": float},
        "--sign": {"choices": ("+", "-")},
        "--task": {"choices": ("amplify", "dilute")},
        "--threads": {"type": int, "help": "accepted and ignored: rows run serially "
                      "(kept for existing command lines)"},
        **_OUTPUT, **_NATS,
    }, cmd_figure),
    "protocol": ("exact protocol simulation", {
        "--task": {"required": True, "choices": ("fock-dilution", "cat-amplify", "cat-dilute")},
        "--n": {"type": int, "default": 2},
        "--p": {"type": float, "default": 1.0},
        "--lam": {"type": float, "default": 0.5},
        "--alpha": {"type": float, "default": 1.0},
        "--cutoff": {"type": int},
        **_OUTPUT, **_FORMAT,
    }, cmd_protocol),
    "certify": ("truncation certificate and corrected interval", {
        "--epsilon": {"type": float, "required": True},
        "--energy": {"type": float, "required": True},
        "--modes": {"type": int, "default": 1},
        "--state": {},
        **_OUTPUT, **_FORMAT, **_NATS,
    }, cmd_certify),
}


def _plain_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would return for a plain command line, read straight off
    ``SUBCOMMANDS``: a subcommand, then exact long flags of it, each but a store_true one
    followed by one value that does not start with "-", converts by the flag's type and
    lies in its choices, no flag twice, every required flag given.  None for anything
    else, which ``build_parser`` reads with argparse's own help, errors and exit codes."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, options, handler = SUBCOMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kw = options.get(flag)
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value reads as the next flag
        if text.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    return argparse.Namespace(
        command=argv[0], func=handler,
        **{flag[2:].replace("-", "_"): given.get(flag, kw.get("default"))
           for flag, kw in options.items()})


class _SpaceWrapFormatter(argparse.HelpFormatter):
    """Help text wrapped at spaces only, so a hyphenated selector or figure name is
    never split across two lines."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's full argparse parser, built from ``SUBCOMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="cvres",
        description="Certified nonclassicality bounds and protocol tables on truncated Fock space",
        formatter_class=_SpaceWrapFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=_SpaceWrapFormatter)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, CvresError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
