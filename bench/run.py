"""cvres benchmark: runs one workload of CLI commands and prints its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {cat,ascent,protocols} --seed N --seconds S --trace {0,1}

Each command runs in its own child interpreter (bench/child.py), one at a
time, with BLAS pinned to one thread and figure commands given one worker per
core of this process's CPU set.  Whole rounds of the workload are repeated:
a new round starts while less than ``--seconds`` have passed, so every run
measures at least that long, and never when it could not end within the run
limit.  Every output is checked against closed forms computed in
bench/checks.py.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
over rounds of the summed time inside ``cvres.cli.main``), ``setup_s``
(median over child interpreters of the import time of ``cvres.cli``; a
workload with fewer than eight commands per round adds import-only probes),
``peak_rss_mb`` (largest peak resident set of any command) and
``interval_width_bits`` (median over rounds of the summed widths of the
emitted bit intervals).  With ``--trace 1`` each round runs once untraced and
once traced, and the metrics are the per-layer totals of the traced rounds
plus the overhead.

The last line of stdout is the result object; the line before it holds the
run context.  Spans, output hashes and per-command records are written under
``.bench_run/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s; a child is killed past this
MIN_SETUPS = 8  # import-only probes top up workloads with fewer commands per round

# traced functions, each with the counters it reports besides calls and self_s
TRACED = {
    "nonclassicality.coherent_sup_certified": ("gap_exceeded",),
    "nonclassicality.cat_gamma_lower_bound": (),
    "nonclassicality.fock_diagonal_ncm": ("unconverged",),
    "nonclassicality.gamma_lower_bound": ("iterations",),
    "nonclassicality.classical_ansatz_upper_bound": (),
    "nonclassicality.bound_sandwich": (),
    "nonclassicality.bound_sandwich_product": (),
    "entropies.relative_entropy": (),
    "entropies.von_neumann_entropy": (),
    "fock_core.beam_splitter_unitary": ("bytes",),
    "rates.fock_dilution": ("rounds",),
    "rates.cat_amplification": (),
    "rates.cat_dilution": (),
    "rates.protocol_figure_data": (),
    "states.make_state": (),
    "cli.main": (),
}
LAYERS = ("cli", "states", "fock_core", "entropies", "nonclassicality", "rates")
UNITS = {"calls": "count", "self_s": "s", "gap_exceeded": "count", "unconverged": "count",
         "iterations": "count", "bytes": "bytes_computed", "rounds": "count"}


def _parse_output(path: str, fmt: str):
    with open(path) as fh:
        text = fh.read()
    if fmt == "json":
        return json.loads(text)
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, cell in zip(header, line.split(",")):
            if cell == "":
                row[key] = None
                continue
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return rows


def _run_command(cmd: dict, tag: str, run_dir: str, threads_env: dict, traced: bool,
                 deadline: float) -> dict:
    """Run one command in a child interpreter, check its output, return its record."""
    ext = "csv" if cmd["format"] == "csv" else "json"
    out_path = os.path.join(run_dir, f"{tag}.{ext}")
    report_path = os.path.join(run_dir, f"{tag}.report.json")
    argv = list(cmd["argv"])
    if cmd["state"] is not None:
        state_path = os.path.join(run_dir, f"{cmd['id']}.state.json")
        if not os.path.exists(state_path):
            with open(state_path, "w") as fh:
                json.dump(cmd["state"], fh)
        argv += ["--state", "@" + state_path]
    argv += ["--output", out_path]
    request_path = os.path.join(run_dir, f"{tag}.request.json")
    with open(request_path, "w") as fh:
        json.dump({"src": SRC, "argv": argv, "trace": traced, "report": report_path}, fh)

    record = {"id": cmd["id"], "traced": traced, "status": "failed", "reason": None,
              "exit_code": None, "setup_s": None, "wall_s": None, "cpu_s": None,
              "peak_rss_mb": None, "sha256": None, "widths": [], "check_failed": False}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), request_path],
                              env=threads_env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record["reason"] = f"timed out after {timeout:.0f} s"
        return record
    record["exit_code"] = proc.returncode
    if not os.path.exists(report_path):
        record["reason"] = f"child exited {proc.returncode} without a report: {proc.stderr[-500:]}"
        return record
    with open(report_path) as fh:
        report = json.load(fh)
    os.remove(report_path)
    os.remove(request_path)
    for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        record[key] = report[key]
    record["spans"] = report["spans"]
    if report["crash"]:
        record["reason"] = "crash: " + report["crash"][-500:]
        return record
    # exit 2 is documented non-convergence with bounds still emitted
    if proc.returncode not in (0, 2):
        record["reason"] = f"exit code {proc.returncode}: {proc.stderr[-500:]}"
        return record
    try:
        with open(out_path, "rb") as fh:
            record["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        output = _parse_output(out_path, cmd["format"])
        record["widths"] = [hi - lo for lo, hi in checks.CHECKS[cmd["check"]](output,
                                                                              cmd["params"])]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        record["reason"] = f"unreadable output: {exc!r}"
        record["check_failed"] = True
        return record
    except checks.CheckError as exc:
        record["reason"] = f"check failed: {exc}"
        record["check_failed"] = True
        return record
    record["status"] = "ok" if proc.returncode == 0 else "nonconverged"
    return record


def _probe_setup(run_dir: str, idx: int, env: dict) -> float:
    """Import time of cvres.cli in a fresh interpreter that runs no command."""
    request_path = os.path.join(run_dir, f"probe{idx}.request.json")
    report_path = os.path.join(run_dir, f"probe{idx}.report.json")
    with open(request_path, "w") as fh:
        json.dump({"src": SRC, "argv": None, "trace": False, "report": report_path}, fh)
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), request_path],
                   env=env, check=True, timeout=60)
    with open(report_path) as fh:
        setup_s = json.load(fh)["setup_s"]
    os.remove(request_path)
    os.remove(report_path)
    return setup_s


def _layer_metrics(traced_rounds: list[list[dict]]) -> dict:
    """Per-layer values of each traced round, then the median over rounds."""
    import tracing

    per_round = []
    for records in traced_rounds:
        totals = tracing.aggregate([r["spans"] for r in records if r.get("spans")])
        values = {}
        for name, counters in TRACED.items():
            entry = totals.get(name, {})
            for key in ("calls", "self_s") + counters:
                values[f"{name}.{key}"] = entry.get(key, 0)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(e["self_s"] for n, e in totals.items()
                                            if n.startswith(layer + "."))
        per_round.append(values)
    out = {}
    for key in per_round[0]:
        unit = UNITS[key.rsplit(".", 1)[1]]
        out[key] = {"value": statistics.median(v[key] for v in per_round), "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "cvres", "cli.py")):
        print(f"error: no cvres source tree at {SRC}", file=sys.stderr)
        return 2
    checks.self_test()

    threads = len(os.sched_getaffinity(0))
    commands = workloads.build(args.workload, args.seed, threads)
    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    child_env = dict(os.environ, **BLAS_ENV)
    child_env.pop("PYTHONPATH", None)

    setups = [] if args.trace else [_probe_setup(run_dir, i, child_env)
                                    for i in range(MIN_SETUPS - len(commands))]
    modes = [False, True] if args.trace else [False]
    rounds: dict[bool, list[list[dict]]] = {False: [], True: []}
    while True:
        round_start = time.monotonic()
        for traced in modes:
            idx = len(rounds[traced])
            rounds[traced].append([
                _run_command(cmd, f"r{idx}{'t' if traced else ''}-{cmd['id']}", run_dir,
                             child_env, traced, deadline)
                for cmd in commands
            ])
        now = time.monotonic()
        if now - started >= args.seconds or now + (now - round_start) > deadline:
            break

    records = [r for mode in modes for rnd in rounds[mode] for r in rnd]
    failed = [r for r in records if r["status"] == "failed"]
    untraced = rounds[False]
    round_wall = [sum(r["wall_s"] or 0.0 for r in rnd) for rnd in untraced]
    if args.trace:
        metrics = _layer_metrics(rounds[True])
        traced_wall = [sum(r["wall_s"] or 0.0 for r in rnd) for rnd in rounds[True]]
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_wall) - statistics.median(round_wall), "unit": "s"}
    else:
        setups += [r["setup_s"] for rnd in untraced for r in rnd if r["setup_s"] is not None]
        metrics = {
            "wall_s": {"value": statistics.median(round_wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max((r["peak_rss_mb"] or 0.0) for r in records),
                            "unit": "MB"},
            "interval_width_bits": {
                "value": statistics.median(sum(sum(r["widths"]) for r in rnd) for rnd in untraced),
                "unit": "bits"},
        }

    hashes: dict[str, list[str]] = {}
    for r in records:
        if r["sha256"] and r["sha256"] not in hashes.setdefault(r["id"], []):
            hashes[r["id"]].append(r["sha256"])
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": len(untraced),
        "cores": os.cpu_count(),
        "workers": threads,
        "blas_env": {k: child_env.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nonconverged": sum(r["status"] == "nonconverged" for r in records),
        "failures": [{"id": r["id"], "reason": r["reason"]} for r in failed],
        "output_sha256": hashes,
    }
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump({"context": context, "metrics": metrics,
                   "commands": [{k: v for k, v in r.items() if k != "spans"} for r in records]},
                  fh, indent=1)
    if args.trace:
        spans = [[idx, r["id"]] + span for idx, rnd in enumerate(rounds[True])
                 for r in rnd for span in r.get("spans") or []]
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump({"fields": ["round", "command", "span", "name", "start", "end", "parent",
                                 "thread", "counters"], "spans": spans}, fh)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not any(r["check_failed"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
