import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvres.cli import (BASEL_SELECTORS, FIGURES, SELECTORS, SUBCOMMANDS, _plain_parse,
                       build_parser, main)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(args):
    """main(args) with its output captured here, for tests that cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


FOCK1 = '{"family":"fock","params":{"n":1},"cutoff":20}'

# one valid spec per family, and per parameter the values its kind refuses
VALID_PARAMS = {
    "fock": {"n": 1},
    "coherent": {"alpha": 0.5},
    "thermal": {"nu": 0.5},
    "noisy_fock": {"n": 1, "nu": 0.5, "p": 0.5},
    "cat": {"alpha": 1.0, "sign": "+"},
    "squeezed": {"r": 0.3},
    "basel": {"n_max": 3},
}
NOT_REAL = ["x", "1.5", True, None, [], {}, math.nan, math.inf, -math.inf]
NOT_COUNT = NOT_REAL + [2.5, -1, 1e400]
BAD_VALUES = {
    "n": NOT_COUNT,
    "n_max": NOT_COUNT,
    "nu": NOT_REAL + [-0.5],
    "p": NOT_REAL + [1.5, -0.1],
    "alpha": NOT_REAL + [[1.0], [1.0, 2.0, 3.0], ["a", 1.0], [math.nan, 0.0]],
    "r": NOT_REAL,
    "sign": ["x", "", "+-", 1, None, ["+"]],
}


class TestMonotone:
    def test_fock1_ncm_lower(self, capsys):
        code, out, _ = run_cli(["monotone", "--state", FOCK1, "--which", "ncm-lower"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["quantity"] == "NCM"
        assert doc[0]["value"] == pytest.approx(1.442695, abs=1e-4)

    def test_coherent_interval(self, capsys):
        state = '{"family":"coherent","params":{"alpha":2},"cutoff":40}'
        code, out, _ = run_cli(
            ["monotone", "--state", state, "--which", "ncm-lower,nc-upper"], capsys
        )
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["value"] == 0.0
        assert docs[1]["value"] <= 1e-4

    def test_missing_cutoff_exit_1(self, capsys):
        code, _, err = run_cli(
            ["monotone", "--state", '{"family":"fock","params":{"n":1}}', "--which", "ncm-lower"],
            capsys,
        )
        assert code == 1
        assert "cutoff" in err

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_malformed_spec_exit_1(self, data):
        family = data.draw(st.sampled_from(sorted(VALID_PARAMS)))
        doc = {"family": family, "params": dict(VALID_PARAMS[family]), "cutoff": 40}
        name = data.draw(st.sampled_from(sorted(doc["params"])))
        fault = data.draw(st.sampled_from(["value", "missing", "extra", "modes", "cutoff"]))
        if fault == "value":
            doc["params"][name] = data.draw(st.sampled_from(BAD_VALUES[name]))
        elif fault == "missing":
            del doc["params"][name]
        elif fault == "extra":
            doc["params"]["m"] = 1
        elif fault == "modes":
            doc["modes"] = data.draw(st.sampled_from([2, 0, "1", None]))
        else:
            doc["cutoff"] = data.draw(st.sampled_from([0, -3, 2.5, "40", None, True, math.nan]))
        code, out, err = run_quiet(["monotone", "--state", json.dumps(doc)])
        assert (code, out) == (1, ""), doc
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("doc", [
        {"family": "coherent", "params": {"alpha": 1e200}, "cutoff": 40},
        {"family": "cat", "params": {"alpha": 1e200, "sign": "+"}, "cutoff": 40},
        {"family": "squeezed", "params": {"r": 1000}, "cutoff": 40},
    ], ids=lambda doc: doc["family"])
    def test_overflowing_spec_exit_1(self, doc):
        # valid values whose amplitudes leave the float range: no cutoff holds them
        code, out, err = run_quiet(["monotone", "--state", json.dumps(doc)])
        assert (code, out) == (1, ""), doc
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "no cutoff up to 4096" in err

    def test_basel_cutoff_checked_first(self):
        # the weights of n_max = 20000 reach 2**20000, which str() cannot print
        state = json.dumps({"family": "basel", "params": {"n_max": 20000}, "cutoff": 10})
        start = time.perf_counter()
        code, out, err = run_quiet(["monotone", "--state", state])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "needs cutoff >= 2**20000 + 1, got 10" in err

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_malformed_raw_matrix_exit_1(self, data):
        doc = {"modes": 1, "cutoff": 2, "entries_re": [0.5, 0.0, 0.0, 0.5]}
        fault = data.draw(st.sampled_from(["count", "entry", "im", "modes", "cutoff"]))
        if fault == "count":
            doc["entries_re"] = [0.25] * data.draw(st.sampled_from([0, 1, 3, 5, 8, 16]))
        elif fault in ("entry", "im"):
            entries = [0.5, 0.0, 0.0, 0.5] if fault == "entry" else [0.0] * 4
            entries[data.draw(st.integers(0, 3))] = data.draw(st.sampled_from(
                ["a", "0.5", None, True, [], [0.5, 0.5], math.nan, math.inf]))
            doc["entries_re" if fault == "entry" else "entries_im"] = entries
        else:
            doc[fault] = data.draw(st.sampled_from(["x", "1", 0, -1, 1.5, None, True]))
        code, out, err = run_quiet(["monotone", "--state", json.dumps(doc)])
        assert (code, out) == (1, ""), doc
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("state", ["[1, 2]", "3", '"fock"'])
    def test_non_object_state_exit_1(self, state, capsys):
        code, _, err = run_cli(["monotone", "--state", state], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_selector_exit_1(self, capsys):
        code, _, err = run_cli(["monotone", "--state", FOCK1, "--which", "nonsense"], capsys)
        assert code == 1
        assert "ncm-lower" in err

    @pytest.mark.parametrize("max_iters", ["0", "-3"])
    def test_max_iters_below_one_rejected(self, max_iters, capsys):
        # an ascent of no steps would report its start point with exit 0
        code, out, err = run_cli(["monotone", "--state", FOCK1, "--max-iters", max_iters], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "--max-iters must be at least 1" in err

    def test_nonconvergence_exit_2(self, capsys, monkeypatch):
        # the centred pair wins the lower side here; it reports the program's own verdict
        import dataclasses

        from cvres import nonclassicality as nc

        real = nc.fock_diagonal_ncm

        def failing(state):
            return nc.FockDiagonalResult(
                *(dataclasses.replace(b, converged=False) for b in real(state)))

        monkeypatch.setattr(nc, "fock_diagonal_ncm", failing)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(6, 6))
        mat = g @ g.T
        mat = mat / np.trace(mat)
        doc = json.dumps(
            {
                "modes": 1,
                "cutoff": 6,
                "entries_re": mat.flatten().tolist(),
                "entries_im": np.zeros(36).tolist(),
            }
        )
        code, out, _ = run_cli(
            ["monotone", "--state", doc, "--which", "ncm-lower", "--max-iters", "2"], capsys
        )
        assert code == 2
        assert json.loads(out)[0]["converged"] is False

    def test_raw_matrix_import(self, capsys, tmp_path):
        mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
        doc = {
            "modes": 1,
            "cutoff": 3,
            "entries_re": np.real(mat).flatten().tolist(),
            "entries_im": np.imag(mat).flatten().tolist(),
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["monotone", "--state", f"@{path}", "--which", "energy-upper"], capsys
        )
        assert code == 0
        parsed = json.loads(out)
        # g(1/2) = 1.5 log2(1.5) - 0.5 log2(0.5)
        assert parsed[0]["value"] == pytest.approx(1.5 * math.log2(1.5) + 0.5)

    def test_nats_conversion(self, capsys):
        code, out, _ = run_cli(
            ["monotone", "--state", FOCK1, "--which", "fd-exact", "--nats"], capsys
        )
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["value"] == pytest.approx(1.0, abs=1e-6)  # log2(e) bits = 1 nat
        # the CSV form converts every _bits column, as figure --nats does
        state = '{"family":"noisy_fock","params":{"n":1,"nu":0.5,"p":0.5},"cutoff":18}'
        rows = {}
        for flags in ([], ["--nats"]):
            code, out, _ = run_cli(["monotone", "--state", state, "--which", "fd-exact",
                                    "--format", "csv"] + flags, capsys)
            assert code == 0
            lines = out.strip().split("\n")
            assert lines[0] == "quantity,direction,value_bits,cert_bits,converged"
            rows[bool(flags)] = [[float(x) for x in line.split(",")[2:4]] for line in lines[1:]]
        assert rows[False][0][1] > 0.0
        for bits, nats in zip(rows[False], rows[True]):
            assert nats == pytest.approx([b * math.log(2.0) for b in bits], rel=1e-8)

    def test_basel_routing(self, capsys):
        state = '{"family":"basel","params":{"n_max":10},"cutoff":1025}'
        code, out, _ = run_cli(["monotone", "--state", state, "--which", "ncm-lower"], capsys)
        assert code == 0
        doc = json.loads(out)[0]
        assert doc["quantity"] == "NCM" and doc["value"] >= 0.0
        code, _, err = run_cli(["monotone", "--state", state, "--which", "nc-upper"], capsys)
        assert code == 1
        assert "basel" in err

    @pytest.mark.parametrize("state", [
        '{"family":"cat","params":{"alpha":1,"sign":"+"},"cutoff":30}',
        json.dumps({"modes": 1, "cutoff": 2, "entries_re": [0.5, 0.0, 0.0, 0.5]}),
    ], ids=["cat", "raw"])
    @pytest.mark.parametrize("which", ["gaussian-lower", "gaussian-upper"])
    def test_gaussian_selector_needs_a_gaussian_spec(self, state, which, capsys):
        code, out, err = run_cli(["monotone", "--state", state, "--which", which], capsys)
        assert (code, out) == (1, "")
        assert "coherent, thermal, squeezed" in err and "descriptor" not in err

    def test_fd_exact_off_diagonal_names_the_sandwich(self, capsys):
        coherent = '{"family":"coherent","params":{"alpha":0.5},"cutoff":12}'
        code, out, err = run_cli(["monotone", "--state", coherent, "--which", "fd-exact"], capsys)
        assert (code, out) == (1, "")
        assert "not Fock-diagonal" in err and "--which sandwich" in err
        assert "gamma_lower_bound" not in err

    @pytest.mark.parametrize("which", ["fd-exact", "husimi-lower"])
    def test_multi_mode_raw_names_the_remedy(self, which, capsys):
        raw = json.dumps({"modes": 2, "cutoff": 2, "entries_re": (np.eye(4) / 4).tolist()})
        code, out, err = run_cli(["monotone", "--state", raw, "--which", which], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "not 2 modes" in err and "--which sandwich" in err and "--which energy-upper" in err
        assert not re.search(r"[a-z]+_[a-z_]+", err), err  # no Python name
        for remedy in ("sandwich", "energy-upper"):
            assert run_cli(["monotone", "--state", raw, "--which", remedy], capsys)[0] == 0

    def test_fd_exact_on_deep_basel_names_ncm_lower(self, capsys):
        basel = '{"family":"basel","params":{"n_max":13},"cutoff":8193}'
        code, out, err = run_cli(["monotone", "--state", basel, "--which", "fd-exact"], capsys)
        assert (code, out) == (1, "")
        assert "4096" in err and "--which ncm-lower" in err

    def test_selector_list_computes_the_sandwich_once(self, capsys, monkeypatch):
        from cvres import nonclassicality as nc

        calls = []
        real = nc.bound_sandwich

        def counted(rho, **kw):
            calls.append(kw)
            return real(rho, **kw)

        monkeypatch.setattr(nc, "bound_sandwich", counted)
        cat = '{"family":"cat","params":{"alpha":1.0,"sign":"+"},"cutoff":30}'
        code, halves, _ = run_cli(["monotone", "--state", cat, "--which", "ncm-lower,nc-upper"],
                                  capsys)
        assert code == 0 and len(calls) == 1
        code, whole, _ = run_cli(["monotone", "--state", cat, "--which", "sandwich"], capsys)
        assert code == 0 and len(calls) == 2
        assert json.loads(halves) == json.loads(whole)

    def test_bound_report_round_trip(self, capsys):
        from cvres.nonclassicality import MonotoneBound

        code, out, _ = run_cli(["monotone", "--state", FOCK1, "--which", "ncm-lower"], capsys)
        doc = json.loads(out)[0]
        assert dataclasses.asdict(MonotoneBound(**doc)) == doc


class TestFigure:
    def test_noisy_fock_schema_and_values(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--name", "noisy-fock-fixed-nu", "--nu", "0", "--n-grid", "1",
             "--p-grid", "0.25,0.5", "--cutoff", "12"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,nu,n,lower_bits,upper_bits,cert_bits"
        row = lines[2].split(",")
        expected = 0.5 * math.log2(math.e) + 0.5 * math.log2(0.5)
        assert float(row[3]) == pytest.approx(expected, abs=1e-5)
        assert float(row[4]) == pytest.approx(expected, abs=1e-5)

    def test_unconverged_row_exit_2(self, capsys, monkeypatch):
        from cvres import nonclassicality as nc

        def unconverged(rho):
            cert = {"truncation_correction_bits": 0.0}
            lower = nc.MonotoneBound("NCM", "lower", 0.1, cert, converged=False)
            upper = nc.MonotoneBound("NC", "upper", 0.2, cert, converged=False)
            return nc.FockDiagonalResult(lower, upper)

        monkeypatch.setattr(nc, "fock_diagonal_ncm", unconverged)
        code, out, _ = run_cli(
            ["figure", "--name", "noisy-fock-fixed-n", "--n", "2", "--nu-grid", "2",
             "--p-grid", "0.1"],
            capsys,
        )
        assert code == 2
        assert out.strip().split("\n")[1].split(",")[3:5] == ["0.1", "0.2"]

    def test_long_tail_noisy_fock_row_exits_0(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--name", "noisy-fock-fixed-n", "--n", "2", "--nu-grid", "2",
             "--p-grid", "0.1"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[4]) - float(row[3]) <= 2 * float(row[5]) + 2e-7

    def test_figure_row_matches_monotone_fd_exact(self, capsys):
        # both commands run the same Fock-diagonal program, whatever the ascent settings
        state = '{"family":"noisy_fock","params":{"n":2,"nu":2,"p":0.1},"cutoff":60}'
        m_code, m_out, _ = run_cli(
            ["monotone", "--state", state, "--which", "fd-exact", "--format", "csv"], capsys)
        f_code, f_out, _ = run_cli(
            ["figure", "--name", "noisy-fock-fixed-n", "--n", "2", "--nu-grid", "2",
             "--p-grid", "0.1", "--cutoff", "60"],
            capsys,
        )
        assert m_code == f_code
        monotone_values = [line.split(",")[2] for line in m_out.strip().split("\n")[1:]]
        assert f_out.strip().split("\n")[1].split(",")[3:5] == monotone_values

    @pytest.mark.parametrize("task, code", [("amplify", 0), ("dilute", 2)])
    def test_protocol_row_reads_only_its_own_flags(self, task, code, capsys, monkeypatch):
        # only the odd cat's lower bound is unconverged, and only the dilution target reads it
        from cvres import nonclassicality as nc
        from cvres import rates

        def interval(alpha, sign, cutoff):
            return (nc.MonotoneBound("NCM", "lower", 1.0, converged=sign == "+"),
                    nc.MonotoneBound("NC", "upper", 2.0))

        monkeypatch.setattr(rates, "cat_interval", interval)
        got, out, _ = run_cli(
            ["figure", "--name", "protocols", "--alpha-grid", "0.3", "--task", task], capsys
        )
        assert got == code
        assert float(out.strip().split("\n")[1].split(",")[3]) == pytest.approx(
            2.0 if task == "amplify" else 1.0)

    @pytest.mark.parametrize("argv", [
        ["--name", "cat", "--alpha-grid", "0.3,x"],
        ["--name", "cat", "--alpha-grid", "1:2"],
        ["--name", "cat", "--alpha-grid", "1:2:x"],
        ["--name", "cat", "--alpha-grid", "0.3,nan"],
        ["--name", "squeezed", "--r-grid", "0.1,,0.2"],
        ["--name", "noisy-fock-fixed-n", "--p-grid", "0:1:0"],
        ["--name", "cat", "--alpha-grid", "0.3:1:-2"],
        ["--name", "noisy-fock-fixed-nu", "--n-grid", "1.5", "--cutoff", "10"],
    ])
    def test_malformed_grid_exit_1(self, argv, capsys):
        code, out, err = run_cli(["figure", *argv], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_unknown_name_lists_valid(self, capsys):
        code, _, err = run_cli(["figure", "--name", "bogus"], capsys)
        assert code == 1
        assert "noisy-fock-fixed-n" in err and "protocols" in err

    def test_determinism_byte_identical(self, capsys, tmp_path):
        args = ["figure", "--name", "squeezed", "--r-grid", "0.25,0.5", "--cutoff", "40"]
        paths = []
        for i in range(2):
            p = tmp_path / f"out{i}.csv"
            code = main(args + ["--output", str(p)])
            assert code == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
        assert paths[0].decode().splitlines()[0] == (
            "r,lower_bits,upper_thermal_bits,upper_sq_thermal_bits,upper_energy_bits"
        )
        assert b"\r" not in paths[0]

    def test_squeezed_r1_row(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--name", "squeezed", "--r-grid", "1.0", "--cutoff", "60"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(math.log2(math.cosh(1.0)), abs=1e-4)
        assert float(row[4]) == pytest.approx(2.337, abs=2e-3)

    def test_squeezed_default_cutoff_grows_at_large_r(self, capsys):
        # 40 + 50 r^2 = 240 misses the deficit tolerance at r = 2; the row is built at 360
        code, out, _ = run_cli(["figure", "--name", "squeezed", "--r-grid", "2.0"], capsys)
        assert code == 0
        row = [float(v) for v in out.strip().split("\n")[1].split(",")]
        assert row[1] == pytest.approx(math.log2(math.cosh(2.0)), abs=1e-4)
        assert row[1] <= min(row[2:])

    def test_squeezed_given_cutoff_stays_strict(self, capsys):
        code, out, err = run_cli(["figure", "--name", "squeezed", "--r-grid", "2.0",
                                  "--cutoff", "240"], capsys)
        assert (code, out) == (1, "")
        assert "use cutoff >= 360" in err

    def test_cat_schema(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--name", "cat", "--alpha-grid", "1.0", "--sign", "+",
             "--cutoff", "30"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,sign,lower_bits,upper_bits"
        row = lines[1].split(",")
        assert float(row[2]) <= float(row[3])

    def test_vacuum_cat_row(self, capsys):
        # the even cat at alpha = 0 is the vacuum: no bound may fall below 0
        code, out, _ = run_cli(["figure", "--name", "cat", "--alpha-grid", "0", "--sign", "+"],
                               capsys)
        assert code == 0
        assert out.strip().split("\n") == ["alpha,sign,lower_bits,upper_bits", "0,+,0,0"]

    def test_cat_unconverged_exit_2(self, capsys, monkeypatch):
        # the even cat's search reports Brent's own verdict on its bracket
        from cvres import nonclassicality as nc
        from cvres import rates

        real = nc.bounded_minimum

        def failing(*args, **kwargs):
            x, value, _ = real(*args, **kwargs)
            return x, value, False

        monkeypatch.setattr(nc, "bounded_minimum", failing)
        monkeypatch.setattr(rates, "cat_interval", rates.cat_interval.__wrapped__)
        code, out, _ = run_cli(
            ["figure", "--name", "cat", "--alpha-grid", "0.3", "--sign", "+", "--cutoff", "30"],
            capsys,
        )
        assert code == 2
        assert out.strip().split("\n")[0] == "alpha,sign,lower_bits,upper_bits"

    def test_threads_flag(self, capsys):
        # still parsed so existing command lines run; rows are serial either way
        args = ["figure", "--name", "squeezed", "--r-grid", "0.25"]
        code, serial, _ = run_cli(args, capsys)
        assert code == 0
        assert run_cli(args + ["--threads", "2"], capsys) == (0, serial, "")

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, threads, capsys):
        code, _, err = run_cli(["figure", "--name", "squeezed", "--r-grid", "0.25",
                                "--threads", threads], capsys)
        assert code == 1
        assert "--threads must be at least 1" in err

    @pytest.mark.parametrize("name, cutoff", [("squeezed", "0"), ("cat", "0"),
                                              ("noisy-fock-fixed-n", "-3")])
    def test_cutoff_below_one_rejected(self, name, cutoff, capsys):
        # 0 is not "not given": it would fall back to the default cutoff and exit 0
        code, out, err = run_cli(["figure", "--name", name, "--cutoff", cutoff], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "--cutoff must be at least 1" in err

    def test_threads_flag_matches_serial(self, tmp_path):
        args = ["figure", "--name", "noisy-fock-fixed-nu", "--nu", "0", "--n-grid", "1",
                "--p-grid", "0.2,0.4,0.6", "--cutoff", "10"]
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert main(args + ["--output", str(serial), "--threads", "1"]) == 0
        assert main(args + ["--output", str(threaded), "--threads", "4"]) == 0
        assert serial.read_bytes() == threaded.read_bytes()


@pytest.mark.slow
class TestProtocolFigure:
    def test_schema_and_soundness(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--name", "protocols", "--alpha-grid", "0.8", "--task", "dilute"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,task,lower_rate,upper_rate"
        _, task, lower, upper = lines[1].split(",")
        assert task == "dilute"
        assert float(upper) >= float(lower) > 0

    def test_each_cat_bound_once(self, tmp_path, monkeypatch):
        # (0.3, +) and (0.3 sqrt2, +) serve both tasks; with (0.3, -) that is 3 bounds, not 5
        from cvres import nonclassicality as nc
        from cvres import rates

        calls = []
        real = nc.cat_gamma_lower_bound

        def counted(rho):
            calls.append((rho.spec.params["alpha"], rho.spec.params["sign"], rho.cutoff))
            return real(rho)

        monkeypatch.setattr(nc, "cat_gamma_lower_bound", counted)
        args = ["figure", "--name", "protocols", "--alpha-grid", "0.3"]
        cached, uncached = tmp_path / "cached.csv", tmp_path / "uncached.csv"
        rates.cat_interval.cache_clear()
        assert main(args + ["--output", str(cached)]) == 0
        assert len(calls) == len(set(calls)) == 3
        monkeypatch.setattr(rates, "cat_interval", rates.cat_interval.__wrapped__)
        assert main(args + ["--output", str(uncached)]) == 0
        assert len(calls) == 3 + 5
        assert cached.read_bytes() == uncached.read_bytes()


class TestProtocolCmd:
    def test_cat_dilute(self, capsys):
        code, out, _ = run_cli(["protocol", "--task", "cat-dilute", "--alpha", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rate_lower_bound"] == pytest.approx(0.183550, abs=1e-6)
        assert doc["branch_plus"] + doc["branch_minus"] == pytest.approx(1.0, abs=1e-9)

    def test_fock_dilution(self, capsys):
        code, out, _ = run_cli(
            ["protocol", "--task", "fock-dilution", "--n", "2", "--p", "1", "--lam", "0.5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["success_probability"] == pytest.approx(2 / 3, abs=1e-10)

    def test_cat_amplify_csv(self, capsys):
        code, out, _ = run_cli(
            ["protocol", "--task", "cat-amplify", "--alpha", "1", "--format", "csv"], capsys
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["ours.success_probability"]) == pytest.approx(0.290013, abs=1e-6)

    def test_long_fock_dilution(self, capsys):
        # lam^60 is below an ulp of 1, where the printed closed form divided by 0
        code, out, err = run_cli(
            ["protocol", "--task", "fock-dilution", "--n", "60", "--lam", "0.5"], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["closed_form"] == pytest.approx(doc["success_probability"], rel=1e-12)

    @pytest.mark.parametrize("alpha,expected", [("1e-8", 0), ("1e-300", 1)])
    @pytest.mark.parametrize("argv", [["protocol", "--task", "cat-amplify", "--alpha"],
                                      ["figure", "--name", "protocols", "--alpha-grid"]])
    def test_tiny_cat_alpha(self, argv, alpha, expected, capsys):
        # 1 - sech(2 alpha^2) read 0 at alpha = 1e-8; at 1e-300 the target cat is the vacuum
        code, out, err = run_cli(argv + [alpha], capsys)
        assert code == expected
        if expected:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        else:
            assert err == ""

    @pytest.mark.parametrize("task", ["cat-amplify", "cat-dilute"])
    def test_alpha_19_runs(self, task, capsys):
        # cosh(2 alpha^2) overflows here, yet the cutoff this cat needs, 2896, is valid
        code, out, err = run_cli(["protocol", "--task", task, "--alpha", "19"], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        if task == "cat-amplify":
            pairs = [(doc[v]["success_probability"], doc[v]["closed_form"])
                     for v in ("ours", "lund")]
        else:
            pairs = [(doc["rate_lower_bound"], doc["closed_form_rate"])]
        for simulated, closed_form in pairs:
            assert simulated == pytest.approx(closed_form, abs=1e-9)


class TestCertify:
    def test_hand_value(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--epsilon", "0.1", "--energy", "1", "--modes", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate_bits"] == pytest.approx(1.063457, abs=1e-6)

    @pytest.mark.parametrize("epsilon, energy", [("1e-300", "1e10"), ("0.5", "1e306")])
    def test_extreme_inputs_certificate_finite(self, epsilon, energy, capsys):
        # 2E/eps overflows in the first, and g(2E/eps) = inf - inf in the second
        code, out, _ = run_cli(["certify", "--epsilon", epsilon, "--energy", energy], capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["certificate_bits"]) and "NaN" not in out

    def test_zero_eps(self, capsys):
        code, out, _ = run_cli(["certify", "--epsilon", "0", "--energy", "1"], capsys)
        assert code == 0
        assert json.loads(out)["certificate_bits"] == 0.0

    def test_with_state_interval(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--epsilon", "0.01", "--energy", "1", "--state", FOCK1], capsys
        )
        assert code == 0
        doc = json.loads(out)
        lo, hi = doc["corrected_interval"]
        assert lo <= math.log2(math.e) <= hi

    def test_unconverged_interval_exit_2(self, capsys, monkeypatch):
        from cvres import nonclassicality as nc

        def unconverged(rho, *, max_iters=300):
            return (nc.MonotoneBound("NCM", "lower", 1.0, converged=False),
                    nc.MonotoneBound("NC", "upper", 2.0))

        monkeypatch.setattr(nc, "bound_sandwich", unconverged)
        code, out, _ = run_cli(
            ["certify", "--epsilon", "0.01", "--energy", "1", "--state", FOCK1], capsys
        )
        assert code == 2
        lo, hi = json.loads(out)["corrected_interval"]
        assert lo < 1.0 < 2.0 < hi  # still emitted, widened by the certificate

    @pytest.mark.parametrize("energy", ["nan", "inf", "-1"])
    def test_non_finite_energy_exit_1(self, energy, capsys):
        code, out, err = run_cli(["certify", "--epsilon", "0.1", "--energy", energy], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["--epsilon", "abc", "--energy", "1"],
        ["--epsilon", "0.1", "--energy", "x"],
        ["--epsilon", "0.1", "--energy", "1", "--modes", "x"],
        ["--epsilon", "0.1", "--energy", "1", "--modes", "1.5"],
    ])
    def test_typed_numbers(self, argv, capsys):
        code, out, err = run_cli(["certify", *argv], capsys)
        assert (code, out) == (1, "")
        assert "invalid" in err

    def test_csv_with_state_flattens_interval(self, capsys):
        argv = ["certify", "--epsilon", "0.01", "--energy", "1", "--state",
                '{"family":"fock","params":{"n":1},"cutoff":5}']
        code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        header, row = list(csv.reader(out.splitlines()))
        assert header[-2:] == ["corrected_interval.0", "corrected_interval.1"]
        assert len(row) == len(header)
        code, out, _ = run_cli(argv, capsys)
        assert row[-2:] == [format(v, ".9g") for v in json.loads(out)["corrected_interval"]]

    def test_float_formatting_nine_digits(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--epsilon", "0.1", "--energy", "1", "--format", "csv"], capsys
        )
        assert code == 0
        value = out.strip().split("\n")[1].split(",")[-1]
        assert value == "1.06345708"  # %.9g


@pytest.mark.parametrize("argv", [
    ["monotone", "--state", FOCK1, "--which", "fd-exact,energy-upper"],
    ["figure", "--name", "noisy-fock-fixed-n", "--p-grid", "0.5", "--nu-grid", "0,1"],
    ["figure", "--name", "noisy-fock-fixed-nu", "--p-grid", "0.5", "--n-grid", "1,2"],
    ["figure", "--name", "cat", "--alpha-grid", "0.8"],
    ["figure", "--name", "squeezed", "--r-grid", "0.3,0.9"],
    ["figure", "--name", "protocols", "--alpha-grid", "0.5"],
    ["protocol", "--task", "fock-dilution"],
    ["protocol", "--task", "cat-amplify"],
    ["protocol", "--task", "cat-dilute"],
    ["certify", "--epsilon", "0.01", "--energy", "1"],
    ["certify", "--epsilon", "0.01", "--energy", "1", "--state", FOCK1],
], ids=lambda argv: " ".join(argv[:3]) + (" --state" if "--state" in argv[3:] else ""))
def test_csv_outputs_are_well_formed(argv, capsys):
    # every CSV row has the header's field count, and every cell is one formatted scalar
    if argv[0] != "figure":
        argv = argv + ["--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, *rows = list(csv.reader(out.splitlines()))
    assert rows and all(len(row) == len(header) for row in rows)
    assert not [cell for row in rows for cell in row if any(t in cell for t in "[(") or "np." in cell]


@pytest.mark.parametrize("argv", [
    ["monotone", "--state", FOCK1, "--threads", "2"],
    ["protocol", "--task", "cat-amplify", "--nats"],
    ["certify", "--epsilon", "0.1", "--energy", "1", "--threads", "2"],
    ["figure", "--name", "squeezed", "--format", "json"],
])
def test_unread_flags_rejected(argv, capsys):
    # each command registers only the flags it reads
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "unrecognized arguments" in err


# per add_argument type, values the plain reader takes and values it must leave to argparse
PLAIN_VALUES = {int: ["3", "0", "12", " 7"], float: ["0.5", "1e-3", "2", "nan", "inf"],
                str: ["0.3,0.5", "@state.json", "", "a b", FOCK1, "figure"]}
DECLINED_VALUES = {int: ["x", "1.5", "1e3", "", "-1"], float: ["x", "", "1,2", "-1", "-0.5"],
                   str: ["-1", "--output", "-"]}


@st.composite
def table_argv(draw):
    """A command line built from one subcommand's option table, and whether it is plain."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    options = SUBCOMMANDS[name][1]
    required = [flag for flag, kw in options.items() if kw.get("required")]
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=5, unique=draw(st.booleans())))
    if draw(st.integers(0, 4)):  # most draws name every required flag
        flags = draw(st.permutations(required + [f for f in flags if f not in required]))
    argv, plain = [name], set(required) <= set(flags) and len(set(flags)) == len(flags)
    for flag in flags:
        kw = options[flag]
        if "choices" in kw:
            good, bad = [str(c) for c in kw["choices"] if not str(c).startswith("-")], ["bogus", "-"]
        elif kw.get("action") == "store_true":
            good, bad = [None], ["x"]
        else:
            good, bad = PLAIN_VALUES[kw.get("type", str)], DECLINED_VALUES[kw.get("type", str)]
        value = draw(st.sampled_from(good))
        form = draw(st.sampled_from(["plain"] * 20 + ["bad", "equals", "prefix", "help", "sep",
                                                       "unknown", "no-value"]))
        if form == "bad":
            value = draw(st.sampled_from(bad))
        tokens = [flag] + ([] if value is None else [value])
        if form == "equals" and value is not None:
            tokens = [f"{flag}={value}"]
        elif form == "no-value":
            tokens = [flag]
        elif form == "prefix":
            tokens[0] = flag[:-1]
        elif form in ("help", "sep", "unknown"):
            tokens.insert(draw(st.integers(0, len(tokens))),
                          {"help": "-h", "sep": "--", "unknown": "--bogus"}[form])
        argv += tokens
        plain = plain and (form == "plain" or form in ("equals", "no-value") and value is None)
    return argv, plain


@settings(max_examples=400, deadline=None, derandomize=True)
@given(drawn=table_argv())
def test_plain_reader_agrees_with_argparse(drawn):
    # the plain reader takes every plain command line and returns argparse's own namespace
    argv, plain = drawn
    args = _plain_parse(argv)
    assert args is not None or not plain, argv
    if any(argv.count(flag) > 1 for flag in SUBCOMMANDS[argv[0]][1]):
        assert args is None, argv  # argparse would take the last, but a repeat is not plain
    if args is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                expected = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"plain reader took {argv}, argparse refused it: {err.getvalue()}")
        # by repr, so that nan reads as itself and 1 differs from 1.0 and True
        assert {k: (type(v), repr(v)) for k, v in vars(args).items()} == {
            k: (type(v), repr(v)) for k, v in vars(expected).items()}, argv


def test_plain_command_line_leaves_locale_out(tmp_path):
    # argparse's first gettext call imports locale; a plain command line never builds a parser
    import cvres

    src = os.path.dirname(os.path.dirname(os.path.abspath(cvres.__file__)))
    argv = ["protocol", "--task", "fock-dilution", "--n", "3", "--p", "1",
            "--output", str(tmp_path / "out.json")]
    code = ("import sys, cvres.cli\n"
            f"print(cvres.cli.main({argv!r}), 'locale' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True).stdout
    assert out.split() == ["0", "False"]
    assert json.loads((tmp_path / "out.json").read_text())["task"] == "fock-dilution"


@pytest.mark.parametrize("argv, same_as", [
    (["figure", "--alpha-g", "0.3", "--name", "cat"],
     ["figure", "--alpha-grid", "0.3", "--name", "cat"]),
    (["protocol", "--task", "fock-dilution", "--lam=0.4"],
     ["protocol", "--task", "fock-dilution", "--lam", "0.4"]),
])
def test_argparse_forms_still_read(argv, same_as, capsys):
    # an abbreviation or an = form goes to argparse, which reads it as the plain line
    assert _plain_parse(argv) is None and _plain_parse(same_as) is not None
    assert run_cli(argv, capsys) == run_cli(same_as, capsys)


def test_negative_value_reaches_the_handler(capsys):
    # argparse reads -1 as the grid, so the handler, not the parser, refuses it
    argv = ["figure", "--name", "noisy-fock-fixed-n", "--nu-grid", "-1", "--p-grid", "0.5"]
    assert _plain_parse(argv) is None
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: noisy_fock nu must be a finite real number >= 0, got -1.0\n"


@pytest.mark.parametrize("argv", [["--help"], ["figure", "--help"], ["nonsense"]])
def test_help_and_unknown_commands(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    if argv == ["nonsense"]:
        assert code == 1 and "invalid choice" in err
    else:
        assert code == 0 and out.startswith("usage: cvres")


@pytest.mark.parametrize("argv", [
    *(["protocol", "--task", task, "--alpha", alpha]
      for task in ("cat-amplify", "cat-dilute") for alpha in ("nan", "inf", "1e6")),
    *(["figure", "--name", name, "--alpha-grid", "1e6"] for name in ("cat", "protocols")),
], ids=" ".join)
def test_unworkable_cat_alpha_exit_1(argv, capsys):
    # no cutoff below 4096 holds such a cat: a usage error, before any matrix is allocated
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_name_lists_read_their_tables(capsys):
    # help and unknown-name errors list the dispatch tables' keys, in table order, so a
    # selector or figure cannot be added in one place only
    def text(argv):
        _, out, err = run_cli(argv, capsys)
        return " ".join((out + err).split())

    assert ("comma list from: " + ", ".join(SELECTORS) + " --max-iters"
            in text(["monotone", "--help"]))
    assert text(["monotone", "--state", FOCK1, "--which", "nonsense"]).endswith(
        "valid: " + ", ".join(SELECTORS))
    assert "--name NAME one of: " + ", ".join(FIGURES) + " --cutoff" in text(["figure", "--help"])
    assert text(["figure", "--name", "nonsense"]).endswith("valid names: " + ", ".join(FIGURES))
    basel = '{"family":"basel","params":{"n_max":3},"cutoff":9}'
    assert text(["monotone", "--state", basel, "--which", "sandwich"]).endswith(
        "use " + " or ".join(BASEL_SELECTORS))
    assert set(BASEL_SELECTORS) <= set(SELECTORS)


def test_wehrl_selector_is_gone(capsys):
    # the Wehrl quadrature is an uncertified estimate: its old selector is an unknown name
    code, out, err = run_cli(["monotone", "--state", FOCK1, "--which", "wehrl-upper"], capsys)
    assert (code, out) == (1, "")
    assert err.strip().endswith("valid: " + ", ".join(SELECTORS))


def test_no_import_inside_a_function():
    # a call-time import compiles its module inside the command that first runs it
    import cvres

    found = []
    for path in sorted(pathlib.Path(cvres.__file__).parent.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


# public names that no package module reaches, each with why it stays; the set may only shrink
UNREACHED_SURFACE = {
    "partial_trace": "multi-mode marginals (ROADMAP item 16)",
    "measured_relative_entropy": "measured-entropy lower bound (ROADMAP item 12)",
    "free_energy": "thermodynamic monotone (ROADMAP item 15)",
    "thermo_rate_bound": "thermodynamic rate bound (ROADMAP item 15)",
    "noisy_fock_dilution_rate_bound": "noisy Fock purification rate (ROADMAP item 6)",
    "dephase": "the remedy the fd-exact error names for library callers",
    "StateSpec.to_json": "the spec serialisation the README documents",
    "fock_state": "only tests reach it",
    "vacuum_state": "only tests reach it",
    "pure_state": "only tests reach it",
    "DensityOperator.purity": "only tests reach it",
    "noisy_fock_closed_form": "only tests reach it",
    "ConfigurationError": "only tests reach it",
}


def test_public_surface_is_reached_by_the_package():
    # every public module-level function and class, and every public method, is named (as
    # a Name or an Attribute) by some package module other than __init__.py, or is pinned
    import cvres

    defined, named = [], set()
    for path in sorted(pathlib.Path(cvres.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append(node.name)
                if isinstance(node, ast.ClassDef):
                    defined += [f"{node.name}.{m.name}" for m in node.body
                                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
        if path.name != "__init__.py":
            named |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unreached = {name for name in defined if name.split(".")[-1] not in named}
    assert unreached <= set(UNREACHED_SURFACE), sorted(unreached - set(UNREACHED_SURFACE))


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency: importing the CLI and certifying one
    # supremum must load no scipy module, nor numpy.ma (which np.unique pulls in), nor
    # fractions and decimal, which cost about 2 ms of import, nor numpy.polynomial
    # (about 2 ms), which only the Wehrl quadrature of the test oracles uses
    import cvres

    src = os.path.dirname(os.path.dirname(os.path.abspath(cvres.__file__)))
    code = ("import sys, numpy as np, cvres.cli\n"
            "from cvres.nonclassicality import coherent_sup_certified\n"
            "coherent_sup_certified(np.diag([0.0, 1.0]))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy' or m in ('numpy.ma', 'fractions', 'decimal')\n"
            "             or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True).stdout
    assert out.strip() == "[]"


def test_oracle_names_are_not_public():
    # functions that only tests read live in tests/oracles.py, not in the package, and the
    # covariance-matrix layer is gone: the Gaussian bounds read the spec's closed forms
    import cvres
    from cvres import entropies, fock_core, nonclassicality, states

    moved = ["husimi_q", "kl_divergence", "relative_entropy", "QuadratureGrid",
             "phase_space_tail_bits", "default_quadrature_grid", "WehrlEstimate",
             "wehrl_entropy", "tensor_states", "trace_distance", "wehrl_upper_bound",
             "GaussianDescriptor", "gaussian_descriptor", "_gaussian_entropy_bits"]
    modules = (cvres, entropies, fock_core, nonclassicality, states)
    assert [(m.__name__, n) for m in modules for n in moved if hasattr(m, n)] == []
