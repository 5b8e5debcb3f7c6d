import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvres.cli import main


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

    def test_nonconvergence_exit_2(self, capsys):
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

    def test_basel_routing(self, capsys):
        state = '{"family":"basel","params":{"n_max":10},"cutoff":1025}'
        code, out, _ = run_cli(["monotone", "--state", state, "--which", "ncm-lower"], capsys)
        assert code == 0
        doc = json.loads(out)[0]
        assert doc["quantity"] == "NCM" and doc["value"] >= 0.0
        code, _, err = run_cli(["monotone", "--state", state, "--which", "nc-upper"], capsys)
        assert code == 1
        assert "basel" in err

    def test_bound_report_round_trip(self, capsys):
        from cvres.nonclassicality import MonotoneBound

        code, out, _ = run_cli(["monotone", "--state", FOCK1, "--which", "ncm-lower"], capsys)
        doc = json.loads(out)[0]
        bound = MonotoneBound.from_json(json.dumps(doc))
        assert bound.value == doc["value"]


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

    def test_cat_unconverged_exit_2(self, capsys, monkeypatch):
        # the even cat's search reports Nelder-Mead's own verdict
        from cvres import nonclassicality as nc
        from cvres import rates

        real = nc.minimize

        def failing(*args, **kwargs):
            res = real(*args, **kwargs)
            res.success = False
            return res

        monkeypatch.setattr(nc, "minimize", failing)
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

        def unconverged(rho, cfg=None):
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

    def test_float_formatting_nine_digits(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--epsilon", "0.1", "--energy", "1", "--format", "csv"], capsys
        )
        assert code == 0
        value = out.strip().split("\n")[1].split(",")[-1]
        assert value == "1.06345708"  # %.9g


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
