import json
import math

import numpy as np
import pytest

from cvres.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FOCK1 = '{"family":"fock","params":{"n":1},"cutoff":20}'


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

        def unconverged(rho, cfg=None, *, energy=None, tol_bits=1e-7):
            cert = {"truncation_correction_bits": 0.0}
            lower = nc.MonotoneBound("NCM", "lower", 0.1, cert, converged=False)
            upper = nc.MonotoneBound("NC", "upper", 0.2, cert, converged=False)
            return nc.FockDiagonalResult(lower, upper, 0.15, 0.1)

        monkeypatch.setattr(nc, "fock_diagonal_ncm", unconverged)
        code, out, _ = run_cli(
            ["figure", "--name", "noisy-fock-fixed-n", "--n", "2", "--nu-grid", "2",
             "--p-grid", "0.1"],
            capsys,
        )
        assert code == 2
        assert out.strip().split("\n")[1].split(",")[3:5] == ["0.1", "0.2"]

    @pytest.mark.parametrize("task, code", [("amplify", 0), ("dilute", 2)])
    def test_protocol_row_reads_only_its_own_flags(self, task, code, capsys, monkeypatch):
        # only the odd cat's lower bound is unconverged, and only the dilution target reads it
        from cvres import nonclassicality as nc
        from cvres import rates

        def interval(alpha, sign, cutoff, cfg):
            return (nc.MonotoneBound("NCM", "lower", 1.0, converged=sign == "+"),
                    nc.MonotoneBound("NC", "upper", 2.0))

        monkeypatch.setattr(rates, "_cat_interval", interval)
        got, out, _ = run_cli(
            ["figure", "--name", "protocols", "--alpha-grid", "0.3", "--task", task], capsys
        )
        assert got == code
        assert float(out.strip().split("\n")[1].split(",")[3]) == pytest.approx(
            2.0 if task == "amplify" else 1.0)

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

    def test_threads_env_var(self, monkeypatch):
        import argparse

        from cvres.cli import THREADS_ENV, _thread_count

        monkeypatch.setenv(THREADS_ENV, "3")
        assert _thread_count(argparse.Namespace(threads=None)) == 3
        assert _thread_count(argparse.Namespace(threads=2)) == 2

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

        def counted(alpha, sign, cutoff):
            calls.append((alpha, sign, cutoff))
            return real(alpha, sign, cutoff)

        monkeypatch.setattr(nc, "cat_gamma_lower_bound", counted)
        args = ["figure", "--name", "protocols", "--alpha-grid", "0.3"]
        cached, uncached = tmp_path / "cached.csv", tmp_path / "uncached.csv"
        rates._cat_interval.cache_clear()
        assert main(args + ["--output", str(cached)]) == 0
        assert len(calls) == len(set(calls)) == 3
        monkeypatch.setattr(rates, "_cat_interval", rates._cat_interval.__wrapped__)
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

        def unconverged(rho, cfg=None, *, spec=None, include_generic=None):
            return (nc.MonotoneBound("NCM", "lower", 1.0, converged=False),
                    nc.MonotoneBound("NC", "upper", 2.0))

        monkeypatch.setattr(nc, "bound_sandwich", unconverged)
        code, out, _ = run_cli(
            ["certify", "--epsilon", "0.01", "--energy", "1", "--state", FOCK1], capsys
        )
        assert code == 2
        lo, hi = json.loads(out)["corrected_interval"]
        assert lo < 1.0 < 2.0 < hi  # still emitted, widened by the certificate

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
