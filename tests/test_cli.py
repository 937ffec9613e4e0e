import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import epkit
from epkit.cli import main
from epkit.errors import MatrixFileError
from epkit.serialize import (
    matrix_from_payload,
    matrix_to_payload,
    parse_matrix_text,
    parse_report,
    render_report,
    report_payload,
    write_matrix_file,
)
from epkit.classify import ClassificationReport, classify


@pytest.fixture
def nilpotent_file(tmp_path):
    path = tmp_path / "nilpotent.json"
    write_matrix_file(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
    return path


@pytest.fixture
def hermitian_file(tmp_path):
    path = tmp_path / "diag.json"
    write_matrix_file(path, np.diag([1.0, 0.0]))
    return path


class TestClassifyCommand:
    def test_ep_diagonal(self, hermitian_file, capsys):
        assert main(["classify", "--input", str(hermitian_file)]) == 0
        doc = parse_report(capsys.readouterr().out)
        assert doc["payload_kind"] == "classification"
        assert doc["payload"]["is_ep"] is True

    def test_nilpotent_values(self, nilpotent_file, capsys):
        assert main(["classify", "--input", str(nilpotent_file)]) == 0
        payload = parse_report(capsys.readouterr().out)["payload"]
        assert payload["is_ep"] is False
        assert payload["gamma"] == pytest.approx(1.0)
        assert payload["spectral_radius"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_json_exits_2_without_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "report.json"
        assert main(["classify", "--input", str(bad), "--output", str(out)]) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_non_square_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rect.json"
        write_matrix_file(path, np.ones((2, 3)))
        assert main(["classify", "--input", str(path)]) == 2

    def test_output_file(self, hermitian_file, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["classify", "--input", str(hermitian_file), "--output", str(out)]) == 0
        assert parse_report(out.read_text())["payload"]["rank"] == 1

    def test_unwritable_output_exits_2(self, hermitian_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "rep.json"
        assert main(["classify", "--input", str(hermitian_file), "--output", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_past_the_cap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        write_matrix_file(path, np.ones((300, 300)))
        assert main(["classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "epkit: error: matrix of shape (300, 300) exceeds the 256x256 cap\n"
        )


    def test_overflowing_sigma_1_exits_2_with_an_epkit_message(self, tmp_path, capsys):
        # Finite entries, but sigma_1 overflows: no zero-operator report.
        path = tmp_path / "huge.json"
        write_matrix_file(path, 1.5e308 * np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
        assert main(["classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "epkit: error: SVD gave a non-finite sigma_1 for shape (3, 3)\n"

    def test_entries_near_1e200_exit_0(self, tmp_path, capsys):
        # Normality is decided at unit scale, so no product overflows.
        path = tmp_path / "big.json"
        m = np.array([[1e200, 2e200, 0.0], [0.0, 1e200, 3e200], [1e200, 0.0, 1e200]])
        write_matrix_file(path, m)
        assert main(["classify", "--input", str(path)]) == 0
        payload = parse_report(capsys.readouterr().out)["payload"]
        assert payload["rank"] == 3 and payload["is_ep"] is True
        assert payload["is_normal"] is False
        assert payload["spectral_radius"] == pytest.approx(
            np.abs(np.linalg.eigvals(m)).max(), rel=1e-13
        )


class TestVerifyCommand:
    def test_positional_theorem_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify", "thm2.1", "--dim", "6", "--rank", "4",
                     "--trials", "20", "--seed", "42", "--output", str(out)])
        assert code == 0
        payload = parse_report(out.read_text())["payload"]
        assert payload["failures"] == 0
        assert payload["trials"] == 20

    def test_theorem_flag_is_not_an_alias(self, capsys):
        assert main(["verify", "thm2.1", "--theorem", "thm2.4"]) == 2
        assert "unrecognized arguments: --theorem thm2.4" in capsys.readouterr().err

    def test_unknown_theorem_exits_2(self, capsys):
        assert main(["verify", "thm9.9"]) == 2
        assert "unknown theorem" in capsys.readouterr().err

    def test_missing_theorem_exits_2(self, capsys):
        assert main(["verify"]) == 2
        capsys.readouterr()

    def test_invalid_spec_exits_2(self, capsys):
        assert main(["verify", "thm2.1", "--dim", "4", "--rank", "9"]) == 2
        capsys.readouterr()

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "thm3.4", "--trials", "25", "--seed", "7"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_env_var_is_not_read(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("EPKIT_SEED", "42")
        assert main(["verify", "thm2.1", "--trials", "10", "--output", str(out1)]) == 0
        monkeypatch.delenv("EPKIT_SEED")
        assert main(["verify", "thm2.1", "--trials", "10", "--seed", "0",
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSuiteCommand:
    def test_small_suite_covers_table(self, tmp_path):
        out = tmp_path / "suite.json"
        assert main(["suite", "--seed", "1", "--trials", "6", "--output", str(out)]) == 0
        payload = parse_report(out.read_text())["payload"]
        ids = [v["theorem_id"] for v in payload["verdicts"]]
        assert len(ids) == 15
        assert payload["all_passed"] is True
        assert payload["theorem_ids"] == ids

    def test_loose_tolerance_still_passes(self, tmp_path):
        out = tmp_path / "suite.json"
        code = main(["suite", "--seed", "1", "--trials", "6", "--tol-eq", "1e-2",
                     "--output", str(out)])
        assert code == 0

    def test_corrupted_generator_exits_1_with_counterexample(self, tmp_path, corrupt_ep_generation):
        out = tmp_path / "suite.json"
        assert main(["suite", "--seed", "1", "--trials", "4", "--output", str(out)]) == 1
        payload = parse_report(out.read_text())["payload"]
        assert payload["all_passed"] is False
        failing = [v for v in payload["verdicts"] if v["failures"]]
        assert failing
        assert failing[0]["counterexample"]["matrices"]

    @pytest.mark.parametrize("argv", [
        ["suite", "--dim", "4", "--trials", "1"],
        ["suite", "--dim", "4", "--trials", "2"],
        ["verify", "thm2.5", "--trials", "2"],
        ["verify", "thm2.1", "--trials", "1"],
    ])
    def test_too_few_trials_for_both_directions_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs trials >= " in captured.err

    def test_thm2_12_at_full_rank_exits_2(self, capsys):
        assert main(["suite", "--dim", "4", "--rank", "4", "--trials", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "thm2.12 needs rank < dim" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["suite", "--dim", "200"], "thm2.2 needs 2 * dim <= 256"),
        (["verify", "thm2.2", "--dim", "129", "--rank", "128", "--trials", "2"],
         "thm2.2 needs 2 * dim <= 256"),
        (["suite", "--dim", "8", "--rank", "8", "--trials", "10"], "thm2.12 needs rank < dim"),
        (["verify", "thm2.12", "--dim", "8", "--rank", "8", "--trials", "10"],
         "thm2.12 needs rank < dim"),
        (["suite", "--dim", "2", "--rank", "2", "--trials", "2"], "thm2.5 needs trials >= 3"),
    ])
    def test_a_run_that_cannot_finish_exits_2_before_its_first_trial(
        self, argv, message, capsys, monkeypatch
    ):
        from epkit import harness

        ran = []
        monkeypatch.setattr(harness, "_trial", lambda *args: ran.append(args))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("epkit: error: " + message)
        assert ran == []

    def test_corrupt_env_var_is_not_read(self, tmp_path, monkeypatch):
        argv = ["suite", "--seed", "1", "--trials", "4", "--output"]
        monkeypatch.delenv("EPKIT_TEST_CORRUPT", raising=False)
        assert main(argv + [str(tmp_path / "unset.json")]) == 0
        monkeypatch.setenv("EPKIT_TEST_CORRUPT", "1")
        assert main(argv + [str(tmp_path / "set.json")]) == 0
        assert (tmp_path / "set.json").read_bytes() == (tmp_path / "unset.json").read_bytes()


class TestModelCommand:
    def test_harmonic_table(self, capsys):
        assert main(["model", "diag_harmonic_truncated", "--n-max", "10"]) == 0
        payload = parse_report(capsys.readouterr().out)["payload"]
        gammas = [row["gamma"] for row in payload["rows"]]
        np.testing.assert_allclose(gammas, [1.0 / n for n in range(1, 11)], atol=1e-14)

    def test_diag_n_radius_column(self, capsys):
        assert main(["model", "diag_n", "--n-max", "5"]) == 0
        payload = parse_report(capsys.readouterr().out)["payload"]
        radii = [row["spectral_radius"] for row in payload["rows"]]
        np.testing.assert_allclose(radii, [1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-12)

    def test_unknown_family_exits_2(self, capsys):
        assert main(["model", "bogus"]) == 2
        capsys.readouterr()

    def test_family_flag_is_not_an_alias(self, capsys):
        assert main(["model", "diag_n", "--family", "diag_alternating"]) == 2
        assert "unrecognized arguments: --family diag_alternating" in capsys.readouterr().err

    def test_small_window_exits_2(self, capsys):
        assert main(["model", "diag_n", "--n-max", "1"]) == 2
        capsys.readouterr()

    def test_past_the_cap_exits_2_before_any_svd(self, capsys, svd_calls):
        assert main(["model", "diag_n", "--n-max", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "epkit: error: truncation of dimension 257 exceeds the 256 cap\n"
        )
        assert svd_calls["full"] == svd_calls["values"] == 0


@pytest.fixture
def fake_clock(monkeypatch):
    """time.perf_counter as a clock that advances one second per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))


_TIMED_COMMANDS = {
    "classify": ["classify", "--input"],
    "verify": ["verify", "thm2.1", "--dim", "4", "--trials", "2"],
    "suite": ["suite", "--dim", "4", "--trials", "3"],
    "model": ["model", "diag_n", "--n-max", "3"],
}


class TestTimings:
    @pytest.mark.parametrize("timings", [True, False], ids=["timings", "no_timings"])
    @pytest.mark.parametrize("command", list(_TIMED_COMMANDS))
    def test_timing_fields(self, command, timings, hermitian_file, fake_clock, capsys):
        argv = list(_TIMED_COMMANDS[command])
        if command == "classify":
            argv.append(str(hermitian_file))
        assert main(argv + ["--timings"] * timings) == 0
        doc = parse_report(capsys.readouterr().out)
        payload = doc["payload"]
        verdicts = {"verify": [payload], "suite": payload.get("verdicts")}.get(command, [])
        elapsed = [v["elapsed_ms"] for v in verdicts]
        if timings:
            assert all(ms > 0 for ms in elapsed)
            assert doc["wall_time_ms"] > sum(elapsed)
        else:
            assert elapsed == [0] * len(verdicts)
            assert doc["wall_time_ms"] == 0


class TestWireFormats:
    def test_matrix_payload_round_trip(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        np.testing.assert_array_equal(matrix_from_payload(matrix_to_payload(m)), m)

    def test_matrix_file_round_trip(self, tmp_path, rng):
        from epkit.serialize import read_matrix_file

        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        path = tmp_path / "m.json"
        write_matrix_file(path, m)
        np.testing.assert_array_equal(read_matrix_file(path), m)

    def test_matrix_payload_field_names(self, rng):
        payload = matrix_to_payload(np.eye(2))
        assert set(payload) == {"version", "rows", "cols", "data"}
        assert payload["version"] == "1"

    def test_classification_payload_is_the_report_fields(self, rng, tol):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        report = classify(m, tol)
        payload = report_payload(report)
        assert list(payload) == [f.name for f in dataclasses.fields(ClassificationReport)]
        assert ClassificationReport(**payload) == report

    def test_report_document_round_trip(self, tol):
        report = classify(np.diag([1.0, 0.0]), tol)
        from epkit.serialize import KIND_CLASSIFICATION, report_document

        doc = report_document(KIND_CLASSIFICATION, report_payload(report), tol)
        assert parse_report(render_report(doc)) == doc

    @pytest.mark.parametrize(
        "entry",
        ["1" + "0" * 400 + ", 0", "0, -1" + "0" * 400, "1" * 5000 + ", 0",
         "true, false", "1.0, true"],
        ids=["huge_re", "huge_im", "past_digit_limit", "bools", "bool_im"],
    )
    def test_rejects_entries_that_are_not_finite_floats(self, entry):
        text = '{"version": "1", "rows": 1, "cols": 1, "data": [[[' + entry + ']]]}'
        with pytest.raises(MatrixFileError):
            parse_matrix_text(text)

    def test_huge_integer_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"version": "1", "rows": 1, "cols": 2, '
                        '"data": [[[1' + "0" * 400 + ', 0], [0, 0]]]}')
        assert main(["classify", "--input", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_rejects_non_finite_constants(self):
        with pytest.raises(Exception):
            parse_report('{"tool_version": "x", "tolerances": {}, '
                         '"payload_kind": "classification", "payload": NaN, '
                         '"wall_time_ms": 0}')


def _python(*args):
    """Run a fresh interpreter that imports this epkit, whether installed or not."""
    paths = [str(Path(epkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestConsoleEntryPoint:
    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, epkit, epkit.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_verify_and_suite_leave_scipy_unloaded(self, tmp_path):
        # thm2.7 matches spectra in numpy alone; no verifier needs scipy.
        out = str(tmp_path / "r.json")
        code = (
            "import sys, epkit.cli\n"
            f"assert epkit.cli.main(['verify', 'thm2.7', '--trials', '8', '--output', {out!r}]) == 0\n"
            f"assert epkit.cli.main(['suite', '--trials', '3', '--output', {out!r}]) == 0\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_classify_loads_neither_harness_nor_models(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix_file(path, np.eye(2))
        argv = ["classify", "--input", str(path), "--output", str(tmp_path / "r.json")]
        code = (
            "import sys, epkit, epkit.cli\n"
            f"assert epkit.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m in ('epkit.harness', 'epkit.models')"
            " or m.split('.')[0] == 'scipy'))"
        )
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix_file(path, np.eye(2))
        proc = _python("-m", "epkit.cli", "classify", "--input", str(path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["is_ep"] is True

    def test_thm1_5_at_dim_256_passes_at_one_blas_thread(self, monkeypatch):
        # At one OpenBLAS 0.3.31 thread, LAPACK's SVD does not converge on
        # trial 0's window term (1 + 1/49) T; it converges on its adjoint.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        proc = _python("-m", "epkit.cli", "verify", "thm1.5", "--dim", "256", "--rank", "200",
                       "--trials", "2", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["payload"]["failures"] == 0

    def test_usage_error_exits_2(self):
        proc = _python("-m", "epkit.cli", "frobnicate")
        assert proc.returncode == 2

    def test_help_states_the_byte_identity_domain(self, capsys):
        assert main(["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "OPENBLAS_NUM_THREADS" in text
        assert "numpy/BLAS build" in text


class TestPackageNamespace:
    def test_lazy_names_are_the_submodule_objects(self):
        assert epkit.run_theorem_check is epkit.harness.run_theorem_check
        assert epkit.limit_study is epkit.models.limit_study

    def test_every_public_name_resolves(self):
        namespace = {}
        exec("from epkit import *", namespace)
        for name in epkit.__all__:
            assert namespace[name] is getattr(epkit, name)
        assert set(epkit.__all__) <= set(dir(epkit))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            epkit.no_such_name
