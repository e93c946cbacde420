"""Tests for state persistence, CSV ingestion, plot datasets, and the
command line interface.

CLI commands run in-process through ``main(argv)`` with redirected
streams; crash safety of the state writer is exercised with a real
subprocess that dies mid-write.
"""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ridge_relay.cli_io as cio
import ridge_relay.penalty_tuning as penalty_tuning
from ridge_relay import (
    Batch,
    CoefficientVector,
    ConvergenceError,
    CovariateRegistry,
    EstimatorState,
    PenaltySearchConfig,
    RegistryError,
    SelectionError,
    StateFileError,
    UpdateRecord,
    ValidationError,
    default_grid,
    fit_targeted_ridge,
    select_penalty,
    update,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cio.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def batch_csv(path, rng, n, coef, response="y", t_shift=0.0):
    """Write a linear batch CSV and return its design and response."""
    p = len(coef)
    X = rng.standard_normal((n, p))
    y = X @ np.asarray(coef) + 0.1 * rng.standard_normal(n) + t_shift
    names = [f"x{j + 1}" for j in range(p)]
    write_csv(path, names + [response], np.column_stack([X, y]))
    return X, y


def seeded_state(with_history=True):
    """A small linear state, optionally with one real update on record."""
    rng = np.random.default_rng(88)
    names = ("a", "b")
    state = EstimatorState(
        family="linear",
        registry=CovariateRegistry(names),
        init_target=CoefficientVector({"a": 0.25, "b": -1.5}),
        init_note="handmade",
    )
    if with_history:
        X = rng.standard_normal((12, 2))
        y = X @ np.array([1.0, 2.0]) + 0.1 * rng.standard_normal(12)
        state = update(state, Batch(t=1, X=X, y=y, covariates=names,
                                    family="linear"), 0.5)
    return state


class TestStateRoundTrip:
    def test_document_survives_write_and_read(self, tmp_path):
        state = seeded_state()
        path = str(tmp_path / "model.json")
        cio.write_state(state, path)
        loaded = cio.read_state(path)
        assert cio.state_to_doc(loaded) == cio.state_to_doc(state)
        np.testing.assert_array_equal(loaded.retained[0].X, state.retained[0].X)
        assert loaded.current.values == state.current.values

    def test_serialization_is_deterministic(self, tmp_path):
        state = seeded_state()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cio.write_state(state, a)
        cio.write_state(cio.read_state(a), b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_state_file_is_compact_json(self, tmp_path):
        state = seeded_state()
        path = str(tmp_path / "model.json")
        cio.write_state(state, path)
        text = open(path, encoding="utf-8").read()
        assert text == json.dumps(cio.state_to_doc(state), sort_keys=True,
                                  separators=(",", ":")) + "\n"

    def test_indented_state_files_still_read(self, tmp_path):
        state = seeded_state()
        old = tmp_path / "indented.json"
        old.write_text(json.dumps(cio.state_to_doc(state), indent=2,
                                  sort_keys=True, allow_nan=False) + "\n")
        loaded = cio.read_state(str(old))
        assert cio.state_to_doc(loaded) == cio.state_to_doc(state)
        np.testing.assert_array_equal(loaded.retained[0].X, state.retained[0].X)
        np.testing.assert_array_equal(loaded.retained[0].y, state.retained[0].y)
        new = str(tmp_path / "rewritten.json")
        cio.write_state(loaded, new)
        fresh = str(tmp_path / "fresh.json")
        cio.write_state(state, fresh)
        assert open(new, "rb").read() == open(fresh, "rb").read()

    def test_mixture_weights_survive_the_round_trip(self, tmp_path):
        state = seeded_state(with_history=False)
        record = UpdateRecord(t=1, lam=2.0,
                              estimate=CoefficientVector({"a": 1.0, "b": 0.0}),
                              weights=(0.3, 0.7),
                              diagnostics={"note": "manual"})
        batch = Batch(t=1, X=np.eye(2), y=np.ones(2),
                      covariates=("a", "b"), family="linear")
        state = state.with_update(state.registry, record, batch)
        path = str(tmp_path / "mix.json")
        cio.write_state(state, path)
        loaded = cio.read_state(path)
        assert loaded.history[-1].weights == (0.3, 0.7)
        assert loaded.history[-1].diagnostics == {"note": "manual"}

    def test_schema_tag_is_enforced(self, tmp_path):
        doc = cio.state_to_doc(seeded_state(with_history=False))
        doc["schema"] = "ridge-relay-state/999"
        with pytest.raises(StateFileError):
            cio.doc_to_state(doc)
        with pytest.raises(StateFileError):
            cio.doc_to_state([1, 2, 3])

    def test_missing_fields_are_schema_errors(self):
        doc = cio.state_to_doc(seeded_state(with_history=False))
        del doc["covariates"]
        with pytest.raises(StateFileError):
            cio.doc_to_state(doc)

    def test_unreadable_files_are_reported(self, tmp_path):
        with pytest.raises(StateFileError):
            cio.read_state(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(StateFileError):
            cio.read_state(str(bad))

    def test_crash_before_swap_leaves_the_old_state_intact(self, tmp_path):
        """A writer killed mid-write must never corrupt the visible file."""
        state = seeded_state()
        path = str(tmp_path / "model.json")
        cio.write_state(state, path)
        before = open(path, "rb").read()
        script = textwrap.dedent("""
            import os, sys
            import ridge_relay.cli_io as cio
            def crash(src, dst):
                os._exit(9)
            os.replace = crash
            cio._atomic_write_text(sys.argv[1], "GARBAGE that would corrupt")
        """)
        proc = subprocess.run([sys.executable, "-c", script, path],
                              capture_output=True)
        assert proc.returncode == 9
        assert open(path, "rb").read() == before
        assert cio.read_state(path).current.values == state.current.values

    def test_completed_write_fsyncs_the_directory_after_the_rename(self, tmp_path,
                                                                   monkeypatch):
        """The rename only survives a crash once the directory entry is
        on disk, so the last fsync of a write is of the directory, after
        the new content is in place."""
        path = str(tmp_path / "model.json")
        synced = []
        real_fsync = os.fsync

        def record(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            content = open(path, encoding="utf-8").read() if os.path.exists(path) else None
            synced.append((is_dir, content))
            real_fsync(fd)

        monkeypatch.setattr(cio.os, "fsync", record)
        cio._atomic_write_text(path, "new contents\n")
        assert synced[-1] == (True, "new contents\n")
        assert (False, None) in synced[:-1]

    def test_lock_blocks_concurrent_writers_and_cleans_up(self, tmp_path):
        path = str(tmp_path / "model.json")
        with cio.state_lock(path):
            assert os.path.exists(path + ".lock")
            with pytest.raises(cio.LockError):
                with cio.state_lock(path):
                    pass
        assert not os.path.exists(path + ".lock")


class TestCsvIngestion:
    def test_batch_csv_separates_response_from_covariates(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_csv(path, ["a", "y", "b"], [[1.0, 10.0, 2.0], [3.0, 20.0, 4.0]])
        batch = cio.read_batch_csv(path, "y", t=1, family="linear")
        assert batch.covariates == ("a", "b")
        np.testing.assert_array_equal(batch.X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(batch.y, [10.0, 20.0])
        assert batch.t == 1 and batch.family == "linear"

    def test_malformed_csv_files_are_rejected(self, tmp_path):
        def expect_error(name, text):
            p = tmp_path / name
            p.write_text(text)
            with pytest.raises(ValidationError):
                cio.read_batch_csv(str(p), "y", t=1, family="linear")

        with pytest.raises(ValidationError):
            cio.read_batch_csv(str(tmp_path / "absent.csv"), "y", 1, "linear")
        expect_error("empty.csv", "")
        expect_error("no_rows.csv", "a,y\n")
        expect_error("dup.csv", "a,a,y\n1,2,3\n")
        expect_error("blank_name.csv", "a,,y\n1,2,3\n")
        expect_error("ragged.csv", "a,y\n1,2\n3\n")
        expect_error("text.csv", "a,y\n1,banana\n")
        expect_error("wrong_response.csv", "a,b\n1,2\n")

    def test_covariate_csv_aligns_and_zero_fills(self, tmp_path):
        registry = CovariateRegistry(("a", "b", "c"))
        path = str(tmp_path / "d.csv")
        write_csv(path, ["c", "a"], [[5.0, 1.0], [6.0, 2.0]])
        X = cio.read_covariate_csv(path, registry)
        np.testing.assert_array_equal(X, [[1.0, 0.0, 5.0], [2.0, 0.0, 6.0]])

    def test_covariate_csv_rejects_unknown_columns(self, tmp_path):
        registry = CovariateRegistry(("a",))
        path = str(tmp_path / "d.csv")
        write_csv(path, ["a", "zz"], [[1.0, 2.0]])
        with pytest.raises(RegistryError):
            cio.read_covariate_csv(path, registry)
        X = cio.read_covariate_csv(path, registry, drop="zz")
        np.testing.assert_array_equal(X, [[1.0]])


class TestPlotDataset:
    def test_validation(self):
        with pytest.raises(ValidationError):
            cio.PlotDataset(name="", columns={"a": [1]})
        with pytest.raises(ValidationError):
            cio.PlotDataset(name="x/y", columns={"a": [1]})
        with pytest.raises(ValidationError):
            cio.PlotDataset(name="x", columns={})
        with pytest.raises(ValidationError):
            cio.PlotDataset(name="x", columns={"a": [1], "b": [1, 2]})

    def test_written_files_round_trip(self, tmp_path):
        dataset = cio.PlotDataset(
            name="demo",
            columns={"t": [1, 2, 3], "value": [0.5, float("nan"), -1.5]},
            metadata={"kind": "demo", "n": 3})
        csv_path, meta_path = cio.write_plot_dataset(dataset, str(tmp_path))
        lines = open(csv_path, encoding="utf-8").read().splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,"
        assert lines[3] == "3,-1.5"
        assert json.load(open(meta_path)) == {"kind": "demo", "n": 3}

    def test_both_files_are_written_atomically(self, tmp_path, monkeypatch):
        """The CSV, like its sidecar, appears only by rename of a complete
        temporary file, and no temporary file is left behind."""
        renamed = []
        real_replace = os.replace

        def record(src, dst):
            renamed.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(cio.os, "replace", record)
        dataset = cio.PlotDataset(name="demo", columns={"t": [1, 2]}, metadata={})
        csv_path, _ = cio.write_plot_dataset(dataset, str(tmp_path))
        assert sorted(renamed) == ["demo.csv", "demo.meta.json"]
        assert sorted(os.listdir(tmp_path)) == ["demo.csv", "demo.meta.json"]
        assert open(csv_path, "rb").read() == b"t\r\n1\r\n2\r\n"


class TestCliInit:
    def test_zero_covariate_mode(self, tmp_path):
        path = str(tmp_path / "m.json")
        code, out, err = run_cli("init", "--state", path, "--covariates", "a,b")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["init"] == "zeros" and report["covariates"] == 2
        state = cio.read_state(path)
        assert state.registry.names == ("a", "b")
        assert state.current.values == {"a": 0.0, "b": 0.0}
        assert state.t == 0

    def test_target_file_mode(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"a": 2.0, "b": -1.0}))
        path = str(tmp_path / "m.json")
        code, out, _ = run_cli("init", "--state", path,
                               "--target-file", str(target))
        assert code == 0
        state = cio.read_state(path)
        assert state.current.values == {"a": 2.0, "b": -1.0}
        assert state.init_note == "target-file"

    def test_fit_mode_matches_a_library_recomputation(self, tmp_path):
        rng = np.random.default_rng(17)
        data = str(tmp_path / "first.csv")
        batch_csv(data, rng, n=30, coef=[2.0, -1.0])
        path = str(tmp_path / "m.json")
        code, out, _ = run_cli("init", "--state", path, "--data", data,
                               "--response", "y")
        assert code == 0
        report = json.loads(out)
        assert report["init"] == "fit-first-batch" and report["n"] == 30

        batch = cio.read_batch_csv(data, "y", t=0, family="linear")
        blank = EstimatorState(
            family="linear",
            registry=CovariateRegistry(batch.covariates),
            init_target=CoefficientVector({n: 0.0 for n in batch.covariates}))
        sel = PenaltySearchConfig(k_folds=None, constrained=False,
                                  grid=default_grid(), seed=0)
        chosen = select_penalty(blank, batch, sel)
        expected = fit_targeted_ridge(batch.X, batch.y, chosen.chosen_lambda,
                                      np.zeros(batch.p)).coef
        state = cio.read_state(path)
        np.testing.assert_array_equal(
            state.current.as_array(batch.covariates), expected)
        assert report["lam"] == chosen.chosen_lambda
        assert len(state.retained) == 1 and state.retained[0].t == 0

    def test_exactly_one_source_is_required(self, tmp_path):
        path = str(tmp_path / "m.json")
        code, _, err = run_cli("init", "--state", path)
        assert code == 2 and "error:" in err
        target = tmp_path / "t.json"
        target.write_text("{\"a\": 1.0}")
        code, _, err = run_cli("init", "--state", path, "--covariates", "a",
                               "--target-file", str(target))
        assert code == 2

    def test_refuses_to_clobber_without_force(self, tmp_path):
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "a")[0] == 0
        code, _, err = run_cli("init", "--state", path, "--covariates", "a,b")
        assert code == 2 and "--force" in err
        code, _, _ = run_cli("init", "--state", path, "--covariates", "a,b",
                             "--force")
        assert code == 0
        assert cio.read_state(path).registry.size == 2

    def test_bad_target_files_exit_with_validation_code(self, tmp_path):
        path = str(tmp_path / "m.json")
        code, _, _ = run_cli("init", "--state", path,
                             "--target-file", str(tmp_path / "absent.json"))
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        code, _, _ = run_cli("init", "--state", path, "--target-file", str(bad))
        assert code == 2


class TestCliUpdate:
    def init_and_first_batch(self, tmp_path, seed=5):
        rng = np.random.default_rng(seed)
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1,x2")[0] == 0
        data = str(tmp_path / "b1.csv")
        batch_csv(data, rng, n=20, coef=[1.0, -0.5])
        return path, data, rng

    def test_happy_path_reports_diagnostics(self, tmp_path):
        path, data, _ = self.init_and_first_batch(tmp_path)
        code, out, err = run_cli("update", "--state", path, "--data", data,
                                 "--response", "y", "--k-folds", "4")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["t"] == 1
        assert report["lam"] > 0
        assert isinstance(report["fallback_used"], bool)
        assert report["n_feasible"] >= 1
        assert report["k_folds"] == 4
        assert report["n"] == 20
        assert report["new_fraction"] is None
        state = cio.read_state(path)
        assert state.t == 1 and len(state.history) == 1
        assert not os.path.exists(path + ".lock")

    def test_reruns_from_the_same_state_are_byte_identical(self, tmp_path):
        path, data, _ = self.init_and_first_batch(tmp_path)
        twin = str(tmp_path / "twin.json")
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(twin, "wb") as fh:
            fh.write(blob)
        args = ("--data", data, "--response", "y", "--k-folds", "4")
        assert run_cli("update", "--state", path, *args)[0] == 0
        assert run_cli("update", "--state", twin, *args)[0] == 0
        assert open(path, "rb").read() == open(twin, "rb").read()

    def test_new_covariates_extend_the_registry(self, tmp_path):
        path, data, rng = self.init_and_first_batch(tmp_path)
        args = ("--response", "y", "--k-folds", "4")
        assert run_cli("update", "--state", path, "--data", data, *args)[0] == 0
        wide = str(tmp_path / "b2.csv")
        X = rng.standard_normal((15, 3))
        y = X @ np.array([1.0, -0.5, 2.0])
        write_csv(wide, ["x1", "x2", "x3", "y"], np.column_stack([X, y]))
        code, out, _ = run_cli("update", "--state", path, "--data", wide, *args)
        assert code == 0
        report = json.loads(out)
        assert 0 < report["new_fraction"] < 1
        state = cio.read_state(path)
        assert state.registry.names == ("x1", "x2", "x3")
        assert set(state.current.values) == {"x1", "x2", "x3"}

    def test_logistic_states_route_to_the_logistic_fitter(self, tmp_path):
        rng = np.random.default_rng(19)
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--family", "logistic",
                       "--covariates", "x1,x2")[0] == 0
        data = str(tmp_path / "b.csv")
        X = rng.standard_normal((40, 2))
        y = (rng.random(40) < 1.0 / (1.0 + np.exp(-X @ [1.0, -1.0]))).astype(float)
        write_csv(data, ["x1", "x2", "y"], np.column_stack([X, y]))
        code, out, _ = run_cli("update", "--state", path, "--data", data,
                               "--response", "y", "--k-folds", "4")
        assert code == 0
        report = json.loads(out)
        assert "irls_iterations" in report and report["irls_iterations"] >= 1
        assert cio.read_state(path).family == "logistic"

    def test_missing_data_file_exits_2(self, tmp_path):
        path, _, _ = self.init_and_first_batch(tmp_path)
        code, _, err = run_cli("update", "--state", path,
                               "--data", str(tmp_path / "absent.csv"),
                               "--response", "y")
        assert code == 2 and "error:" in err

    def test_negative_seed_exits_2_and_leaves_the_state(self, tmp_path):
        path, data, _ = self.init_and_first_batch(tmp_path)
        before = open(path, "rb").read()
        code, out, err = run_cli("update", "--state", path, "--data", data,
                                 "--response", "y", "--seed", "-1")
        assert code == 2 and out == "" and err.startswith("error: ")
        assert open(path, "rb").read() == before
        assert not os.path.exists(path + ".lock")
        fresh = str(tmp_path / "fresh.json")
        code, _, err = run_cli("init", "--state", fresh, "--data", data,
                               "--response", "y", "--seed", "-2")
        assert code == 2 and err.startswith("error: ")
        assert not os.path.exists(fresh) and not os.path.exists(fresh + ".lock")

    def test_stale_lock_exits_4(self, tmp_path):
        path, data, _ = self.init_and_first_batch(tmp_path)
        with open(path + ".lock", "w") as fh:
            fh.write("424242\n")
        code, _, err = run_cli("update", "--state", path, "--data", data,
                               "--response", "y")
        assert code == 4 and "lock" in err

    def test_convergence_failures_exit_3(self, tmp_path, monkeypatch):
        path, data, _ = self.init_and_first_batch(tmp_path)

        def explode(*args, **kwargs):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(penalty_tuning, "update", explode)
        code, _, err = run_cli("update", "--state", path, "--data", data,
                               "--response", "y", "--k-folds", "4")
        assert code == 3 and "converge" in err
        assert not os.path.exists(path + ".lock")

    def test_selection_failures_exit_4(self, tmp_path, monkeypatch):
        path, data, _ = self.init_and_first_batch(tmp_path)

        def explode(*args, **kwargs):
            raise SelectionError("no finite candidate")

        monkeypatch.setattr(cio, "select_penalty", explode)
        code, _, err = run_cli("update", "--state", path, "--data", data,
                               "--response", "y")
        assert code == 4 and "candidate" in err


class TestCliSelectLambda:
    def test_reports_the_curve_without_touching_the_state(self, tmp_path):
        rng = np.random.default_rng(23)
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1,x2")[0] == 0
        before = open(path, "rb").read()
        data = str(tmp_path / "b.csv")
        batch_csv(data, rng, n=18, coef=[1.0, 0.5])
        code, out, _ = run_cli("select-lambda", "--state", path,
                               "--data", data, "--response", "y",
                               "--k-folds", "3", "--grid-points", "7")
        assert code == 0
        report = json.loads(out)
        assert isinstance(report["chosen_lambda"], float)
        assert report["constrained"] is True
        assert len(report["cv_curve"]) == 7
        for cand in report["cv_curve"]:
            assert set(cand) >= {"lam", "score", "feasible"}
        assert open(path, "rb").read() == before

    def test_unconstrained_flag_is_honored(self, tmp_path):
        rng = np.random.default_rng(29)
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1")[0] == 0
        data = str(tmp_path / "b.csv")
        batch_csv(data, rng, n=12, coef=[2.0])
        code, out, _ = run_cli("select-lambda", "--state", path, "--data", data,
                               "--response", "y", "--unconstrained",
                               "--k-folds", "3")
        assert code == 0
        assert json.loads(out)["constrained"] is False


class TestCliPredict:
    def make_state(self, tmp_path, values, family="linear"):
        target = tmp_path / "t.json"
        target.write_text(json.dumps(values))
        path = str(tmp_path / "m.json")
        code, _, _ = run_cli("init", "--state", path, "--family", family,
                             "--target-file", str(target))
        assert code == 0
        return path

    def test_linear_prediction_is_the_inner_product(self, tmp_path):
        path = self.make_state(tmp_path, {"a": 2.0})
        data = str(tmp_path / "d.csv")
        write_csv(data, ["a"], [[3.0], [-1.0]])
        code, out, _ = run_cli("predict", "--state", path, "--data", data)
        assert code == 0
        assert out.splitlines() == ["6.0", "-2.0"]

    def test_logistic_prediction_is_a_probability(self, tmp_path):
        path = self.make_state(tmp_path, {"a": 0.0}, family="logistic")
        data = str(tmp_path / "d.csv")
        write_csv(data, ["a"], [[123.0]])
        code, out, _ = run_cli("predict", "--state", path, "--data", data)
        assert code == 0
        assert out.splitlines() == ["0.5"]

    def test_response_column_is_dropped_and_gaps_zero_filled(self, tmp_path):
        path = self.make_state(tmp_path, {"a": 2.0, "b": 100.0})
        data = str(tmp_path / "d.csv")
        write_csv(data, ["a", "y"], [[3.0, 999.0]])
        code, out, _ = run_cli("predict", "--state", path, "--data", data,
                               "--response", "y")
        assert code == 0
        assert out.splitlines() == ["6.0"]

    def test_unknown_columns_exit_2(self, tmp_path):
        path = self.make_state(tmp_path, {"a": 2.0})
        data = str(tmp_path / "d.csv")
        write_csv(data, ["zz"], [[1.0]])
        code, _, err = run_cli("predict", "--state", path, "--data", data)
        assert code == 2 and "zz" in err

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_covariates_exit_2(self, tmp_path, cell):
        path = self.make_state(tmp_path, {"a": 2.0, "b": 1.0})
        data = str(tmp_path / "d.csv")
        write_csv(data, ["a", "b"], [[3.0, 1.0], [1.0, cell]])
        code, out, err = run_cli("predict", "--state", path, "--data", data)
        assert code == 2 and out == ""
        assert "'b'" in err and "not finite" in err

    def test_csv_without_covariate_columns_exit_2(self, tmp_path):
        path = self.make_state(tmp_path, {"a": 2.0})
        data = str(tmp_path / "d.csv")
        write_csv(data, ["y"], [[1.0], [2.0]])
        code, out, err = run_cli("predict", "--state", path, "--data", data,
                                 "--response", "y")
        assert code == 2 and out == ""
        assert "no covariate columns" in err


class TestCliSimulate:
    def scenario(self, tmp_path, doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_refit_study_writes_both_datasets(self, tmp_path):
        scenario = self.scenario(tmp_path, {
            "study": "regular-vs-updated", "p": 3, "n": 6, "n_batches": 3,
            "n_replicates": 2, "noise_var": 0.25, "k_folds": 3,
            "grid_points": 5, "seed": 1})
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli("simulate", "--scenario", scenario,
                               "--out", out_dir)
        assert code == 0
        report = json.loads(out)
        assert report["replicates"] == 2
        assert len(report["files"]) == 4
        for f in report["files"]:
            assert os.path.exists(f)
        quant = [f for f in report["files"] if f.endswith("_quantile_trajectories.csv")]
        curves = [f for f in report["files"] if f.endswith("_mse_curves.csv")]
        assert len(quant) == 1 and len(curves) == 1
        rows = list(_read_rows(curves[0]))
        assert {r["series"] for r in rows} == {"regular", "updated"}
        meta = json.load(open(quant[0].replace(".csv", ".meta.json")))
        assert meta["study"] == "regular-vs-updated"
        assert meta["config"]["p"] == 3

    def test_reruns_write_byte_identical_files(self, tmp_path):
        doc = {"study": "regular-vs-updated", "p": 3, "n": 6, "n_batches": 3,
               "n_replicates": 2, "noise_var": 0.25, "k_folds": 3,
               "grid_points": 5, "seed": 4}
        scenario = self.scenario(tmp_path, doc)
        dirs = [str(tmp_path / "out1"), str(tmp_path / "out2")]
        outputs = []
        for d in dirs:
            code, out, _ = run_cli("simulate", "--scenario", scenario,
                                   "--out", d)
            assert code == 0
            outputs.append(sorted(json.loads(out)["files"]))
        for f1, f2 in zip(*outputs):
            assert os.path.basename(f1) == os.path.basename(f2)
            assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_pooled_study_reports_three_series_with_gaps(self, tmp_path):
        scenario = self.scenario(tmp_path, {
            "study": "mixed-vs-updated", "p": 4, "n": 3, "n_batches": 4,
            "n_replicates": 2, "noise_var": 1.0, "k_folds": 3,
            "grid_points": 5, "seed": 2})
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli("simulate", "--scenario", scenario,
                               "--out", out_dir)
        assert code == 0
        curves = [f for f in json.loads(out)["files"]
                  if f.endswith("_mse_curves.csv")][0]
        rows = list(_read_rows(curves))
        assert {r["series"] for r in rows} == {
            "mixed", "updated-zero-init", "updated-truth-init"}
        mixed_t1 = [r for r in rows
                    if r["series"] == "mixed" and r["t"] == "1"]
        assert mixed_t1 and all(r["mean_squared_error"] == "" for r in mixed_t1)

    def test_bad_scenarios_exit_2(self, tmp_path):
        code, _, err = run_cli("simulate",
                               "--scenario", str(tmp_path / "absent.json"),
                               "--out", str(tmp_path / "out"))
        assert code == 2 and "error:" in err
        scenario = self.scenario(tmp_path, {"study": "regular-vs-updated",
                                            "mystery": True}, "bad.json")
        code, _, err = run_cli("simulate", "--scenario", scenario,
                               "--out", str(tmp_path / "out"))
        assert code == 2 and "mystery" in err


def target_file_args(tmp_path, doc):
    target = tmp_path / "t.json"
    target.write_text(json.dumps(doc))
    return ["init", "--state", str(tmp_path / "m.json"), "--target-file", str(target)]


def state_file_args(tmp_path, edit):
    """``export`` of a one-update state file whose document ``edit`` changed."""
    doc = cio.state_to_doc(seeded_state())
    edit(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return ["export", "--state", str(path)]


def scenario_args(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return ["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]


BAD_JSON_VALUES = {
    "target-non-numeric": lambda tmp: target_file_args(tmp, {"a": "abc"}),
    "target-null": lambda tmp: target_file_args(tmp, {"a": None}),
    "target-past-float-range": lambda tmp: target_file_args(tmp, {"a": 10 ** 400}),
    "history-non-object": lambda tmp: state_file_args(
        tmp, lambda doc: doc["history"].append(5)),
    "covariates-number": lambda tmp: state_file_args(
        tmp, lambda doc: doc.update(covariates=7)),
    "covariates-string": lambda tmp: state_file_args(
        tmp, lambda doc: doc.update(covariates="ab")),
    "init-target-non-numeric": lambda tmp: state_file_args(
        tmp, lambda doc: doc["init"]["target"].update(a="abc")),
    "ragged-batch-rows": lambda tmp: state_file_args(
        tmp, lambda doc: doc["batches"][0]["x"][0].pop()),
    "batch-cell-past-float-range": lambda tmp: state_file_args(
        tmp, lambda doc: doc["batches"][0]["x"][0].__setitem__(0, 10 ** 400)),
    "scenario-string-p": lambda tmp: scenario_args(
        tmp, {"study": "regular-vs-updated", "p": "11"}),
    "scenario-list": lambda tmp: scenario_args(tmp, [{"p": 3}]),
    "scenario-negative-seed": lambda tmp: scenario_args(
        tmp, {"study": "regular-vs-updated", "p": 3, "seed": -1}),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON_VALUES))
def test_bad_json_values_exit_2(tmp_path, case):
    """Well-formed JSON holding a value of the wrong type or shape is bad
    input: exit 2 with an error line, never a traceback."""
    code, out, err = run_cli(*BAD_JSON_VALUES[case](tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


class TestCliExport:
    def test_summary_echoes_the_exact_estimate(self, tmp_path):
        rng = np.random.default_rng(31)
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1,x2")[0] == 0
        data = str(tmp_path / "b.csv")
        batch_csv(data, rng, n=16, coef=[0.5, 1.5])
        assert run_cli("update", "--state", path, "--data", data,
                       "--response", "y", "--k-folds", "4")[0] == 0
        code, out, _ = run_cli("export", "--state", path)
        assert code == 0
        assert "family:     linear" in out
        assert "updates:    1" in out
        state = cio.read_state(path)
        for name in ("x1", "x2"):
            line = next(l for l in out.splitlines() if l.strip().startswith(name))
            printed = float(line.split("=")[1])
            assert printed == state.current.values[name]


def _read_rows(csv_path):
    import csv as csv_mod
    with open(csv_path, encoding="utf-8", newline="") as fh:
        yield from csv_mod.DictReader(fh)
