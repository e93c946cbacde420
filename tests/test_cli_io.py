"""Tests for state persistence, CSV ingestion, plot datasets, and the
command line interface.

CLI commands run in-process through ``main(argv)`` with redirected
streams; crash safety of the state writer is exercised with real
subprocesses that die mid-write.
"""

import base64
import contextlib
import fcntl
import gc
import io
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ridge_relay.cli_io as cio
import ridge_relay.penalty_tuning as penalty_tuning
from ridge_relay.state_history import read_history
from ridge_relay import (
    Batch,
    CoefficientVector,
    ConvergenceError,
    CovariateRegistry,
    EstimatorState,
    PenaltySearchConfig,
    RegistryError,
    ScenarioConfig,
    SelectionError,
    StateFileError,
    TrajectoryResult,
    UpdateRecord,
    ValidationError,
    default_grid,
    fit_first_batch,
    fit_targeted_ridge,
    fold_triangular,
    get_family,
    select_penalty,
    start_state,
    update,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cio.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def package_env():
    """The environment of a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cio.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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


def seeded_batch():
    rng = np.random.default_rng(88)
    X = rng.standard_normal((12, 2))
    y = X @ np.array([1.0, 2.0]) + 0.1 * rng.standard_normal(12)
    return Batch(t=1, X=X, y=y, covariates=("a", "b"), family="linear")


def seeded_state(with_history=True):
    """A small linear state, optionally with one real update on record."""
    names = ("a", "b")
    state = EstimatorState(
        family="linear",
        registry=CovariateRegistry(names),
        init_target=CoefficientVector({"a": 0.25, "b": -1.5}),
        init_note="handmade",
    )
    if with_history:
        state = update(state, seeded_batch(), 0.5)
    return state


def record_docs(state):
    """Every record of ``state`` as a state document lays records out."""
    return [{"t": rec.t, "lam": rec.lam, "estimate": dict(rec.estimate.values),
             "weights": None if rec.weights is None else list(rec.weights),
             "diagnostics": dict(rec.diagnostics)} for rec in state.history]


def schema_2_document(state):
    """The ``ridge-relay-state/2`` document of ``state``, which kept every
    record and the whole linear factor."""
    doc = cio.state_to_doc(state)
    doc["schema"] = "ridge-relay-state/2"
    doc["history"] = record_docs(state)
    if doc["past"] is not None and "factor" in doc["past"]:
        doc["past"]["factor"] = cio._encode_array(state.past.factor)
    return doc


def schema_1_document(state, batches):
    """The ``ridge-relay-state/1`` document of ``state``, which kept every
    record and its batches raw instead of its past data."""
    doc = cio.state_to_doc(state)
    del doc["past"]
    doc["schema"] = "ridge-relay-state/1"
    doc["history"] = record_docs(state)
    doc["batches"] = [{"t": b.t, "covariates": list(b.covariates), "x": b.X.tolist(),
                       "y": b.y.tolist()} for b in batches]
    return doc


class TestStateRoundTrip:
    def test_document_survives_write_and_read(self, tmp_path):
        state = seeded_state()
        path = str(tmp_path / "model.json")
        cio.write_state(state, path)
        loaded = cio.read_state(path)
        assert cio.state_to_doc(loaded) == cio.state_to_doc(state)
        np.testing.assert_array_equal(loaded.past.factor, state.past.factor)
        assert loaded.past.rows == state.past.rows == 12
        assert loaded.current.values == state.current.values

    def test_serialization_is_deterministic(self, tmp_path):
        state = seeded_state()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cio.write_state(state, a)
        cio.write_state(cio.read_state(a), b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_state_file_is_compact_json(self, tmp_path):
        state = seeded_state()
        path = str(tmp_path / "model.json")
        cio.write_state(state, path)
        text = Path(path).read_text(encoding="utf-8")
        assert text == json.dumps(cio.state_to_doc(state), sort_keys=True,
                                  separators=(",", ":")) + "\n"

    def test_indented_state_files_still_read(self, tmp_path):
        state = seeded_state()
        old = tmp_path / "indented.json"
        old.write_text(json.dumps(cio.state_to_doc(state), indent=2,
                                  sort_keys=True, allow_nan=False) + "\n")
        loaded = cio.read_state(str(old))
        assert cio.state_to_doc(loaded) == cio.state_to_doc(state)
        np.testing.assert_array_equal(loaded.past.factor, state.past.factor)
        assert loaded.past.rows == state.past.rows
        new = str(tmp_path / "rewritten.json")
        cio.write_state(loaded, new)
        fresh = str(tmp_path / "fresh.json")
        cio.write_state(state, fresh)
        assert Path(new).read_bytes() == Path(fresh).read_bytes()

    def test_mixture_weights_survive_the_round_trip(self, tmp_path):
        """Updates no longer write weights, but a record an older state holds
        them in still reads, keeps them through an update and is exported
        with them."""
        state = seeded_state(with_history=False)
        record = UpdateRecord(t=1, lam=2.0,
                              estimate=CoefficientVector({"a": 1.0, "b": 0.0}),
                              weights=(0.3, 0.7),
                              diagnostics={"note": "manual"})
        state = state.with_update(state.registry, record,
                                  fold_triangular(None, np.eye(2), np.ones(2)))
        path = str(tmp_path / "mix.json")
        cio.write_state(state, path)
        loaded = cio.read_state(path)
        assert loaded.history[-1].weights == (0.3, 0.7)
        assert loaded.history[-1].diagnostics == {"note": "manual"}

        batch = seeded_batch()
        data = str(tmp_path / "b.csv")
        write_csv(data, ["a", "b", "y"], np.column_stack([batch.X, batch.y]))
        assert run_cli("update", "--state", path, "--data", data, "--response", "y")[0] == 0
        updated = cio.read_state(path)
        assert [rec.weights for rec in updated.history] == [None]
        assert cio.state_to_doc(updated)["history"][0]["weights"] is None
        assert [rec.weights for rec in read_history(path, updated)] == [(0.3, 0.7), None]
        code, out, _ = run_cli("export", "--state", path)
        assert code == 0
        assert "  t=1 lam=2.0 weights=[0.3, 0.7]\n  t=2 lam=" in out

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
        before = Path(path).read_bytes()
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
        assert Path(path).read_bytes() == before
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
            content = Path(path).read_text(encoding="utf-8") if os.path.exists(path) else None
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


    def test_past_arrays_are_stored_as_base64_float64(self, tmp_path):
        """The linear factor as its upper triangle, row by row; logistic rows whole."""
        state = seeded_state()
        past = cio.state_to_doc(state)["past"]
        assert set(past) == {"factor", "rows"} and past["rows"] == 12
        assert set(past["factor"]) == {"shape", "upper"} and past["factor"]["shape"] == [3, 3]
        raw = base64.b64decode(past["factor"]["upper"])
        f = state.past.factor
        upper = [f[0, 0], f[0, 1], f[0, 2], f[1, 1], f[1, 2], f[2, 2]]
        assert raw == np.array(upper, dtype="<f8").tobytes()
        X, y = np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 1.0])
        logistic = start_state("logistic", ("a", "b"), past=get_family("logistic").fold(
            None, X, y))
        past = cio.state_to_doc(logistic)["past"]
        assert base64.b64decode(past["X"]["base64"]) == X.astype("<f8").tobytes()
        assert base64.b64decode(past["y"]["base64"]) == y.astype("<f8").tobytes()

    def test_linear_state_size_does_not_grow_with_the_rows(self, tmp_path):
        """The past data of a linear state is one (p + 1)^2 factor, so its
        stored size is the same after 2 batches and after 30."""
        rng = np.random.default_rng(7)
        state = seeded_state(with_history=False)
        sizes = {}
        for t in range(1, 31):
            X = rng.standard_normal((40, 2))
            batch = Batch(t=t, X=X, y=X @ np.array([1.0, -1.0]), covariates=("a", "b"))
            state = update(state, batch, 1.0)
            sizes[t] = len(cio.state_to_doc(state)["past"]["factor"]["upper"])
        assert state.past.rows == 1200
        assert sizes[2] == sizes[30] == len(base64.b64encode(bytes(8 * 6)))

    def test_schema_1_files_are_migrated_on_read(self, tmp_path):
        state = seeded_state()
        path = tmp_path / "old.json"
        path.write_text(json.dumps(schema_1_document(state, [seeded_batch()])))
        loaded = cio.read_state(str(path))
        assert cio.state_to_doc(loaded) == cio.state_to_doc(state)
        cio.write_state(loaded, str(path))
        assert json.loads(path.read_text())["schema"] == "ridge-relay-state/3"

    def test_undecodable_or_unreadable_state_files_are_reported(self, tmp_path):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"schema": "caf\xe9"}')
        for path in (str(latin), str(tmp_path)):
            with pytest.raises(StateFileError):
                cio.read_state(path)
        with pytest.raises(StateFileError):
            cio.write_state(seeded_state(), str(tmp_path))

    def test_a_lock_taken_on_an_unlinked_file_is_taken_again(self, tmp_path, monkeypatch):
        """A holder that releases between this run's open and its flock has
        unlinked the file this run opened; the lock that counts is the one
        on the file the path names, so the run locks that one."""
        path = str(tmp_path / "model.json")
        real_flock = fcntl.flock
        calls = []

        def release_first(fd, op):
            if not calls:
                os.unlink(path + ".lock")
            calls.append(fd)
            return real_flock(fd, op)

        open(path + ".lock", "w").close()
        monkeypatch.setattr(cio.fcntl, "flock", release_first)
        with cio.state_lock(path):
            monkeypatch.setattr(cio.fcntl, "flock", real_flock)
            assert len(calls) == 2
            with open(path + ".lock") as other:
                with pytest.raises(BlockingIOError):
                    fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert not os.path.exists(path + ".lock")

    def test_lock_holder_removes_its_own_leftover_temporary_files(self, tmp_path):
        """A write killed before its rename leaves ``.tmp-<name>-*.tmp``;
        the next lock holder of that state removes it, and nothing of a
        neighbouring state or plot dataset."""
        path = str(tmp_path / "model.json")
        cio.write_state(seeded_state(), path)
        own = tmp_path / ".tmp-model.json-a1b2c3d4.tmp"
        kept = [tmp_path / ".tmp-model.json-old-a1b2c3d4.tmp",
                tmp_path / ".tmp-model-a1b2c3d4.tmp",
                tmp_path / ".tmp-curves.csv-a1b2c3d4.tmp",
                tmp_path / ".tmp-model.json.lock-a1b2c3d4.tmp"]
        for leftover in [own] + kept:
            leftover.write_text("partial")
        with cio.state_lock(path):
            assert not own.exists()
            assert all(leftover.exists() for leftover in kept)

    def test_crashed_write_leftover_is_gone_after_the_next_update(self, tmp_path):
        state = seeded_state()
        path = str(tmp_path / "model.json")
        cio.write_state(state, path)
        script = textwrap.dedent("""
            import os, sys
            import ridge_relay.cli_io as cio
            os.replace = lambda src, dst: os._exit(9)
            cio._atomic_write_text(sys.argv[1], "GARBAGE")
        """)
        for target in (path, str(tmp_path / "neighbour.json")):
            proc = subprocess.run([sys.executable, "-c", script, target],
                                  capture_output=True)
            assert proc.returncode == 9
        leftovers = sorted(n for n in os.listdir(tmp_path) if n.startswith(".tmp-"))
        assert [n.split("-")[1] for n in leftovers] == ["model.json", "neighbour.json"]
        data = str(tmp_path / "b.csv")
        batch_csv(data, np.random.default_rng(3), n=12, coef=[1.0, 2.0])
        code, _, err = run_cli("update", "--state", path, "--data", data,
                               "--response", "y", "--k-folds", "3")
        assert code == 0, err
        remaining = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert remaining == [leftovers[1]]


@st.composite
def chains(draw):
    """A family, the batches an update chain folded in, the state it built,
    and an arriving batch.

    The chain may start from a fit-first batch (t = 0) or from a zero
    target. Batches may add covariates, lack some, list them in another
    order than the registry, or have more covariates than rows.
    """
    family = draw(st.sampled_from(["linear", "logistic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_updates = draw(st.integers(1, 4))
    fit_first = draw(st.booleans())
    pool = [f"x{j}" for j in range(6)]
    coef = rng.standard_normal(len(pool))
    known = pool[:int(rng.integers(1, 3))]

    def make_batch(t):
        names = [n for n in known if rng.random() < 0.7] or known[:1]
        new = pool[len(known):len(known) + int(rng.integers(0, 2))]
        names = [names[i] for i in rng.permutation(len(names))] + new
        known.extend(new)
        rows = int(rng.integers(2, 9))
        X = rng.standard_normal((rows, len(names)))
        eta = X @ coef[[pool.index(n) for n in names]]
        y = eta + 0.3 * rng.standard_normal(rows) if family == "linear" \
            else (rng.random(rows) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        return Batch(t=t, X=X, y=y, covariates=tuple(names), family=family)

    sel = PenaltySearchConfig(k_folds=2, constrained=False, grid=(0.1, 1.0, 10.0))
    if fit_first:
        first = make_batch(0)
        state = fit_first_batch(first, sel)[0]
        batches = [first]
    else:
        state = EstimatorState(family=family, registry=CovariateRegistry(tuple(known)),
                               init_target=CoefficientVector({n: 0.0 for n in known}))
        batches = []
    for t in range(1, n_updates + 1):
        batch = make_batch(t)
        state = get_family(family).update(state, batch, float(rng.choice([0.1, 1.0, 10.0])))
        batches.append(batch)
    return state, batches, make_batch(n_updates + 1)


class TestStateFileProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(chains())
    def test_schema_1_file_migrates_to_the_state_update_built(self, chain):
        """The migrated state holds the same past data to the bit, so its
        selection report is the same to the bit."""
        state, batches, arriving = chain
        text = json.dumps(schema_1_document(state, batches))
        migrated = cio.doc_to_state(json.loads(text))
        assert cio.state_to_doc(migrated) == cio.state_to_doc(state)
        cfg = PenaltySearchConfig(k_folds=2, grid=(0.01, 0.1, 1.0, 10.0, 100.0))
        reports = [json.dumps(select_penalty(s, arriving, cfg).to_dict(), sort_keys=True)
                   for s in (migrated, state)]
        assert reports[0] == reports[1]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(chains())
    def test_load_and_save_reproduce_the_bytes(self, tmp_path_factory, chain):
        state = chain[0]
        directory = tmp_path_factory.mktemp("bytes")
        first, second = str(directory / "a.json"), str(directory / "b.json")
        cio.write_state(state, first)
        cio.write_state(cio.read_state(first), second)
        assert Path(first).read_bytes() == Path(second).read_bytes()


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

    def test_undecodable_or_unreadable_data_files_are_rejected(self, tmp_path):
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"a,y\n1,2\n3,\xff4\n")
        for path in (str(latin), str(tmp_path)):
            with pytest.raises(ValidationError):
                cio.read_batch_csv(path, "y", t=1, family="linear")

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
        lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,"
        assert lines[3] == "3,-1.5"
        assert json.loads(Path(meta_path).read_text(encoding="utf-8")) == {"kind": "demo", "n": 3}

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
        assert Path(csv_path).read_bytes() == b"t\r\n1\r\n2\r\n"


def cell_by_cell_tables(results):
    """Both simulate tables, one Python value appended per cell: a row per
    (series, coordinate, t) with t running fastest, and a row per (series, t)."""
    quant = {k: [] for k in ("series", "t", "coordinate", "q05", "q50", "q95")}
    curves = {k: [] for k in ("series", "t", "mean_squared_error")}
    for r in results:
        bands = r.quantile_bands()
        for ci, pos in enumerate(r.tracked):
            for ti, t in enumerate(r.t_values):
                quant["series"].append(r.name)
                quant["t"].append(int(t))
                quant["coordinate"].append(int(pos))
                for qi, column in enumerate(("q05", "q50", "q95")):
                    quant[column].append(float(bands[qi, ti, ci]))
        mean = r.mean_loss()
        for ti, t in enumerate(r.t_values):
            curves["series"].append(r.name)
            curves["t"].append(int(t))
            curves["mean_squared_error"].append(float(mean[ti]))
    return quant, curves


def results_with_gaps(rng, shapes):
    """One ``TrajectoryResult`` per (replicates, batches, tracked) shape, with
    scattered NaN cells, a t at which no replicate has a value, and -0.0."""
    out = []
    for s, (R, T, C) in enumerate(shapes):
        est = rng.standard_normal((R, T, C))
        est[rng.random((R, T, C)) < 0.2] = np.nan
        est[:, 0] = np.nan
        est[0, -1, 0] = -0.0
        loss = rng.random((R, T))
        loss[:, 0] = np.nan
        loss[rng.random((R, T)) < 0.2] = np.nan
        tracked = tuple(sorted(rng.choice(np.arange(1, 9), C, replace=False).tolist()))
        out.append(TrajectoryResult(name=f"series-{s}", t_values=np.arange(1, T + 1),
                                    tracked=tracked, estimates=est, losses=loss,
                                    lambdas=np.ones((R, T))))
    return out


class TestTrajectoryTables:
    @pytest.mark.parametrize("shapes", [[(1, 1, 1)], [(3, 4, 2), (2, 4, 2)],
                                        [(5, 3, 4), (1, 3, 4), (4, 3, 4)]])
    def test_columns_equal_a_cell_by_cell_loop(self, shapes):
        results = results_with_gaps(np.random.default_rng(len(shapes)), shapes)
        config = ScenarioConfig(p=8, tracked=results[0].tracked)
        quant, curves = cio._trajectory_datasets("demo", config, results)
        want_quant, want_curves = cell_by_cell_tables(results)
        for got, want in ((quant.columns, want_quant), (curves.columns, want_curves)):
            assert list(got) == list(want)
            for name in want:
                # repr tells int from float, -0.0 from 0.0, and reads NaN as "nan"
                assert list(map(repr, got[name])) == list(map(repr, want[name])), name
        assert quant.name == "demo_quantile_trajectories" and curves.name == "demo_mse_curves"
        assert quant.metadata == curves.metadata
        assert quant.metadata["series"] == [r.name for r in results]


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
                                      np.zeros(batch.p))
        state = cio.read_state(path)
        np.testing.assert_array_equal(
            state.current.as_array(batch.covariates), expected)
        assert report["lam"] == chosen.chosen_lambda
        assert state.past.rows == 30
        np.testing.assert_array_equal(state.past.factor,
                                      fold_triangular(None, batch.X, batch.y).factor)

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

    def test_a_state_written_during_the_fit_is_left_as_it_is(self, tmp_path, monkeypatch):
        """``init`` checks for an existing state under the lock, just before
        it writes: a state another ``init`` wrote while this one was fitting
        is refused with exit 2 and keeps its bytes."""
        data = str(tmp_path / "first.csv")
        batch_csv(data, np.random.default_rng(17), n=30, coef=[2.0, -1.0])
        path = str(tmp_path / "m.json")
        real_fit = cio.fit_first_batch
        written = []

        def fit_while_another_init_runs(*args):
            assert run_cli("init", "--state", path, "--covariates", "a")[0] == 0
            written.append(Path(path).read_bytes())
            return real_fit(*args)

        monkeypatch.setattr(cio, "fit_first_batch", fit_while_another_init_runs)
        code, out, err = run_cli("init", "--state", path, "--data", data, "--response", "y")
        assert code == 2 and out == "" and "--force" in err
        assert Path(path).read_bytes() == written[0]
        assert not os.path.exists(path + ".lock")

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
        assert Path(path).read_bytes() == Path(twin).read_bytes()

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

    def test_a_fractional_record_index_exits_2_and_leaves_the_state(self, tmp_path):
        path, data, _ = self.init_and_first_batch(tmp_path)
        assert run_cli("update", "--state", path, "--data", data, "--response", "y")[0] == 0
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        doc["history"][0]["t"] = 2.5
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        before = Path(path).read_bytes()
        code, out, err = run_cli("update", "--state", path, "--data", data,
                                 "--response", "y")
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "2.5" in err and "Traceback" not in err
        assert Path(path).read_bytes() == before

    def test_negative_seed_exits_2_and_leaves_the_state(self, tmp_path):
        path, data, _ = self.init_and_first_batch(tmp_path)
        before = Path(path).read_bytes()
        code, out, err = run_cli("update", "--state", path, "--data", data,
                                 "--response", "y", "--seed", "-1")
        assert code == 2 and out == "" and err.startswith("error: ")
        assert Path(path).read_bytes() == before
        assert not os.path.exists(path + ".lock")
        fresh = str(tmp_path / "fresh.json")
        code, _, err = run_cli("init", "--state", fresh, "--data", data,
                               "--response", "y", "--seed", "-2")
        assert code == 2 and err.startswith("error: ")
        assert not os.path.exists(fresh) and not os.path.exists(fresh + ".lock")

    @pytest.mark.parametrize("call", ["ftruncate", "write", "log-fsync", "state-fsync",
                                      "replace", "directory-open"])
    def test_an_update_killed_in_its_write_leaves_the_old_or_the_new_state(self, tmp_path,
                                                                            call):
        """SIGKILL at each write point of an update, one child process each:
        the log's cut-back of a line a crashed write left, its append, its
        fsync, the state file's fsync, the rename, and the directory's open
        for its fsync. The state file holds the old bytes before the rename
        and the new bytes after it; ``export`` prints exactly that state's
        records; and the next update succeeds, giving the state and log an
        uninterrupted update gives. The dead run's lock file stays behind
        with no holder; the next update takes it over and removes the
        leftover temporary file."""
        path, data, rng = self.init_and_first_batch(tmp_path)
        log = path + cio.LOG_SUFFIX
        assert run_cli("update", "--state", path, "--data", data, "--response", "y",
                       "--k-folds", "4")[0] == 0
        second = str(tmp_path / "b2.csv")
        batch_csv(second, rng, n=20, coef=[1.0, -0.5])
        args = ["--data", second, "--response", "y", "--k-folds", "4"]
        twin = str(tmp_path / "twin.json")
        shutil.copyfile(path, twin)
        shutil.copyfile(log, twin + cio.LOG_SUFFIX)
        assert run_cli("update", "--state", twin, *args)[0] == 0
        old, new = Path(path).read_bytes(), Path(twin).read_bytes()
        old_log, new_log = Path(log).read_bytes(), Path(twin + cio.LOG_SUFFIX).read_bytes()
        exports = {"old": run_cli("export", "--state", path),
                   "new": run_cli("export", "--state", twin)}
        # A write killed after its log append left record 2 behind; this
        # update must cut it back before appending its own.
        shutil.copyfile(twin + cio.LOG_SUFFIX, log)
        script = textwrap.dedent("""
            import os, signal, sys
            import ridge_relay.cli_io as cio

            def die(*args):
                os.kill(os.getpid(), signal.SIGKILL)

            call, argv = sys.argv[1], sys.argv[2:]
            if call == "directory-open":
                directory = os.path.dirname(os.path.abspath(argv[argv.index("--state") + 1]))
                real_open = os.open
                os.open = lambda path, *rest: (die() if path == directory
                                               else real_open(path, *rest))
            elif call.endswith("fsync"):
                real_fsync, calls = os.fsync, []
                nth = 1 if call == "log-fsync" else 2

                def fsync(fd):
                    calls.append(fd)
                    return die() if len(calls) == nth else real_fsync(fd)

                os.fsync = fsync
            else:
                setattr(os, call, die)
            sys.exit(cio.main(argv))
        """)
        proc = subprocess.run([sys.executable, "-c", script, call, "update", "--state", path,
                               *args], capture_output=True, env=package_env(), timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        renamed = call == "directory-open"
        assert Path(path).read_bytes() == (new if renamed else old)
        assert Path(log).read_bytes() == (old_log if call == "write" else new_log)
        cio.read_state(path)
        assert run_cli("export", "--state", path) == exports["new" if renamed else "old"]
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-m.json-")]
        assert len(leftovers) == (1 if call in ("state-fsync", "replace") else 0)
        assert os.path.exists(path + ".lock")
        code, _, err = run_cli("update", "--state", path, *args)
        assert code == 0, err
        if not renamed:
            assert Path(path).read_bytes() == new
            assert Path(log).read_bytes() == new_log
        assert not os.path.exists(path + ".lock")
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]

    def test_a_leftover_lock_file_with_no_holder_is_taken_over(self, tmp_path):
        path, data, _ = self.init_and_first_batch(tmp_path)
        with open(path + ".lock", "w") as fh:
            fh.write("424242\n")
        code, _, err = run_cli("update", "--state", path, "--data", data,
                               "--response", "y")
        assert code == 0, err
        assert cio.read_state(path).t == 1
        assert not os.path.exists(path + ".lock")

    def test_a_live_lock_holder_exits_4_and_leaves_the_state(self, tmp_path):
        """Another open file description holding the flock, as a running
        update's does, makes an update exit 4; the state and the holder's
        lock file are left as they are."""
        path, data, _ = self.init_and_first_batch(tmp_path)
        before = Path(path).read_bytes()
        with open(path + ".lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            code, out, err = run_cli("update", "--state", path, "--data", data,
                                     "--response", "y")
            assert code == 4 and out == "" and "lock" in err
            assert os.path.exists(path + ".lock")
        assert Path(path).read_bytes() == before

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
        path = tmp_path / "m.json"
        log = tmp_path / ("m.json" + cio.LOG_SUFFIX)
        assert run_cli("init", "--state", str(path), "--covariates", "x1,x2")[0] == 0
        first = str(tmp_path / "a.csv")
        batch_csv(first, rng, n=18, coef=[1.0, 0.5])
        assert run_cli("update", "--state", str(path), "--data", first, "--response", "y",
                       "--k-folds", "3")[0] == 0
        before, log_before = path.read_bytes(), log.read_bytes()
        data = str(tmp_path / "b.csv")
        batch_csv(data, rng, n=18, coef=[1.0, 0.5])
        code, out, _ = run_cli("select-lambda", "--state", str(path),
                               "--data", data, "--response", "y",
                               "--k-folds", "3", "--grid-points", "7")
        assert code == 0
        report = json.loads(out)
        assert isinstance(report["chosen_lambda"], float)
        assert report["constrained"] is True
        assert len(report["cv_curve"]) == 7
        for cand in report["cv_curve"]:
            assert set(cand) >= {"lam", "score", "feasible"}
        assert path.read_bytes() == before
        assert log.read_bytes() == log_before
        # The printed layout keeps the weight keys, always null.
        assert set(report) == {"chosen_lambda", "chosen_weights", "score", "constrained",
                               "fallback_used", "new_fraction", "k_folds", "seed",
                               "cv_curve"}
        assert report["chosen_weights"] is None
        for cand in report["cv_curve"]:
            assert set(cand) == {"lam", "weights", "score", "feasible", "lhs", "rhs"}
            assert cand["weights"] is None

    def test_an_infinite_grid_bound_exits_2_with_one_error_line(self, tmp_path):
        """The bound is refused before NumPy spaces the grid, so stderr holds
        the error line and no RuntimeWarning."""
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1")[0] == 0
        data = str(tmp_path / "b.csv")
        batch_csv(data, np.random.default_rng(31), n=12, coef=[2.0])
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "ridge_relay",
                               "select-lambda", "--state", path, "--data", data,
                               "--response", "y", "--grid-max", "inf"],
                              capture_output=True, env=package_env(), timeout=120)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 2
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    def test_a_grid_past_the_element_cap_exits_2(self, tmp_path):
        """A grid size NumPy would fail to space, or one past the element
        cap, is refused by name before anything is allocated."""
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1")[0] == 0
        data = str(tmp_path / "b.csv")
        batch_csv(data, np.random.default_rng(31), n=12, coef=[2.0])
        for points in ("9223372036854775807", str(2 ** 24 + 1)):
            code, out, err = run_cli("select-lambda", "--state", path, "--data", data,
                                     "--response", "y", "--grid-points", points)
            assert code == 2 and out == ""
            assert err == f"error: points must be an integer in 1..{2 ** 24}, got {points}\n"

    @pytest.mark.parametrize("command", ["select-lambda", "update", "init"])
    def test_a_grid_too_large_for_the_batch_exits_2_before_it_is_built(self, tmp_path,
                                                                      monkeypatch, command):
        """2**20 penalties pass the grid's own cap, but a fold fit's (n, L)
        predictors would hold 18 * 2**20 values, past the element cap (and
        init's leave-one-out block three times that): the command exits 2
        naming --grid-points before any grid or array is made, and the
        state is left as it was."""
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1,x2")[0] == 0
        before = Path(path).read_bytes()
        data = str(tmp_path / "b.csv")
        batch_csv(data, np.random.default_rng(31), n=18, coef=[2.0, 1.0])

        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(cio, "default_grid", no_grid)
        argv = ["--data", data, "--response", "y", "--grid-points", str(2 ** 20)]
        if command == "init":
            argv = ["--state", path, "--force", *argv]
        else:
            argv = ["--state", path, *argv]
        code, out, err = run_cli(command, *argv)
        held = (3 if command == "init" else 1) * 18 * 2 ** 20
        assert code == 2 and out == ""
        assert err.startswith(f"error: --grid-points {2 ** 20} would make selection hold "
                              f"{held} values in one array for 18 rows over 2 ")
        assert err.endswith(f"past the cap of {2 ** 24}\n")
        assert Path(path).read_bytes() == before

    def test_the_selection_count_takes_each_array_at_its_size(self):
        """The largest array a selection would hold: the (p, L) coefficients
        or (n, L) predictors, the linear leave-one-out (p + 1, L, n) block,
        the logistic (L, p, p) normal matrices. A grid that brings it to
        the cap exactly is admitted and built."""
        count = penalty_tuning.selection_elements
        assert count("linear", 30, 20, 50, False) == 30 * 50
        assert count("linear", 30, 20, 50, True) == 31 * 50 * 20
        assert count("logistic", 30, 20, 50, True) == 50 * 30 * 30
        assert count("linear", 3, 200, 7, False) == 200 * 7
        args = cio.build_parser().parse_args(
            ["select-lambda", "--state", "m.json", "--data", "d.csv", "--response", "y",
             "--grid-points", str(2 ** 14)])
        assert len(cio._selection_config(args, "linear", 2, 2 ** 10).grid) == 2 ** 14
        with pytest.raises(ValidationError, match="--grid-points"):
            cio._selection_config(args, "linear", 2, 2 ** 10 + 1)

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


class TestResponseOnlyCsv:
    """A CSV with no covariate column is refused by both readers, with one
    message, before any command writes."""

    def test_both_readers_refuse_it_with_one_message(self, tmp_path):
        data = str(tmp_path / "only_y.csv")
        write_csv(data, ["y"], [[1.0], [0.0]])
        messages = []
        for read in (lambda: cio.read_batch_csv(data, "y", t=1, family="linear"),
                     lambda: cio.read_covariate_csv(data, CovariateRegistry(("a",)), drop="y")):
            with pytest.raises(ValidationError) as info:
                read()
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"{data!r} has no covariate columns"

    def test_init_update_and_select_lambda_exit_2_and_write_nothing(self, tmp_path):
        rng = np.random.default_rng(23)
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "a,b")[0] == 0
        first = str(tmp_path / "b1.csv")
        write_csv(first, ["a", "b", "y"], rng.standard_normal((12, 3)))
        assert run_cli("update", "--state", path, "--data", first, "--response", "y",
                       "--k-folds", "3")[0] == 0
        data = str(tmp_path / "only_y.csv")
        write_csv(data, ["y"], [[1.0], [2.0], [0.5], [3.0], [-1.0], [0.25]])
        log = path + cio.LOG_SUFFIX
        before = Path(path).read_bytes(), Path(log).read_bytes()
        fresh = str(tmp_path / "fresh.json")
        for argv in (("init", "--state", fresh, "--data", data, "--response", "y"),
                     ("init", "--state", path, "--data", data, "--response", "y", "--force"),
                     ("update", "--state", path, "--data", data, "--response", "y"),
                     ("select-lambda", "--state", path, "--data", data, "--response", "y")):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == ""
            assert "no covariate columns" in err and "Traceback" not in err
        assert (Path(path).read_bytes(), Path(log).read_bytes()) == before
        assert not os.path.exists(fresh) and not os.path.exists(fresh + cio.LOG_SUFFIX)


class TestNonFiniteCells:
    """``init --data``, ``update`` and ``select-lambda`` refuse a cell that is
    not finite with ``predict``'s message, naming the file, data row and
    column, and write nothing; ``predict`` ignores the column it drops."""

    def state_and_data(self, tmp_path):
        rng = np.random.default_rng(31)
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "a,b")[0] == 0
        data = str(tmp_path / "b2.csv")
        rows = rng.standard_normal((8, 3))
        rows[1, 1] = np.inf
        write_csv(data, ["a", "b", "y"], rows)
        return path, data

    @pytest.mark.parametrize("command", ["init", "update", "select-lambda"])
    def test_the_command_names_the_cell(self, tmp_path, command):
        path, data = self.state_and_data(tmp_path)
        before = Path(path).read_bytes()
        target = str(tmp_path / "fresh.json") if command == "init" else path
        code, out, err = run_cli(command, "--state", target, "--data", data,
                                 "--response", "y")
        assert (code, out) == (2, "")
        assert err == f"error: {data!r} data row 2: column 'b' is not finite\n"
        assert Path(path).read_bytes() == before
        assert not os.path.exists(str(tmp_path / "fresh.json"))

    def test_predict_accepts_a_nan_in_the_dropped_response(self, tmp_path):
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "a")[0] == 0
        data = str(tmp_path / "d.csv")
        write_csv(data, ["a", "y"], [[3.0, float("nan")]])
        code, out, _ = run_cli("predict", "--state", path, "--data", data, "--response", "y")
        assert (code, out) == (0, "0.0\n")


class TestByteOrderMark:
    """A CSV that starts with a UTF-8 byte-order mark, as Excel's "CSV UTF-8"
    export writes, reads as the same CSV without it."""

    def csv_pair(self, tmp_path, header, rows):
        plain, marked = str(tmp_path / "plain.csv"), str(tmp_path / "marked.csv")
        write_csv(plain, header, rows)
        with open(plain, "rb") as fh:
            text = fh.read()
        with open(marked, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + text)
        return plain, marked

    def test_update_writes_the_same_state(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((16, 2))
        y = X @ np.array([1.5, -0.5]) + 0.1 * rng.standard_normal(16)
        csvs = self.csv_pair(tmp_path, ["a", "b", "y"], np.column_stack([X, y]))
        states = []
        for i, data in enumerate(csvs):
            path = str(tmp_path / f"m{i}.json")
            assert run_cli("init", "--state", path, "--covariates", "a,b")[0] == 0
            code, _, err = run_cli("update", "--state", path, "--data", data,
                                   "--response", "y", "--k-folds", "4")
            assert code == 0 and err == ""
            with open(path, "rb") as fh:
                states.append(fh.read())
        assert states[0] == states[1]
        assert cio.read_state(str(tmp_path / "m1.json")).registry.names == ("a", "b")

    def test_predict_gives_the_same_output(self, tmp_path):
        path = str(tmp_path / "m.json")
        cio.write_state(start_state("linear", ("a", "b"),
                                    CoefficientVector({"a": 2.0, "b": -1.0})), path)
        outputs = []
        for data in self.csv_pair(tmp_path, ["a", "b"], [[1.0, 3.0], [0.5, -2.0]]):
            code, out, err = run_cli("predict", "--state", path, "--data", data)
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1] == "-1.0\n3.0\n"


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
        meta_path = quant[0].replace(".csv", ".meta.json")
        meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
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
            assert Path(f1).read_bytes() == Path(f2).read_bytes()

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


def state_file_args(tmp_path, edit, schema=3):
    """``export`` of a one-update state file whose document, in the layout
    of ``schema``, ``edit`` changed."""
    state = seeded_state()
    if schema == 3:
        doc = cio.state_to_doc(state)
    elif schema == 2:
        doc = schema_2_document(state)
    else:
        doc = schema_1_document(state, [seeded_batch()])
    edit(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return ["export", "--state", str(path)]


def scenario_args(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return ["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]


SMALL_SCENARIO = {"study": "regular-vs-updated", "p": 3, "n": 4, "n_batches": 2,
                  "n_replicates": 1, "grid_points": 4}
NAN, INF = float("nan"), float("inf")
# field -> scenario edits breaking its rule: a value of the wrong type first,
# then values out of range
BAD_SCENARIO_FIELDS = {
    "study": [{"study": 3}, {"study": "nope"}],
    "family": [{"family": ["linear"]}, {"family": "poisson"}],
    "p": [{"p": "3"}, {"p": 0}, {"p": 10 ** 20}],
    "n": [{"n": 2.5}, {"n": 0}, {"n": 10 ** 20}],
    "n_batches": [{"n_batches": True}, {"n_batches": 0}],
    "n_replicates": [{"n_replicates": "1"}, {"n_replicates": -1}],
    "beta_rule": [{"beta_rule": {"x1": 1.0}}, {"beta_rule": "flat"},
                  {"beta_rule": [1.0, 2.0]}, {"beta_rule": [1.0, NAN, 0.0]}],
    "noise_var": [{"noise_var": "0.1"}, {"noise_var": -0.5}, {"noise_var": NAN},
                  {"noise_var": INF}, {"noise_var": -INF}, {"noise_var": 10 ** 400}],
    "batch_effect_var": [{"batch_effect_var": True}, {"batch_effect_var": -1},
                         {"batch_effect_var": NAN}, {"batch_effect_var": INF},
                         {"batch_effect_var": -INF}],
    "empty_every": [{"empty_every": 2.5}, {"empty_every": 1}],
    "orthonormal": [{"orthonormal": 1}, {"orthonormal": True, "n": 2}],
    "seed": [{"seed": 1.5}, {"seed": -1}],
    "k_folds": [{"k_folds": "3"}, {"k_folds": 1}],
    "constrained": [{"constrained": "yes"}, {"constrained": 0}],
    "grid_min": [{"grid_min": "small"}, {"grid_min": 0}, {"grid_min": -INF}],
    "grid_max": [{"grid_max": [1.0]}, {"grid_max": 1e-5}, {"grid_max": INF},
                 {"grid_max": 10 ** 400}],
    "grid_points": [{"grid_points": "4"}, {"grid_points": 0}, {"grid_points": -1},
                    {"grid_points": 10 ** 20}],
    "mixed_ratio_grid_points": [{"mixed_ratio_grid_points": 2.5},
                                {"mixed_ratio_grid_points": -1},
                                {"mixed_ratio_grid_points": 10 ** 20}],
    "tracked": [{"tracked": 1}, {"tracked": [1.0]}, {"tracked": []}, {"tracked": [0]},
                {"tracked": [4]}],
}


def test_the_field_table_covers_every_scenario_field():
    assert list(BAD_SCENARIO_FIELDS) == list(ScenarioConfig._fields)


@pytest.mark.parametrize("field, edit", [
    pytest.param(field, edit, id=f"{field}-{i}")
    for field, edits in BAD_SCENARIO_FIELDS.items() for i, edit in enumerate(edits)])
def test_a_bad_scenario_field_is_named_before_any_output(tmp_path, field, edit):
    """Exit 2 with one error line that names the field, no warning, and no
    file written."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(*scenario_args(tmp_path, {**SMALL_SCENARIO, **edit}))
    assert code == 2 and out == "" and caught == []
    assert err.startswith(f"error: scenario field {field!r} must be ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_a_non_finite_variance_prints_only_the_error_line(tmp_path):
    """In a process of its own, a non-finite variance leaves nothing on
    stderr but the error line: no NumPy warning."""
    argv = scenario_args(tmp_path, {**SMALL_SCENARIO, "batch_effect_var": INF})
    proc = subprocess.run([sys.executable, "-m", "ridge_relay", *argv],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: scenario field 'batch_effect_var' must be a finite "
                           "number, got inf\n")


def test_sidecars_write_numbers_as_the_scenario_gives_them(tmp_path):
    """An integer given for a float field is written back as that integer."""
    code, _, _ = run_cli(*scenario_args(tmp_path, {**SMALL_SCENARIO, "noise_var": 1,
                                                   "grid_min": 1}))
    assert code == 0
    expected = (
        b'{"config":{"batch_effect_var":0.0,"beta_rule":"ramp","constrained":null,'
        b'"empty_every":null,"family":"linear","grid_max":1000000.0,"grid_min":1,'
        b'"grid_points":4,"k_folds":null,"mixed_ratio_grid_points":25,"n":4,'
        b'"n_batches":2,"n_replicates":1,"noise_var":1,"orthonormal":false,"p":3,'
        b'"seed":0,"study":"regular-vs-updated","tracked":null},'
        b'"quantiles":[0.05,0.5,0.95],"series":["regular","updated"],'
        b'"study":"regular-vs-updated","tracked":[1,2,3]}\n')
    for name in ("quantile_trajectories", "mse_curves"):
        path = tmp_path / "out" / f"regular-vs-updated_{name}.meta.json"
        assert path.read_bytes() == expected


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
        tmp, lambda doc: doc["batches"][0]["x"][0].pop(), schema=1),
    "batch-cell-past-float-range": lambda tmp: state_file_args(
        tmp, lambda doc: doc["batches"][0]["x"][0].__setitem__(0, 10 ** 400), schema=1),
    "past-non-object": lambda tmp: state_file_args(
        tmp, lambda doc: doc.update(past=[1.0])),
    "past-unknown-field": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"].update(extra=1)),
    "past-row-count-text": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"].update(rows="12")),
    "past-base64-garbage": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"]["factor"].update(base64="not base64!"), schema=2),
    "past-upper-garbage": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"]["factor"].update(upper="not base64!")),
    "past-upper-not-square": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"]["factor"].update(shape=[3, 2])),
    "past-short-array": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"]["factor"].update(shape=[4, 4])),
    "past-negative-shape": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"]["factor"].update(shape=[-3, -3])),
    "past-factor-not-triangular": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"]["factor"].update(
            base64=cio._encode_array(np.ones((3, 3)))["base64"]), schema=2),
    "past-factor-non-finite": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"]["factor"].update(
            upper=cio._encode_array(np.full(6, np.nan))["base64"])),
    "past-wider-than-registry": lambda tmp: state_file_args(
        tmp, lambda doc: doc["past"].update(factor=cio._encode_array(np.eye(4)))),
    "scenario-string-p": lambda tmp: scenario_args(
        tmp, {"study": "regular-vs-updated", "p": "11"}),
    "scenario-list": lambda tmp: scenario_args(tmp, [{"p": 3}]),
    "scenario-negative-seed": lambda tmp: scenario_args(
        tmp, {"study": "regular-vs-updated", "p": 3, "seed": -1}),
    "scenario-init-mode": lambda tmp: scenario_args(
        tmp, {"study": "regular-vs-updated", "p": 3, "n_batches": 2, "n_replicates": 1,
              "grid_points": 4, "init_mode": "truth-target"}),
    "scenario-negative-ratio-grid": lambda tmp: scenario_args(
        tmp, {"study": "mixed-vs-updated", "p": 3, "n": 4, "n_batches": 2, "n_replicates": 1,
              "grid_points": 4, "mixed_ratio_grid_points": -1}),
    "scenario-empty-tracked": lambda tmp: scenario_args(
        tmp, {"study": "regular-vs-updated", "p": 3, "n_batches": 2, "n_replicates": 1,
              "grid_points": 4, "tracked": []}),
}


@pytest.mark.parametrize("case", sorted(BAD_JSON_VALUES))
def test_bad_json_values_exit_2(tmp_path, case):
    """Well-formed JSON holding a value of the wrong type or shape is bad
    input: exit 2 with an error line, never a traceback."""
    code, out, err = run_cli(*BAD_JSON_VALUES[case](tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("args", [
    lambda tmp: scenario_args(tmp, {"study": "regular-vs-updated", "p": 2, "n": 5,
                                    "n_batches": 2, "n_replicates": 1,
                                    "beta_rule": [1.0, [2.0]]}),
    lambda tmp: target_file_args(tmp, {"a": 1.0, "b": [1.0]}),
], ids=["simulate-beta-rule", "init-target-file"])
def test_a_ragged_number_list_exits_2_with_one_error_line(tmp_path, args):
    """A list NumPy cannot make an array of, a number beside a list of
    one, is refused as bad input, not raised as NumPy's ``ValueError``."""
    code, out, err = run_cli(*args(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "ragged" in err and err.count("\n") == 1


@pytest.mark.parametrize("study", ["regular-vs-updated", "mixed-vs-updated"])
@pytest.mark.parametrize("bad", [{"mixed_ratio_grid_points": -1}, {"grid_points": 0},
                                 {"grid_min": 10.0, "grid_max": 1.0}],
                         ids=["ratio-points", "grid-points", "grid-bounds"])
def test_a_bad_grid_fails_either_study_before_any_output(tmp_path, study, bad):
    """Each study builds only the grids it uses, but a scenario's grids
    follow their rules in both: exit 2, and no dataset or sidecar written."""
    doc = {"study": study, "p": 3, "n": 4, "n_batches": 2, "n_replicates": 1,
           "grid_points": 4, **bad}
    code, out, err = run_cli(*scenario_args(tmp_path, doc))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def _latin(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return str(path)


def _state(tmp_path):
    path = str(tmp_path / "m.json")
    cio.write_state(seeded_state(), path)
    return path


def _data(tmp_path):
    path = str(tmp_path / "b.csv")
    batch_csv(path, np.random.default_rng(5), n=12, coef=[1.0, 2.0])
    return path


def _file(tmp_path, name):
    (tmp_path / name).write_text("not a directory\n")
    return name


def _dangling_link(tmp_path):
    """A link to a directory that does not exist: ``os.makedirs`` cannot make
    a directory below it."""
    os.symlink(str(tmp_path / "gone"), str(tmp_path / "link"))
    return "link"


def _simulate_into(tmp_path, out):
    return scenario_args(tmp_path, SMALL_SCENARIO)[:-1] + [out]


UNREADABLE_INPUTS = {
    "update-data-not-utf8": lambda tmp: [
        "update", "--state", _state(tmp),
        "--data", _latin(tmp, "d.csv", "x1,y\n1,2\n3,\xff\n"), "--response", "y"],
    "update-state-not-utf8": lambda tmp: [
        "update", "--state", _latin(tmp, "m.json", '{"schema": "caf\xe9"}'),
        "--data", _data(tmp), "--response", "y"],
    "update-state-is-a-directory": lambda tmp: [
        "update", "--state", ".", "--data", _data(tmp), "--response", "y"],
    "update-state-in-a-missing-directory": lambda tmp: [
        "update", "--state", "absent/m.json", "--data", _data(tmp), "--response", "y"],
    "export-state-not-utf8": lambda tmp: [
        "export", "--state", _latin(tmp, "m.json", '{"schema": "caf\xe9"}')],
    "export-state-is-a-directory": lambda tmp: ["export", "--state", "."],
    "predict-data-is-a-directory": lambda tmp: [
        "predict", "--state", _state(tmp), "--data", "."],
    "init-target-not-utf8": lambda tmp: [
        "init", "--state", "m.json", "--target-file", _latin(tmp, "t.json", '{"\xe9": 1}')],
    "init-state-is-a-directory": lambda tmp: [
        "init", "--state", ".", "--covariates", "a", "--force"],
    "simulate-scenario-not-utf8": lambda tmp: [
        "simulate", "--scenario", _latin(tmp, "s.json", '{"study": "\xe9"}'),
        "--out", "out"],
    "simulate-out-is-a-file": lambda tmp: _simulate_into(tmp, _file(tmp, "taken")),
    "simulate-out-under-a-file": lambda tmp: _simulate_into(tmp, _file(tmp, "taken") + "/out"),
    "simulate-out-under-a-missing-parent": lambda tmp: _simulate_into(
        tmp, _dangling_link(tmp) + "/out"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_inputs_exit_2(tmp_path, monkeypatch, case):
    """A file that is not UTF-8, or a directory where a file belongs, is
    bad input: exit 2 with an error line, never a traceback."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*UNREADABLE_INPUTS[case](tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".lock")]


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


# The general covariate path: batches over rotating and growing covariate
# sets, aligned over a registry that grows to (a, b, c, d). Each response
# follows all four covariates, of which a batch carries only its own.
OVERLAP_SETS = (("a", "b"), ("a", "b", "c"), ("b", "c", "d"), ("a", "d"))
OVERLAP_COEF = np.array([1.0, -0.5, 0.8, 0.3])


def overlap_batches(tmp_path, family):
    """One CSV per covariate set, in ``OVERLAP_SETS`` order. The linear
    (a, d) batch is noise-dominated (sd 10), so shrinking toward the
    previous estimate wins there."""
    rng = np.random.default_rng(0)
    paths = []
    for t, names in enumerate(OVERLAP_SETS):
        n = 30 if family == "linear" else 40
        full = rng.standard_normal((n, 4))
        eta = full @ OVERLAP_COEF
        if family == "linear":
            y = eta + (10.0 if names == ("a", "d") else 0.5) * rng.standard_normal(n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        path = tmp_path / f"{family}-{t}.csv"
        write_csv(path, list(names) + ["y"],
                  np.column_stack([full[:, ["abcd".index(c) for c in names]], y]))
        paths.append(str(path))
    return paths


def overlap_chain(tmp_path, family):
    """What each command prints along the chain: ``init`` on the first
    batch (leave-one-out, its default); ``select-lambda`` with
    leave-one-out and then ``update`` with its default 5 folds on each
    later one; ``predict`` from a file whose columns run (d, c, b, a); and
    ``export``. Choices are ``(lam, fallback_used, feasible count)``."""
    def run(*argv):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, ""), err
        return out

    state = str(tmp_path / f"{family}.json")
    first, *rest = overlap_batches(tmp_path, family)
    answers = {"init": json.loads(run("init", "--state", state, "--family", family,
                                      "--data", first, "--response", "y"))["lam"],
               "select": [], "update": [], "score": []}
    for data in rest:
        report = json.loads(run("select-lambda", "--state", state, "--data", data,
                                "--response", "y", "--loocv"))
        answers["select"].append((report["chosen_lambda"], report["fallback_used"],
                                  sum(c["feasible"] for c in report["cv_curve"])))
        done = json.loads(run("update", "--state", state, "--data", data, "--response", "y"))
        answers["update"].append((done["lam"], done["fallback_used"], done["n_feasible"]))
        answers["score"].append(done["score"])
    rows = np.random.default_rng(8).standard_normal((3, 4))
    write_csv(tmp_path / "new.csv", ["d", "c", "b", "a"], rows)
    answers["predict"] = [float(v) for v in run("predict", "--state", state,
                                                 "--data", str(tmp_path / "new.csv")).split()]
    history, estimate = run("export", "--state", state).split("estimate:\n")
    answers["history"] = [float(line.split("lam=")[1]) for line in history.splitlines()
                          if "lam=" in line]
    answers["estimate"] = [float(line.split("=")[1]) for line in estimate.splitlines()]
    return answers


# What ``overlap_chain`` printed when this test was written: each choice
# ``(lam, fallback_used, feasible count)`` and the history's penalties
# exactly, the scores, predictions and estimates (a, b, c, d) to rtol 1e-7.
OVERLAP_ANSWERS = {
    "linear": {
        "init": 0.7543120063354622,
        "select": [(0.47148663634573945, False, 50), (32.37457542817646, False, 50),
                   (1000000.0, False, 21)],
        "update": [(0.0001, False, 50), (20.235896477251554, False, 50),
                   (1000000.0, False, 21)],
        "score": [3.0272687396361873, 5.105002158491317, 456.90590830292905],
        "predict": [-1.1092655678616914, 0.8478234385167607, 0.8140914501511514],
        "estimate": [1.1557713618074419, -0.5342925867447044, 0.7589135706773068,
                     0.2391517357927797],
    },
    "logistic": {
        "init": 1000000.0,
        "select": [(4.941713361323838, False, 50), (132.57113655901108, False, 50),
                   (4.941713361323838, False, 50)],
        "update": [(1.9306977288832496, False, 50), (1000000.0, False, 50),
                   (4.941713361323838, False, 50)],
        "score": [4.8844181548493575, 4.574945616988307, 4.866199610077443],
        "predict": [0.24089625063140496, 0.40074386593281036, 0.6812335197143399],
        "estimate": [0.6079113993940514, -0.463179154163872, 0.4356330534875165,
                     0.5650287699578238],
    },
}


@pytest.mark.parametrize("family", sorted(OVERLAP_ANSWERS))
def test_the_general_covariate_path_gives_its_recorded_answers(tmp_path, family):
    """Registry growth, targets assembled over older records, zero-padded
    designs and past data that lacks a batch's columns, through every
    command. The linear chain's (a, d) batch chooses the grid's upper
    bound, 1e6, under both leave-one-out and 5 folds, with the constraint
    leaving 21 of the 50 penalties feasible."""
    got = overlap_chain(tmp_path, family)
    want = OVERLAP_ANSWERS[family]
    assert got["init"] == want["init"]
    assert got["select"] == want["select"] and got["update"] == want["update"]
    assert got["history"] == [lam for lam, _, _ in want["update"]]
    for key in ("score", "predict", "estimate"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-7, err_msg=key)
    if family == "linear":
        assert got["select"][-1][0] == got["update"][-1][0] == default_grid()[-1]


def cli_chain(tmp_path, updates, name="m.json", seed=41):
    """A linear state built by ``init`` and ``updates`` CLI updates, and the
    batch files, one per update plus an arriving one."""
    rng = np.random.default_rng(seed)
    path = str(tmp_path / name)
    assert run_cli("init", "--state", path, "--covariates", "x1,x2")[0] == 0
    batches = []
    for t in range(updates + 1):
        data = str(tmp_path / f"{name}-b{t}.csv")
        batch_csv(data, rng, n=16, coef=[1.0, -0.5], t_shift=0.1 * t)
        batches.append(data)
    for data in batches[:-1]:
        assert run_cli("update", "--state", path, "--data", data, "--response", "y",
                       "--k-folds", "4")[0] == 0
    return path, batches


class TestHistoryLog:
    """The state file keeps the newest record; every record 1..t is a line
    of the history log beside it, which only ``export`` reads."""

    def test_each_update_appends_one_line_and_the_state_keeps_the_newest_record(
            self, tmp_path):
        path, batches = cli_chain(tmp_path, 3)
        log = path + cio.LOG_SUFFIX
        lines = Path(log).read_bytes().splitlines(keepends=True)
        assert [json.loads(line)["t"] for line in lines] == [1, 2, 3]
        doc = json.loads(Path(path).read_bytes())
        assert doc["schema"] == "ridge-relay-state/3"
        assert [rec["t"] for rec in doc["history"]] == [3]
        assert lines[-1] == cio._dump(doc["history"][0]).encode()
        assert run_cli("update", "--state", path, "--data", batches[-1], "--response", "y",
                       "--k-folds", "4")[0] == 0
        grown = Path(log).read_bytes()
        assert grown.startswith(b"".join(lines)) and grown.count(b"\n") == 4
        code, out, _ = run_cli("export", "--state", path)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines() if line.startswith("  t=")] == [
            "t=1", "t=2", "t=3", "t=4"]

    def test_an_update_reads_no_more_than_a_window_of_a_long_log(self, tmp_path,
                                                                  monkeypatch):
        """A 300-record log: the update reads the state file, and of the log
        only the window at its end that holds its last line; it does not
        even load the module that reads the log."""
        rng = np.random.default_rng(8)
        state = seeded_state(with_history=False)
        for t in range(1, 301):
            X = rng.standard_normal((6, 2))
            state = update(state, Batch(t=t, X=X, y=X @ [1.0, 2.0], covariates=("a", "b")),
                           1.0)
        path = str(tmp_path / "long.json")
        cio.write_state(state, path)
        assert os.path.getsize(path + cio.LOG_SUFFIX) > 3 * cio._LOG_WINDOW
        real_pread, read = os.pread, []

        def pread(fd, size, offset):
            read.append(size)
            return real_pread(fd, size, offset)

        monkeypatch.setattr(cio.os, "pread", pread)
        monkeypatch.delitem(sys.modules, "ridge_relay.state_history")
        data = str(tmp_path / "b.csv")
        write_csv(data, ["a", "b", "y"], np.column_stack([np.eye(3)[:, :2], [1.0, 2.0, 0.0]]))
        code, out, err = run_cli("update", "--state", path, "--data", data, "--response", "y",
                                 "--k-folds", "3")
        assert code == 0, err
        assert json.loads(out)["t"] == 301 and sum(read) <= cio._LOG_WINDOW
        assert "ridge_relay.state_history" not in sys.modules  # the log reader
        monkeypatch.undo()
        assert len(read_history(path, cio.read_state(path))) == 301

    @pytest.mark.parametrize("schema", [1, 2])
    def test_older_schemas_export_the_same_bytes_before_and_after_migration(self, tmp_path,
                                                                            schema):
        """A /1 or /2 file holds every record and needs no log; its next
        write stores /3 and the full log, and ``export`` prints the same."""
        rng = np.random.default_rng(schema)
        state = seeded_state(with_history=False)
        batches = []
        for t in range(1, 5):
            names = ("a", "b") if t % 2 else ("b", "a")
            X = rng.standard_normal((8, 2))
            batches.append(Batch(t=t, X=X, y=X @ [1.0, -1.0], covariates=names))
            state = update(state, batches[-1], 0.5 * t)
        doc = schema_2_document(state) if schema == 2 else schema_1_document(state, batches)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, indent=2))
        before = run_cli("export", "--state", str(path))
        assert before[0] == 0 and "  t=4 lam=2.0\n" in before[1]
        cio.write_state(cio.read_state(str(path)), str(path))
        assert json.loads(path.read_text())["schema"] == "ridge-relay-state/3"
        assert len(json.loads(path.read_text())["history"]) == 1
        assert Path(str(path) + cio.LOG_SUFFIX).read_bytes().count(b"\n") == 4
        assert run_cli("export", "--state", str(path)) == before

    def test_a_state_copied_without_its_log_updates_but_does_not_export(self, tmp_path):
        """Update, predict and select-lambda of the copy give the original's
        outputs; ``export`` of it exits 2 naming the records it lacks."""
        path, batches = cli_chain(tmp_path, 3)
        copy = str(tmp_path / "copy.json")
        shutil.copyfile(path, copy)
        arriving = ["--data", batches[-1], "--response", "y"]
        for command in ("select-lambda", "update", "predict"):
            outs = [run_cli(command, "--state", state, *arriving) for state in (path, copy)]
            assert outs[0][0] == 0 and outs[0] == outs[1][:1] + (
                outs[1][1].replace(copy, path),) + outs[1][2:]
        assert Path(path).read_bytes() == Path(copy).read_bytes()
        assert [json.loads(line)["t"] for line in
                Path(copy + cio.LOG_SUFFIX).read_bytes().splitlines()] == [3, 4]
        code, out, err = run_cli("export", "--state", copy)
        assert code == 2 and out == ""
        assert err == (f"error: history log {copy + cio.LOG_SUFFIX!r} does not start with "
                       "records t=1..3, which the state file does not keep (it holds "
                       "t=4..4)\n")
        assert run_cli("export", "--state", path)[0] == 0

    def test_lines_past_the_state_and_a_torn_line_are_skipped_then_cut(self, tmp_path):
        """What a write killed after its append leaves: ``export`` prints the
        state's records only, and the next update cuts the rest back before
        it appends, as if the killed write had never run."""
        path, batches = cli_chain(tmp_path, 2)
        log = path + cio.LOG_SUFFIX
        twin = str(tmp_path / "twin.json")
        shutil.copyfile(path, twin)
        shutil.copyfile(log, twin + cio.LOG_SUFFIX)
        arriving = ["--data", batches[-1], "--response", "y", "--k-folds", "4"]
        assert run_cli("update", "--state", twin, *arriving)[0] == 0
        exported = run_cli("export", "--state", path)
        leftover = Path(twin + cio.LOG_SUFFIX).read_bytes().splitlines(keepends=True)[-1]
        with open(log, "ab") as fh:
            fh.write(leftover + leftover[:40])
        assert run_cli("export", "--state", path) == exported
        assert run_cli("update", "--state", path, *arriving)[0] == 0
        assert Path(path).read_bytes() == Path(twin).read_bytes()
        assert Path(log).read_bytes() == Path(twin + cio.LOG_SUFFIX).read_bytes()

    @pytest.mark.parametrize("log", [b"not a record\n", b'{"t": 1}\n',
                                     b"", b"\n".join([b"x"] * 3)])
    def test_a_log_without_the_older_records_exits_2(self, tmp_path, log):
        """A line that is not a record, a record missing a field, an empty
        log, or a torn one: exit 2 with one error line, nothing printed."""
        path, _ = cli_chain(tmp_path, 3)
        with open(path + cio.LOG_SUFFIX, "wb") as fh:
            fh.write(log)
        code, out, err = run_cli("export", "--state", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "history log" in err

    def test_records_out_of_order_exit_2(self, tmp_path):
        path, _ = cli_chain(tmp_path, 3)
        lines = Path(path + cio.LOG_SUFFIX).read_bytes().splitlines(keepends=True)
        with open(path + cio.LOG_SUFFIX, "wb") as fh:
            fh.write(lines[1] + lines[0] + lines[2])
        code, out, err = run_cli("export", "--state", path)
        assert code == 2 and "does not start with records t=1..2," in err

    def test_a_state_whose_newest_record_lacks_a_covariate_keeps_older_ones(self, tmp_path):
        """The state file keeps every record its target needs, so a record
        over part of the registry keeps the one before it there too."""
        state = seeded_state(with_history=False)
        for t, estimate in enumerate(({"a": 1.0, "b": 2.0}, {"a": 3.0}, {"a": 4.0}), 1):
            record = UpdateRecord(t=t, lam=1.0, estimate=CoefficientVector(estimate))
            state = state.with_update(state.registry, record, state.past)
        path = str(tmp_path / "m.json")
        cio.write_state(state, path)
        assert [rec["t"] for rec in json.loads(Path(path).read_bytes())["history"]] == [1, 2, 3]
        loaded = cio.read_state(path)
        assert cio.assemble_target(loaded, ("a", "b")).values == {"a": 4.0, "b": 2.0}
        assert read_history(path, loaded) == state.history

    def test_init_force_leaves_the_log_to_the_next_update(self, tmp_path):
        """A state with no update writes no log; the old chain's lines are
        past its t, so ``export`` skips them and the next update cuts them."""
        path, batches = cli_chain(tmp_path, 2)
        assert run_cli("init", "--state", path, "--covariates", "x1,x2", "--force")[0] == 0
        code, out, _ = run_cli("export", "--state", path)
        assert code == 0 and "history:" not in out
        assert run_cli("update", "--state", path, "--data", batches[0], "--response", "y",
                       "--k-folds", "4")[0] == 0
        assert [json.loads(line)["t"] for line in
                Path(path + cio.LOG_SUFFIX).read_bytes().splitlines()] == [1]


class TestClosedOutputPipe:
    """A reader that closes the pipe early (``| head -1``) ends the command
    quietly with ``EXIT_BROKEN_PIPE``, whatever it was still writing."""

    def run_until_first_line(self, *argv):
        proc = subprocess.Popen([sys.executable, "-m", "ridge_relay", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=package_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return first, proc.wait(timeout=120), err.decode()

    def test_predict(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"a": 2.0, "b": -1.0}))
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--target-file", str(target))[0] == 0
        data = str(tmp_path / "d.csv")
        write_csv(data, ["a", "b"], np.random.default_rng(5).standard_normal((30000, 2)))
        first, code, err = self.run_until_first_line("predict", "--state", path,
                                                     "--data", data)
        assert first.strip()
        assert code == cio.EXIT_BROKEN_PIPE
        assert err == ""  # no traceback, no "Exception ignored" note

    def test_export(self, tmp_path):
        path = str(tmp_path / "m.json")
        names = ",".join(f"x{j}" for j in range(20000))
        assert run_cli("init", "--state", path, "--covariates", names)[0] == 0
        first, code, err = self.run_until_first_line("export", "--state", path)
        assert first.startswith(b"family:")
        assert code == cio.EXIT_BROKEN_PIPE
        assert err == ""  # no traceback, no "Exception ignored" note


class TestFrozenImportHeap:
    """``main`` first moves every object alive at its call to the
    collector's permanent generation (``gc.freeze``). The library leaves
    the collector alone, objects made later are still collected, and a
    command process, whose frozen cycles are never finalized at exit, has
    written and closed every file before ``main`` returns."""

    @pytest.mark.parametrize("module", ["ridge_relay", "ridge_relay.cli_io"])
    def test_importing_the_package_leaves_the_collector_alone(self, module):
        script = f"import gc, {module}; print(gc.get_freeze_count(), gc.isenabled())"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "True"]

    def test_a_cycle_made_after_a_command_is_collected(self, tmp_path):
        path = str(tmp_path / "m.json")
        cio.write_state(seeded_state(), path)
        assert run_cli("export", "--state", path)[0] == 0
        assert gc.get_freeze_count() > 0 and gc.isenabled()

        class Node:
            pass

        a, b = Node(), Node()
        a.other, b.other = b, a
        alive = weakref.ref(a)
        del a, b
        gc.collect()
        assert alive() is None

    def test_a_predict_process_writes_every_line_to_a_file(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"a": 2.0, "b": -1.0}))
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--target-file", str(target))[0] == 0
        data = str(tmp_path / "d.csv")
        write_csv(data, ["a", "b"], np.random.default_rng(5).standard_normal((30000, 2)))
        out = tmp_path / "predictions.txt"
        with open(out, "wb") as fh:
            proc = subprocess.run([sys.executable, "-m", "ridge_relay", "predict", "--state",
                                   path, "--data", data], stdout=fh, stderr=subprocess.PIPE,
                                  env=package_env(), timeout=120)
        assert proc.returncode == 0 and proc.stderr == b""
        code, expected, _ = run_cli("predict", "--state", path, "--data", data)
        assert code == 0 and len(expected.splitlines()) == 30000
        assert out.read_text() == expected

    def test_an_update_process_writes_the_state_an_in_process_update_writes(self, tmp_path):
        path = str(tmp_path / "m.json")
        assert run_cli("init", "--state", path, "--covariates", "x1,x2")[0] == 0
        data = str(tmp_path / "b.csv")
        batch_csv(data, np.random.default_rng(23), n=20, coef=[1.0, -0.5])
        twin = str(tmp_path / "twin.json")
        shutil.copyfile(path, twin)
        args = ["--data", data, "--response", "y", "--k-folds", "4"]
        proc = subprocess.run([sys.executable, "-m", "ridge_relay", "update", "--state", path,
                               *args], capture_output=True, env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert run_cli("update", "--state", twin, *args)[0] == 0
        assert Path(path).read_bytes() == Path(twin).read_bytes()
        assert not os.path.exists(path + ".lock")


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS sizes its pool by the CPUs this process may run on
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((USABLE_CPUS or 1) < 2 or not os.path.isdir("/proc/self/task"),
                    reason="needs two usable CPUs and Linux's /proc/self/task")
@pytest.mark.parametrize("user_setting, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["default", "user-set"])
def test_a_command_process_holds_one_blas_thread_unless_the_user_asks(user_setting, threads):
    """OpenBLAS starts a thread per usable CPU when NumPy loads unless told
    otherwise; the package defaults it to one, and a user's value wins."""
    env = {k: v for k, v in package_env().items() if k not in BLAS_THREADS}
    script = "import os, ridge_relay.cli_io; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**env, **user_setting}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == threads


class TestFileModes:
    """Every file a command writes is created as ``open`` would create it:
    mode 0666 less the process's umask. The state and every dataset go
    through a temporary file that is renamed into place, so its mode is
    the mode of the file the reader finds."""

    SCRIPT = textwrap.dedent("""
        import os, sys
        os.umask(int(sys.argv[1], 8))
        from ridge_relay.cli_io import main
        sys.exit(main(sys.argv[2:]))
    """)

    @pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        def command(*argv):
            proc = subprocess.run([sys.executable, "-c", self.SCRIPT, umask, *argv],
                                  capture_output=True, text=True, env=package_env(),
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr

        path = str(tmp_path / "m.json")
        data = str(tmp_path / "b.csv")
        batch_csv(data, np.random.default_rng(31), n=16, coef=[1.0, -0.5])
        command("init", "--state", path, "--covariates", "x1,x2")
        command("update", "--state", path, "--data", data, "--response", "y",
                "--k-folds", "4")
        command(*scenario_args(tmp_path, SMALL_SCENARIO))
        written = [path, path + cio.LOG_SUFFIX, *sorted(
            str(f) for f in (tmp_path / "out").iterdir())]
        assert len(written) == 6
        assert {f: stat.S_IMODE(os.stat(f).st_mode) for f in written} \
            == dict.fromkeys(written, mode)
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def _read_rows(csv_path):
    import csv as csv_mod
    with open(csv_path, encoding="utf-8", newline="") as fh:
        yield from csv_mod.DictReader(fh)
