"""Command line driver and on-disk formats.

The unit of persistence is the *state file*: one JSON document holding
the covariate registry, the shrinkage target the model started from, the
full update history, and the past data of every batch folded in so far.
Schema versioning is explicit (``ridge-relay-state/2``). The past data
takes the form its family needs: for the linear family the
upper-triangular factor of the stacked ``[X | y]`` and the row count,
which stay the same size however many batches arrive; for the logistic
family every past row and response. Each such array is stored as its
shape plus base64 of its little-endian float64 bytes, an exact round
trip. The document is written as compact JSON with sorted keys, and the
remaining floats through JSON's shortest round-trip representation, so a
load immediately followed by a save reproduces the bytes exactly;
indented files read the same. A ``ridge-relay-state/1`` file, which kept
the raw batches, is migrated on read by folding its batches in order
through the function ``update`` folds with, so it selects exactly as the
state ``update`` would have built; the next write stores it as ``/2``.
Writes go to a temporary file ``.tmp-<state basename>-<random>.tmp`` in
the target directory followed by an atomic rename, and an advisory lock
file (``<state>.lock``) guards read-modify-write command runs; a run that
holds the lock first removes the temporary files a crashed write of its
own state left behind.

Exit codes, each error class's ``exit_code``: 0 success; 2 invalid
inputs (schema, CSV, configuration, a file that cannot be read or is not
UTF-8 text, a plot dataset that cannot be written); 3 numerical failure
of a fit (non-convergence, singular system); 4 penalty-selection or
locking failure. A command whose output pipe closes before it has written
everything (``ridge-relay predict ... | head -1``) stops quietly with
``EXIT_BROKEN_PIPE``, 141, the status a shell reports for a process that
SIGPIPE ended.

Data comes in as headed CSV, strictly numeric; anything unparsable is an
error rather than a guess. Simulation output is written as small "plot
dataset" pairs: a flat CSV plus a JSON sidecar with the metadata needed
to reproduce it. Every command, ``simulate`` included, runs on the
calling thread.
"""

from __future__ import annotations

import argparse
import base64
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import LockError, RegistryError, RidgeRelayError, StateFileError, ValidationError
from .model_core import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    FAMILIES,
    PAST_FORMS,
    UpdateRecord,
    _Record,
    align_batch,
    assemble_target,
    start_state,
)
from .penalty_tuning import (
    DEFAULT_GRID_MAX,
    DEFAULT_GRID_MIN,
    DEFAULT_GRID_POINTS,
    PenaltySearchConfig,
    default_grid,
    fit_first_batch,
    get_family,
    select_penalty,
)
from .sim_harness import (
    ScenarioConfig,
    run_study_mixed_vs_updated,
    run_study_regular_vs_updated,
    tracked_positions,
)

__all__ = [
    "STATE_SCHEMA",
    "state_to_doc",
    "doc_to_state",
    "read_state",
    "write_state",
    "state_lock",
    "read_batch_csv",
    "PlotDataset",
    "write_plot_dataset",
    "EXIT_BROKEN_PIPE",
    "main",
]

STATE_SCHEMA = "ridge-relay-state/2"
_SCHEMA_1 = "ridge-relay-state/1"
EXIT_BROKEN_PIPE = 141
# Temporary files of an atomic write: ".tmp-<target basename>-<random>.tmp".
# The random part has no "-", so the name gives its target back.
_TEMP_NAME = re.compile(r"\.tmp-(.+)-[a-z0-9_]+\.tmp")


# ---------------------------------------------------------------------------
# state file round trip

def _encode_array(arr: np.ndarray) -> dict:
    """Shape plus base64 of the little-endian float64 bytes: an exact round trip."""
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "base64": base64.b64encode(data).decode("ascii")}


def _decode_array(doc: dict) -> np.ndarray:
    shape = tuple(doc["shape"])
    if any(not isinstance(n, int) or isinstance(n, bool) or n < 0 for n in shape):
        raise StateFileError(f"state array shape {list(shape)!r} is not a list of sizes")
    flat = np.frombuffer(base64.b64decode(doc["base64"], validate=True), dtype="<f8")
    if flat.size != math.prod(shape):
        raise StateFileError(
            f"state array holds {flat.size} values for shape {list(shape)!r}")
    return flat.astype(float).reshape(shape)


def state_to_doc(state: EstimatorState) -> dict:
    """Plain-JSON document for a state; past-data arrays as base64 float64."""
    past = None
    if state.past is not None:
        past = {}
        for name in state.past._fields:
            value = getattr(state.past, name)
            past[name] = _encode_array(value) if isinstance(value, np.ndarray) else value
    return {
        "schema": STATE_SCHEMA,
        "family": state.family,
        "covariates": list(state.registry.names),
        "init": {"note": state.init_note, "target": dict(state.init_target.values)},
        "history": [
            {
                "t": rec.t,
                "lam": rec.lam,
                "estimate": dict(rec.estimate.values),
                "weights": list(rec.weights) if rec.weights is not None else None,
                "diagnostics": dict(rec.diagnostics),
            }
            for rec in state.history
        ],
        "past": past,
    }


def _past_from_batches(family: str, registry: CovariateRegistry,
                       history: tuple[UpdateRecord, ...], batches: list):
    """Past data of a ``/1`` document's retained batches.

    The batches are folded in order by the family's ``fold``, the function
    ``update`` folds with, each over the registry as it stood when it was
    folded: the covariates the estimate of its update names (registries
    only grow at the end), and at least its own. A migrated state
    therefore holds the same past data, to the bit, as the state
    ``update`` built.
    """
    fam = get_family(family)
    past = None
    for raw in batches:
        batch = Batch(t=raw["t"], X=np.asarray(raw["x"], dtype=float),
                      y=np.asarray(raw["y"], dtype=float),
                      covariates=tuple(raw["covariates"]), family=family)
        width = 1 + max((registry.index_of(n) for n in batch.covariates), default=-1)
        if 1 <= batch.t <= len(history):
            width = max(width, len(history[batch.t - 1].estimate))
        past = fam.fold(past, align_batch(batch, registry)[:, :width], batch.y)
    return past


def doc_to_state(doc: dict) -> EstimatorState:
    """Rebuild a state from its document, validating the schema tag.

    A ``/1`` document, which retained raw batches, is migrated on read
    (see ``_past_from_batches``). A document the model types reject (a
    ``t`` that is not an integer, a penalty or coefficient that is not a
    number, an estimate naming an unknown covariate) raises
    ``StateFileError``, as a missing field does.
    """
    if not isinstance(doc, dict):
        raise StateFileError("state document must be a JSON object")
    schema = doc.get("schema")
    if schema not in (STATE_SCHEMA, _SCHEMA_1):
        raise StateFileError(f"unsupported state schema {schema!r}, expected {STATE_SCHEMA!r}")
    try:
        family = doc["family"]
        if family not in FAMILIES:
            raise StateFileError(f"state family must be one of {FAMILIES}, got {family!r}")
        if not isinstance(doc["covariates"], list):
            raise StateFileError("state field 'covariates' must be a list of names")
        registry = CovariateRegistry(tuple(doc["covariates"]))
        init = doc["init"]
        history = tuple(
            UpdateRecord(
                t=rec["t"],
                lam=rec["lam"],
                estimate=CoefficientVector(rec["estimate"]),
                weights=rec.get("weights"),
                diagnostics=rec.get("diagnostics", {}),
            )
            for rec in doc["history"]
        )
        if schema == _SCHEMA_1:
            past = _past_from_batches(family, registry, history, doc["batches"])
        elif doc["past"] is None:
            past = None
        else:
            past = PAST_FORMS[family](**{
                key: _decode_array(value) if isinstance(value, dict) else value
                for key, value in doc["past"].items()})
        return EstimatorState(
            family=family,
            registry=registry,
            init_target=CoefficientVector(init["target"]),
            init_note=str(init.get("note", "zeros")),
            history=history,
            past=past,
        )
    except KeyError as exc:
        raise StateFileError(f"state document is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError, AttributeError, ValidationError) as exc:
        raise StateFileError(f"state document is malformed: {exc}") from None


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"


def _read_text(path: str, what: str, error: type[RidgeRelayError]) -> str:
    """The UTF-8 text of ``path``, verbatim; any failure to read it raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"{what} {path!r} does not exist") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path!r} is not UTF-8 text "
                    f"(byte {exc.start}: {exc.reason})") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path!r}: {exc.strerror or exc}") from None


def _load_json(path: str, what: str, error: type[RidgeRelayError]):
    """The JSON document in ``path``; any failure to read or parse it raises ``error``."""
    try:
        return json.loads(_read_text(path, what, error))
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path!r} is not valid JSON: {exc}") from None


def read_state(path: str) -> EstimatorState:
    return doc_to_state(_load_json(path, "state file", StateFileError))


def _atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` so that readers see the old or the new file.

    The text is written verbatim (no newline translation) to a temporary
    file ``.tmp-<basename>-<random>.tmp`` in the same directory, which is
    fsynced and renamed over ``path``; the directory is then fsynced so
    the rename itself survives a crash.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".tmp-{os.path.basename(path)}-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_state(state: EstimatorState, path: str) -> None:
    """Serialize and atomically replace ``path``; readers never see partial writes."""
    text = _dump(state_to_doc(state))
    try:
        _atomic_write_text(path, text)
    except OSError as exc:
        raise StateFileError(f"cannot write state file {path!r}: {exc.strerror or exc}") from None


def _remove_leftovers(path: str) -> None:
    """Delete the temporary files that interrupted writes of ``path`` left behind.

    Only names ``_atomic_write_text`` gives to writes of ``path`` itself
    match; temporary files of other targets in the directory stay.
    """
    directory = os.path.dirname(os.path.abspath(path))
    base = os.path.basename(path)
    for name in os.listdir(directory):
        match = _TEMP_NAME.fullmatch(name)
        if match is not None and match.group(1) == base:
            try:
                os.unlink(os.path.join(directory, name))
            except FileNotFoundError:
                pass


@contextmanager
def state_lock(path: str):
    """Advisory lock around a state file's read-modify-write cycle.

    Purely cooperative: a crash can leave the lock file behind, in which
    case the operator removes ``<state>.lock`` after checking no run is
    active. Once the lock is held, temporary files a crashed write of this
    state left behind are removed.
    """
    lock_path = path + ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockError(
            f"lock file {lock_path!r} exists; another run may be active "
            "(remove it if that run is dead)") from None
    except OSError as exc:
        raise StateFileError(
            f"cannot create lock file {lock_path!r}: {exc.strerror or exc}") from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        _remove_leftovers(path)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# CSV ingestion

def _read_csv_columns(path: str) -> tuple[list[str], list[list[float]]]:
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    text = _read_text(path, "data file", ValidationError).removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path!r} is empty; expected a header row") from None
    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise ValidationError(f"{path!r} has an empty column name")
    if len(set(header)) != len(header):
        raise ValidationError(f"{path!r} has duplicate column names")
    rows: list[list[float]] = []
    for lineno, raw in enumerate(reader, start=2):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != len(header):
            raise ValidationError(
                f"{path!r} line {lineno}: {len(raw)} fields for "
                f"{len(header)} columns")
        parsed = []
        for name, cell in zip(header, raw):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path!r} line {lineno}: column {name!r} has "
                    f"non-numeric value {cell.strip()!r}") from None
        rows.append(parsed)
    if not rows:
        raise ValidationError(f"{path!r} contains no data rows")
    return header, rows


def read_batch_csv(path: str, response: str, t: int, family: str) -> Batch:
    """Load one batch from headed CSV; every cell must parse as a number."""
    header, rows = _read_csv_columns(path)
    if response not in header:
        raise ValidationError(f"{path!r} has no column {response!r}")
    data = np.asarray(rows)
    y_col = header.index(response)
    covariates = tuple(h for h in header if h != response)
    x_cols = [i for i in range(len(header)) if i != y_col]
    return Batch(t=t, X=data[:, x_cols], y=data[:, y_col],
                 covariates=covariates, family=family)


def read_covariate_csv(path: str, registry: CovariateRegistry,
                       drop: str | None = None) -> np.ndarray:
    """Covariate rows aligned to the registry; unknown columns and non-finite cells are errors."""
    header, rows = _read_csv_columns(path)
    if drop is not None and drop in header:
        keep = [i for i, h in enumerate(header) if h != drop]
        header = [header[i] for i in keep]
        rows = [[r[i] for i in keep] for r in rows]
    if not header:
        raise ValidationError(f"{path!r} has no covariate columns")
    for name in header:
        if name not in registry:
            raise RegistryError(f"{path!r} column {name!r} is not a model covariate")
    data = np.asarray(rows)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(
            f"{path!r} data row {row + 1}: column {header[col]!r} is not finite")
    out = np.zeros((data.shape[0], registry.size))
    for j, name in enumerate(header):
        out[:, registry.index_of(name)] = data[:, j]
    return out


# ---------------------------------------------------------------------------
# plot datasets

class PlotDataset(_Record):
    """A flat table destined for plotting, plus its metadata sidecar
    (``metadata`` defaults to an empty dict)."""

    _fields = ("name", "columns", "metadata")

    def __init__(self, name: str, columns: dict[str, list], metadata: dict | None = None) -> None:
        if not name or "/" in name:
            raise ValidationError("dataset names must be non-empty and path-free")
        if not columns:
            raise ValidationError("a plot dataset needs at least one column")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise ValidationError("all columns must have the same length")
        self.__dict__.update(name=name, columns=columns,
                             metadata={} if metadata is None else metadata)


def write_plot_dataset(dataset: PlotDataset, out_dir: str) -> tuple[str, str]:
    """Write ``<name>.csv`` and ``<name>.meta.json``; returns both paths. An
    ``out_dir`` that cannot be made or written to raises ``ValidationError``."""
    csv_path = os.path.join(out_dir, dataset.name + ".csv")
    meta_path = os.path.join(out_dir, dataset.name + ".meta.json")
    names = list(dataset.columns)
    cols = [dataset.columns[n] for n in names]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    for row in zip(*cols):
        writer.writerow(["" if _is_nan(v) else v for v in row])
    try:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write_text(csv_path, buf.getvalue())
        _atomic_write_text(meta_path, _dump(dataset.metadata))
    except OSError as exc:
        raise ValidationError(
            f"cannot write plot dataset to {out_dir!r}: {exc.strerror or exc}") from None
    return csv_path, meta_path


def _is_nan(v) -> bool:
    return isinstance(v, float) and np.isnan(v)


def _trajectory_datasets(study: str, config: ScenarioConfig, results) -> list[PlotDataset]:
    meta = {
        "study": study,
        "config": config.to_dict(),
        "series": [r.name for r in results],
        "tracked": list(tracked_positions(config)),
        "quantiles": [0.05, 0.5, 0.95],
    }
    quant = {name: [] for name in ("series", "t", "coordinate", "q05", "q50", "q95")}
    curves = {name: [] for name in ("series", "t", "mean_squared_error")}
    for r in results:
        T, C = len(r.t_values), len(r.tracked)
        # one row per (coordinate, t), t running fastest
        quant["series"] += [r.name] * (C * T)
        quant["t"] += np.tile(r.t_values, C).tolist()
        quant["coordinate"] += np.repeat(r.tracked, T).tolist()
        for column, band in zip(("q05", "q50", "q95"), r.quantile_bands()):
            quant[column] += band.T.ravel().tolist()
        curves["series"] += [r.name] * T
        curves["t"] += r.t_values.tolist()
        curves["mean_squared_error"] += r.mean_loss().tolist()
    return [PlotDataset(name=f"{study}_quantile_trajectories", columns=quant, metadata=meta),
            PlotDataset(name=f"{study}_mse_curves", columns=curves, metadata=meta)]


# ---------------------------------------------------------------------------
# commands

def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _selection_config(args) -> PenaltySearchConfig:
    grid = default_grid(args.grid_min, args.grid_max, args.grid_points)
    k_folds = None if (args.loocv or args.k_folds is None) else args.k_folds
    return PenaltySearchConfig(k_folds=k_folds, constrained=args.constrained, grid=grid,
                               seed=args.seed)


def cmd_init(args) -> int:
    sources = [s for s in (args.covariates, args.target_file, args.data) if s]
    if len(sources) != 1:
        raise ValidationError(
            "exactly one of --covariates, --target-file, --data must be given")
    report: dict = {"state": args.state, "family": args.family}
    if args.covariates:
        names = tuple(n.strip() for n in args.covariates.split(","))
        state = start_state(args.family, names)
        report["init"] = "zeros"
    elif args.target_file:
        doc = _load_json(args.target_file, "target file", ValidationError)
        if not isinstance(doc, dict) or not doc:
            raise ValidationError("target file must be a non-empty JSON object")
        target = CoefficientVector(doc)
        state = start_state(args.family, target.names(), target, "target-file")
        report["init"] = "target-file"
    else:
        if not args.response:
            raise ValidationError("--data requires --response")
        batch = read_batch_csv(args.data, args.response, t=0, family=args.family)
        state, chosen = fit_first_batch(batch, _selection_config(args))
        report["init"] = "fit-first-batch"
        report["lam"] = chosen.chosen_lambda
        report["score"] = chosen.score
        report["n"] = batch.n
    with state_lock(args.state):
        # Checked just before the write: an init that ran meanwhile is kept.
        if os.path.exists(args.state) and not args.force:
            raise ValidationError(
                f"state file {args.state!r} exists; pass --force to overwrite")
        write_state(state, args.state)
    report["covariates"] = state.registry.size
    _print_json(report)
    return 0


def cmd_update(args) -> int:
    with state_lock(args.state):
        state = read_state(args.state)
        batch = read_batch_csv(args.data, args.response, t=state.t + 1,
                               family=state.family)
        report = select_penalty(state, batch, _selection_config(args))
        diagnostics = {
            "lam": report.chosen_lambda,
            "score": report.score,
            "constrained": report.constrained,
            "fallback_used": report.fallback_used,
            "n_feasible": sum(1 for c in report.cv_curve if c.feasible),
            "k_folds": report.k_folds,
            "seed": report.seed,
            "n": batch.n,
        }
        state = get_family(state.family).update(state, batch, report.chosen_lambda,
                                                diagnostics=diagnostics)
        write_state(state, args.state)
    out = dict(state.history[-1].diagnostics)
    out.update({"t": state.t, "state": args.state,
                "new_fraction": report.new_fraction})
    _print_json(out)
    return 0


def cmd_select_lambda(args) -> int:
    state = read_state(args.state)
    batch = read_batch_csv(args.data, args.response, t=state.t + 1,
                           family=state.family)
    report = select_penalty(state, batch, _selection_config(args))
    _print_json(report.to_dict())
    return 0


def cmd_predict(args) -> int:
    state = read_state(args.state)
    X = read_covariate_csv(args.data, state.registry, drop=args.response)
    names = state.registry.names
    coef = assemble_target(state, names).as_array(names)
    for v in get_family(state.family).mean(X @ coef):
        sys.stdout.write(f"{float(v)!r}\n")
    return 0


def cmd_simulate(args) -> int:
    doc = _load_json(args.scenario, "scenario file", ValidationError)
    config = ScenarioConfig.from_dict(doc)
    if config.study == "regular-vs-updated":
        results = run_study_regular_vs_updated(config)
    else:
        results = run_study_mixed_vs_updated(config)
    written = []
    for dataset in _trajectory_datasets(config.study, config, results):
        csv_path, meta_path = write_plot_dataset(dataset, args.out)
        written.extend([csv_path, meta_path])
    _print_json({"study": config.study, "files": written,
                 "replicates": config.n_replicates})
    return 0


def cmd_export(args) -> int:
    state = read_state(args.state)
    w = sys.stdout.write
    w(f"family:     {state.family}\n")
    w(f"updates:    {state.t}\n")
    w(f"covariates: {state.registry.size}\n")
    w(f"init:       {state.init_note}\n")
    if state.history:
        w("history:\n")
        for rec in state.history:
            w(f"  t={rec.t} lam={rec.lam!r}")
            if rec.weights is not None:
                w(f" weights={list(rec.weights)}")
            w("\n")
    w("estimate:\n")
    current = assemble_target(state, state.registry.names)
    for name in state.registry.names:
        w(f"  {name} = {current[name]!r}\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_selection_flags(sub, with_constraint: bool = True,
                         k_default: int | None = 5) -> None:
    k_help = ("cross-validation folds (default 5)" if k_default
              else "cross-validation folds (default: leave-one-out)")
    sub.add_argument("--k-folds", type=int, default=k_default, help=k_help)
    sub.add_argument("--loocv", action="store_true",
                     help="leave-one-out cross-validation")
    if with_constraint:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--constrained", dest="constrained",
                           action="store_true", default=True,
                           help="require candidate penalties to preserve historic fit (default)")
        group.add_argument("--unconstrained", dest="constrained",
                           action="store_false",
                           help="score candidates by cross-validation alone")
    sub.add_argument("--grid-min", type=float, default=DEFAULT_GRID_MIN)
    sub.add_argument("--grid-max", type=float, default=DEFAULT_GRID_MAX)
    sub.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for fold assignment")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridge-relay",
        description="Sequentially re-estimate a (generalized) linear model, "
                    "shrinking each batch's fit toward the previous estimate.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("init", help="create a new state file")
    p.add_argument("--state", required=True)
    p.add_argument("--family", choices=FAMILIES, default="linear")
    p.add_argument("--covariates", help="comma-separated names, zero init target")
    p.add_argument("--target-file", help="JSON object {covariate: value} init target")
    p.add_argument("--data", help="CSV batch to fit the init target from")
    p.add_argument("--response", help="response column of --data")
    p.add_argument("--force", action="store_true", help="overwrite an existing state")
    _add_selection_flags(p, with_constraint=False, k_default=None)
    p.set_defaults(func=cmd_init, constrained=False)

    p = commands.add_parser("update", help="apply one batch to the model")
    p.add_argument("--state", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--response", required=True)
    _add_selection_flags(p)
    p.set_defaults(func=cmd_update)

    p = commands.add_parser("select-lambda",
                            help="run penalty selection without updating the state")
    p.add_argument("--state", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--response", required=True)
    _add_selection_flags(p)
    p.set_defaults(func=cmd_select_lambda)

    p = commands.add_parser("predict", help="predict responses for covariate rows")
    p.add_argument("--state", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--response", help="column to ignore if present")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("simulate", help="run a simulation study")
    p.add_argument("--scenario", required=True, help="JSON scenario configuration")
    p.add_argument("--out", required=True, help="output directory for plot datasets")
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("export", help="print a state file as a readable summary")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except RidgeRelayError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except BrokenPipeError:
        # The reader is gone; point stdout at the null device so that the
        # interpreter's final flush of what is still buffered stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
