"""Command line driver and on-disk formats.

The unit of persistence is the *state file*: one JSON document holding
the covariate registry, the shrinkage target the model started from, the
past data of every batch folded in so far, and the newest update records
(``ridge-relay-state/3``). Every update record, 1..t, is also a line of
the *history log* beside it, ``<state>.history``, in JSON lines. An
update reads the state file alone, and writes one log line and the state
file, so its cost does not grow with the number of updates; only
``export`` reads the log.

The state file keeps the shortest newest part of the history from which
the shrinkage target assembles the same (``target_records``): the newest
record alone for every state ``update`` writes. The past data takes the
form its family needs: for the linear family the upper-triangular factor
of the stacked ``[X | y]``, stored as its upper triangle only, and the
row count, which stay the same size however many batches arrive; for
the logistic family every past row and response. Each such array is
stored as its shape plus base64 of its little-endian float64 bytes, an
exact round trip. The document is written as compact JSON with sorted
keys, and the remaining floats through JSON's shortest round-trip
representation, so a load immediately followed by a save reproduces the
bytes exactly; indented files read the same. Each log line is a record
laid out as in the state file.

A write first brings the log to the state's records (``_extend_log``):
it cuts the lines at the log's end whose ``t`` is not older than the
state's newest record, appends the missing records in one write and
fsyncs the log. Only then is the state file replaced: the text goes to a
temporary file ``.tmp-<state basename>-<random>.tmp`` in the target
directory, which is fsynced and renamed over the state. A crash at any
point leaves the old state or the new one, each with its records 1..t
in the log; a line past a state's t is a crashed write's, which
``export`` never reads and the next write cuts. A state with no update writes no log. A
``ridge-relay-state/2`` file, which kept every record, reads as it is,
and a ``ridge-relay-state/1`` file, which kept the raw batches, is
migrated on read by folding its batches in order through the function
``update`` folds with, so it selects exactly as the state ``update``
would have built; the next write of either stores ``/3`` and the full
log. An advisory lock (an exclusive ``flock`` on ``<state>.lock``, which
dies with its holder) guards read-modify-write command runs; a run that
holds the lock first removes the temporary files a crashed write of its
own state left behind.

Exit codes, each error class's ``exit_code``: 0 success; 2 invalid
inputs (schema, CSV, configuration, a file that cannot be read or is not
UTF-8 text, a plot dataset that cannot be written, a history log that
lacks records ``export`` prints); 3 numerical failure of a fit
(non-convergence, singular system); 4 penalty-selection or locking
failure. A command whose output pipe closes before it has written
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
import fcntl
import gc
import io
import json
import math
import os
import re
import sys
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
    _MAX_ELEMENTS,
    _Record,
    assemble_target,
    start_state,
    target_records,
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
    selection_elements,
)
from .sim_harness import (
    QUANTILES,
    ScenarioConfig,
    run_study_mixed_vs_updated,
    run_study_regular_vs_updated,
    tracked_positions,
)

__all__ = [
    "STATE_SCHEMA",
    "LOG_SUFFIX",
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

STATE_SCHEMA = "ridge-relay-state/3"
_SCHEMA_1 = "ridge-relay-state/1"
_SCHEMA_2 = "ridge-relay-state/2"
# The history log of the state file ``path`` is ``path + LOG_SUFFIX``.
LOG_SUFFIX = ".history"
# Bytes at the log's end a write reads first to find its last lines.
_LOG_WINDOW = 8192
EXIT_BROKEN_PIPE = 141
# Temporary files of an atomic write: ".tmp-<target basename>-<random>.tmp".
# The random part has no "-", so the name gives its target back.
_TEMP_NAME = re.compile(r"\.tmp-(.+)-[a-z0-9_]+\.tmp")


# ---------------------------------------------------------------------------
# state file round trip

def _encode_array(arr: np.ndarray, upper: bool = False) -> dict:
    """Shape plus base64 of the little-endian float64 bytes, an exact round
    trip; with ``upper``, of a square upper-triangular array's entries on
    and above the diagonal, row by row, stored as ``"upper"``."""
    values = arr[np.triu_indices(arr.shape[0])] if upper else arr
    data = base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")
    return {"shape": list(arr.shape), "upper" if upper else "base64": data}


def _decode_array(doc: dict) -> np.ndarray:
    """The array ``_encode_array`` stored."""
    shape = tuple(doc["shape"])
    if any(not isinstance(n, int) or isinstance(n, bool) or n < 0 for n in shape):
        raise StateFileError(f"state array shape {list(shape)!r} is not a list of sizes")
    upper = "upper" in doc
    if upper and (len(shape) != 2 or shape[0] != shape[1]):
        raise StateFileError(f"state triangle shape {list(shape)!r} is not square")
    flat = np.frombuffer(base64.b64decode(doc["upper" if upper else "base64"], validate=True),
                         dtype="<f8")
    if flat.size != (shape[0] * (shape[0] + 1) // 2 if upper else math.prod(shape)):
        raise StateFileError(
            f"state array holds {flat.size} values for shape {list(shape)!r}")
    if not upper:
        return flat.astype(float).reshape(shape)
    out = np.zeros(shape)
    out[np.triu_indices(shape[0])] = flat
    return out


def _record_doc(rec: UpdateRecord) -> dict:
    return {
        "t": rec.t,
        "lam": rec.lam,
        "estimate": dict(rec.estimate.values),
        "weights": list(rec.weights) if rec.weights is not None else None,
        "diagnostics": dict(rec.diagnostics),
    }


def _doc_record(doc: dict) -> UpdateRecord:
    return UpdateRecord(
        t=doc["t"],
        lam=doc["lam"],
        estimate=CoefficientVector(doc["estimate"]),
        weights=doc.get("weights"),
        diagnostics=doc.get("diagnostics", {}),
    )


def state_to_doc(state: EstimatorState) -> dict:
    """Plain-JSON document for a state: its ``target_records``, and its
    past-data arrays as base64 float64, the linear factor's upper triangle
    only."""
    past = None
    if state.past is not None:
        past = {}
        for name in state.past._fields:
            value = getattr(state.past, name)
            if isinstance(value, np.ndarray):  # the linear factor is upper triangular
                value = _encode_array(value, upper=name == "factor")
            past[name] = value
    return {
        "schema": STATE_SCHEMA,
        "family": state.family,
        "covariates": list(state.registry.names),
        "init": {"note": state.init_note, "target": dict(state.init_target.values)},
        "history": [_record_doc(rec) for rec in target_records(state)],
        "past": past,
    }


def doc_to_state(doc: dict) -> EstimatorState:
    """Rebuild a state from its document, validating the schema tag.

    A ``/3`` document's history is its newest records, a ``/2`` or ``/1``
    document's every record. A ``/1`` document, which retained raw
    batches, is migrated on read (``state_history.past_from_batches``). A document
    the model types reject (a ``t`` that is not an integer, a penalty or
    coefficient that is not a number, an estimate naming an unknown
    covariate) raises ``StateFileError``, as a missing field does.
    """
    if not isinstance(doc, dict):
        raise StateFileError("state document must be a JSON object")
    schema = doc.get("schema")
    if schema not in (STATE_SCHEMA, _SCHEMA_2, _SCHEMA_1):
        raise StateFileError(f"unsupported state schema {schema!r}, expected {STATE_SCHEMA!r}")
    try:
        family = doc["family"]
        if family not in FAMILIES:
            raise StateFileError(f"state family must be one of {FAMILIES}, got {family!r}")
        if not isinstance(doc["covariates"], list):
            raise StateFileError("state field 'covariates' must be a list of names")
        registry = CovariateRegistry(tuple(doc["covariates"]))
        init = doc["init"]
        history = tuple(_doc_record(rec) for rec in doc["history"])
        if schema == _SCHEMA_1:
            from .state_history import past_from_batches  # see state_history's docstring
            past = past_from_batches(family, registry, history, doc["batches"])
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
    """The state in the state file ``path``, read from that file alone."""
    return doc_to_state(_load_json(path, "state file", StateFileError))


def _fsync_directory(directory: str) -> None:
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` so that readers see the old or the new file.

    The text is written verbatim (no newline translation) to a temporary
    file ``.tmp-<basename>-<random>.tmp`` in the same directory, which is
    fsynced and renamed over ``path``; the directory is then fsynced so
    the rename itself survives a crash. The temporary file is created
    exclusively with mode 0666 less the umask, as ``open`` would create
    ``path`` itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.path.basename(path)}-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _fsync_directory(directory)


def _log_end(fd: int, size: int, t_new: int) -> tuple[int, int]:
    """The offset just past the last line of the log open as ``fd`` (of
    ``size`` bytes) that holds a record older than ``t_new``, and that
    record's index; (0, 0) if there is none.

    The lines after that one are cut by the writer: a torn line (no
    newline, a killed append), a line that is not a record, or a record at
    ``t_new`` or later (a killed write's, or one this write replaces). The
    lines before it are the older records, kept as they are. The last
    ``_LOG_WINDOW`` bytes are searched first, so an update reads a line or
    two however long the log; the whole log only if they do not settle it.
    """
    lo = max(0, size - _LOG_WINDOW)
    while True:
        data = os.pread(fd, size - lo, lo)
        end = data.rfind(b"\n") + 1
        while end:
            begin = data.rfind(b"\n", 0, end - 1) + 1
            if lo and not begin:
                break  # the line may start before the window
            try:
                t = json.loads(data[begin:end])["t"]
            except (ValueError, KeyError, TypeError):
                t = None
            if type(t) is int and t < t_new:
                return lo + end, t
            end = begin
        if not lo:
            return 0, 0
        lo = 0


def _extend_log(log: str, records: tuple[UpdateRecord, ...]) -> None:
    """Make the log ``log`` end with ``records``, the newest of a state's
    history, and fsync it: the lines after the last older record are cut
    (``_log_end``) and the records from the one after it are appended in
    one write, one line for an update. A record before ``records`` that
    the log lacks stays missing, and ``export`` names it. The directory is
    fsynced too when the log is created."""
    created = not os.path.exists(log)
    fd = os.open(log, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        end, kept = _log_end(fd, size, records[-1].t)
        if end < size:
            os.ftruncate(fd, end)
        skip = max(kept + 1 - records[0].t, 0)
        data = "".join(_dump(_record_doc(rec)) for rec in records[skip:]).encode()
        if os.write(fd, data) != len(data):
            raise OSError(f"wrote part of {len(data)} bytes")
        os.fsync(fd)
    finally:
        os.close(fd)
    if created:
        _fsync_directory(os.path.dirname(os.path.abspath(log)))


def write_state(state: EstimatorState, path: str) -> None:
    """Write ``state`` to the state file ``path`` and its records to the
    history log beside it. The log is extended and fsynced first
    (``_extend_log``); only then is the state file atomically replaced, so
    readers never see partial writes and a state on disk has its records
    in the log. A state with no update leaves the log alone."""
    text = _dump(state_to_doc(state))
    if os.path.isdir(path):
        raise StateFileError(f"cannot write state file {path!r}: it is a directory")
    try:
        if state.history:
            _extend_log(path + LOG_SUFFIX, state.history)
        _atomic_write_text(path, text)
    except OSError as exc:
        raise StateFileError(
            f"cannot write {exc.filename or path!r}: {exc.strerror or exc}") from None


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

    The lock is an exclusive ``flock`` on ``<state>.lock``; a run that
    finds it held exits with ``LockError``. The kernel drops the lock when
    its holder's process ends, however it ends, so a lock file that a
    killed run left behind is simply taken over. A release unlinks the
    file before it lets go of the lock, so a run that opened the file just
    before then may lock an unlinked file: the lock counts only if the
    path still names the file locked, and is taken again otherwise. Once
    the lock is held, temporary files a crashed write of this state left
    behind are removed.
    """
    lock_path = path + ".lock"
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY, 0o644)
        except OSError as exc:
            raise StateFileError(
                f"cannot create lock file {lock_path!r}: {exc.strerror or exc}") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(fd)
            if isinstance(exc, BlockingIOError):
                raise LockError(f"lock file {lock_path!r} is held by another run") from None
            raise StateFileError(f"cannot lock {lock_path!r}: {exc.strerror or exc}") from None
        try:
            if os.path.samestat(os.fstat(fd), os.stat(lock_path)):
                break
        except FileNotFoundError:
            pass
        os.close(fd)
    try:
        _remove_leftovers(path)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass
        os.close(fd)


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


def _finite_cells(path: str, header: list[str], rows: list[list[float]]) -> np.ndarray:
    """``rows`` as an array; a cell that is not finite is named and refused."""
    data = np.asarray(rows)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(
            f"{path!r} data row {row + 1}: column {header[col]!r} is not finite")
    return data


def read_batch_csv(path: str, response: str, t: int, family: str) -> Batch:
    """Load one batch from headed CSV; every cell must be a finite number."""
    header, rows = _read_csv_columns(path)
    if response not in header:
        raise ValidationError(f"{path!r} has no column {response!r}")
    covariates = tuple(h for h in header if h != response)
    if not covariates:
        raise ValidationError(f"{path!r} has no covariate columns")
    data = _finite_cells(path, header, rows)
    y_col = header.index(response)
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
    data = _finite_cells(path, header, rows)
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
        "quantiles": list(QUANTILES),
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


def _selection_config(args, family: str, p: int, n: int) -> PenaltySearchConfig:
    """The selection the flags ask for, on a batch of ``n`` rows over ``p``
    covariates. The largest array it would hold (``selection_elements``)
    is counted before the grid is built, so a grid too large for the data
    is refused by its flag rather than killed for memory."""
    k_folds = None if (args.loocv or args.k_folds is None) else args.k_folds
    points = args.grid_points
    elements = selection_elements(family, p, n, points, k_folds in (None, n))
    # A grid size outside 1.._MAX_ELEMENTS is refused by default_grid.
    if 0 < points <= _MAX_ELEMENTS < elements:
        raise ValidationError(
            f"--grid-points {points} would make selection hold {elements} values in one "
            f"array for {n} rows over {p} covariates, past the cap of {_MAX_ELEMENTS}")
    grid = default_grid(args.grid_min, args.grid_max, points)
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
        config = _selection_config(args, args.family, batch.p, batch.n)
        state, chosen = fit_first_batch(batch, config)
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
        p = state.registry.extended(batch.covariates).size
        report = select_penalty(state, batch, _selection_config(args, state.family, p, batch.n))
        diagnostics = {
            "lam": report.chosen_lambda,
            "score": report.score,
            "constrained": report.constrained,
            "fallback_used": report.fallback_used,
            "n_feasible": int(np.count_nonzero(report.feasible)),
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
    p = state.registry.extended(batch.covariates).size
    report = select_penalty(state, batch, _selection_config(args, state.family, p, batch.n))
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
    from .state_history import read_history  # see state_history's docstring
    history = read_history(args.state, state)
    w = sys.stdout.write
    w(f"family:     {state.family}\n")
    w(f"updates:    {state.t}\n")
    w(f"covariates: {state.registry.size}\n")
    w(f"init:       {state.init_note}\n")
    if history:
        w("history:\n")
        for rec in history:
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
    """Run one command and return its exit code.

    Every object alive at the call, the imported modules (NumPy's
    included) among them, is first moved to the collector's permanent
    generation (``gc.freeze``). Reference counting still frees them, but
    no cyclic collection visits them again, and the interpreter's exit
    does not collect and tear down their cycles: that saves a command
    process about 9 ms of its 93 (``benchmarks/process_cost.py``).
    Objects the command creates are collected as before. An in-process
    caller's objects alive at the call are left to reference counting
    from then on; a long-lived embedder can call ``gc.unfreeze()`` after
    ``main`` returns.
    """
    # Keep the import-time heap out of every later collection, the one at
    # exit included: see the docstring.
    gc.freeze()
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
