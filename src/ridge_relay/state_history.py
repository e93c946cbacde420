"""What a state file does not keep, read back for the commands that need it.

A ``ridge-relay-state/3`` file keeps only its newest update records; the
older ones are lines of the history log beside it, and ``export`` is the
only command that reads them (``read_history``). A ``ridge-relay-state/1``
file kept its raw batches instead of its past data, which
``past_from_batches`` rebuilds when such a file is read. An update of a
``/3`` file needs neither, so ``cli_io`` imports this module inside the
two functions that call it: the commands that run once per batch do not
load it, which under a from-source run (no cached bytecode) saves each of
them about 0.3 ms of compiling.
"""

from __future__ import annotations

import json

from .cli_io import LOG_SUFFIX, _doc_record
from .errors import StateFileError, ValidationError
from .model_core import Batch, CovariateRegistry, EstimatorState, UpdateRecord, align_batch
from .penalty_tuning import get_family

__all__ = ["read_history", "past_from_batches"]


def read_history(path: str, state: EstimatorState) -> tuple[UpdateRecord, ...]:
    """Records 1..t of ``state``, read from the state file ``path``: those
    older than the ones the state holds are the first lines of its
    history log, and no further line is read.

    A log that does not start with them, in order, raises
    ``StateFileError`` naming them: a state file copied without its log,
    say, still updates, but its older records are only in the log it left
    behind. A state holding every record (a ``/2`` or ``/1`` file) needs
    no log.
    """
    first = state.history[0].t if state.history else 1
    log = path + LOG_SUFFIX
    try:
        with open(log, "rb") as fh:
            lines = fh.read().split(b"\n")[:-1]  # a last line without its newline is torn
        older = tuple(_doc_record(json.loads(line)) for line in lines[:first - 1])
    except FileNotFoundError:
        older = ()
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ValidationError) as exc:
        raise StateFileError(f"cannot read history log {log!r}: {exc}") from None
    if [rec.t for rec in older] != list(range(1, first)):
        raise StateFileError(
            f"history log {log!r} does not start with records t=1..{first - 1}, which "
            f"the state file does not keep (it holds t={first}..{state.t})")
    return older + state.history


def past_from_batches(family: str, registry: CovariateRegistry,
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
        batch = Batch(t=raw["t"], X=raw["x"], y=raw["y"],
                      covariates=tuple(raw["covariates"]), family=family)
        width = 1 + max((registry.index_of(n) for n in batch.covariates), default=-1)
        if 1 <= batch.t <= len(history):
            width = max(width, len(history[batch.t - 1].estimate))
        past = fam.fold(past, align_batch(batch, registry)[:, :width], batch.y)
    return past
