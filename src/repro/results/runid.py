"""The run-id rule: which strings name a run file in a results store.

Kept apart from :mod:`repro.results.store` so that the job queue's
codec (:mod:`repro.jobs.model`) can check a run id without importing
the sink stack.
"""

from __future__ import annotations

import re

from ..netbase.errors import ReproError

__all__ = ["check_run_id", "shard_run_id"]

_RUN_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def check_run_id(run_id: object) -> str:
    """``run_id`` if it is a filesystem-plain run id, else raise.

    The one run-id rule: a string of letters, digits, ``.``, ``_`` and
    ``-`` that does not start with a punctuation mark, so it names a
    file directly under the store's root and nowhere else.
    """
    if not isinstance(run_id, str) or not _RUN_ID.match(run_id):
        raise ReproError(
            f"bad run id {run_id!r}: use letters, digits, '.', "
            f"'_', '-'"
        )
    return run_id


def shard_run_id(base: str, shard_index: int, shard_count: int) -> str:
    """The canonical run id of one shard of a sharded run.

    ``base`` names the whole run; the suffix pins both the shard's
    position and the plan width, so partials from differently-sharded
    runs of the same grid can never be confused for one another.  The
    result is always a valid
    :class:`~repro.results.store.ResultsStore` run id.
    """
    if shard_count < 1:
        raise ReproError("shard_count must be positive")
    if not 0 <= shard_index < shard_count:
        raise ReproError(
            f"shard index {shard_index} outside plan of {shard_count}"
        )
    width = len(str(shard_count - 1))
    run_id = f"{base}.shard{shard_index:0{width}d}of{shard_count}"
    if not _RUN_ID.match(run_id):
        raise ReproError(
            f"bad shard run id {run_id!r}: base {base!r} must use "
            f"letters, digits, '.', '_', '-'"
        )
    return run_id
