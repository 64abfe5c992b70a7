"""Index lifecycle for the daemon: verified open, WAL recovery, hot reload.

Opening an index for serving is never just ``load_index``: a crash may
have left an appended-but-uncommitted maintenance batch in the WAL, and
the daemon must converge to the same bits a fresh CLI open would (see
``docs/resilience.md``).  :func:`open_with_recovery` is that shared
protocol — the CLI delegates here so both paths stay bit-identical.

:func:`attempt_reload` is the hot-reload half: load-and-verify a
(possibly new) index file *off the worker path*, replay its WAL, and
hand back either the fresh index or a typed refusal.  It never touches
the daemon's resident index — the caller swaps only on success, so a
corrupt candidate file rolls back to the old index with zero failed
in-flight requests (``tests/test_chaos_serve.py`` proves this against a
live daemon).  Both failure modes the damage taxonomy distinguishes —
structural damage (:class:`IndexCorruptError` et al.) and IO trouble
(``OSError``) — refuse identically: keep serving the old index.

Layering (NRP001): may import ``repro.core`` and ``repro.resilience``;
never ``repro.serve.server`` (the server imports *us*).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.maintenance import replay_wal
from repro.core.serialization import load_index, save_index
from repro.resilience import (
    IndexFileError,
    WriteAheadLog,
)
from repro.resilience.failpoints import failpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import NRPIndex

__all__ = ["ReloadResult", "attempt_reload", "open_with_recovery", "wal_for"]


def wal_for(index_path: "Path | str") -> WriteAheadLog:
    """The WAL that shadows ``index_path`` (``<name>.wal`` alongside it)."""
    path = Path(index_path)
    return WriteAheadLog(path.with_name(path.name + ".wal"))


def open_with_recovery(index_path: "Path | str") -> "tuple[NRPIndex, list[int]]":
    """Load a saved index, replaying any interrupted maintenance batch.

    Returns ``(index, replayed_lsns)``.  The replay protocol mirrors a
    live update: re-apply pending batches, durably re-save, commit each
    LSN, truncate the journal.  Raises the load-side damage taxonomy
    (:class:`IndexFormatError` / :class:`IndexTruncatedError` /
    :class:`IndexCorruptError`) or ``OSError`` untouched — the caller
    decides whether that is fatal (CLI open) or a rollback (hot reload).
    """
    index_path = Path(index_path)
    index = load_index(index_path)
    wal = wal_for(index_path)
    replayed = replay_wal(index, wal)
    if replayed:
        save_index(index, index_path)
        for lsn in replayed:
            wal.commit(lsn)
    wal.truncate()
    return index, replayed


class ReloadResult:
    """Outcome of one :func:`attempt_reload` (success or typed refusal)."""

    __slots__ = ("ok", "path", "index", "replayed", "error", "detail")

    def __init__(
        self,
        *,
        ok: bool,
        path: str,
        index: "NRPIndex | None" = None,
        replayed: int = 0,
        error: "str | None" = None,
        detail: "str | None" = None,
    ) -> None:
        self.ok = ok
        self.path = path
        self.index = index
        self.replayed = replayed
        self.error = error
        self.detail = detail

    def to_response_fields(self) -> dict:
        """The wire-facing fields of a ``reload`` op response."""
        fields: dict = {"ok": self.ok, "path": self.path, "replayed": self.replayed}
        if not self.ok:
            fields["error"] = "reload_failed"
            fields["detail"] = f"{self.error}: {self.detail}"
        return fields


def attempt_reload(index_path: "Path | str") -> ReloadResult:
    """Load-and-verify a candidate index file for a hot swap.

    Runs entirely on the reload thread: the verifying ``load_index``
    plus WAL replay happen on a private candidate, and only a fully
    recovered index is returned.  Any damage — a torn or corrupt file,
    an IO error mid-read, an injected fault at the ``serve.reload.*``
    failpoints — comes back as ``ok=False`` with the taxonomy class
    name, and the caller keeps serving its current index.
    """
    index_path = Path(index_path)
    try:
        failpoint("serve.reload.verify", index_path)
        index = load_index(index_path)
        wal = wal_for(index_path)
        failpoint("serve.reload.wal", wal.path)
        replayed = replay_wal(index, wal)
        if replayed:
            save_index(index, index_path)
            for lsn in replayed:
                wal.commit(lsn)
        wal.truncate()
    except (IndexFileError, OSError) as exc:
        return ReloadResult(
            ok=False,
            path=str(index_path),
            error=type(exc).__name__,
            detail=str(exc),
        )
    return ReloadResult(
        ok=True, path=str(index_path), index=index, replayed=len(replayed)
    )
