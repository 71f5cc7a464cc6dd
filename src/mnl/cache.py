"""Append-only JSON-lines cache for extremal-value records.

One record per line keyed by (key, kind, n).  A record carries a JSON
boolean `exact` and integer counts; any other line is corrupt.  Writes
append under an advisory file lock so at most one writer touches the file
at a time; readers need no lock.  A corrupt line is skipped with a warning,
never a crash.  Compaction rewrites the file keeping only the best record
per key.

A lookup (`get`, and `put`'s check under the lock) decodes only the lines
that can hold its key: those containing the key as `json.dumps` spells it,
those containing a backslash (an escape may spell the same key another
way) and those not of the form `{...}` (torn or garbage lines, so they
still warn).  A key that `json.dumps` escapes, such as one with a quote or
a non-ASCII character, decodes every line, since a line may spell it raw.
So a lookup skips silently a well-formed `{...}` line under another key
that fails validation; `compact` decodes every line, warns about that one
and drops it.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .records import ExRecord

try:
    import fcntl
except ImportError:  # non-POSIX; locking degrades to nothing
    fcntl = None  # type: ignore[assignment]


class CacheStore:
    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def _iter_records(self, needle: str | None = None):
        """Decode the file's records, warning about each corrupt line.  With
        a needle, skip the `{...}` lines that hold neither it nor a
        backslash: no such line can decode to a record holding it."""
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if (
                    needle is not None
                    and needle not in line
                    and "\\" not in line
                    and line[0] == "{"
                    and line[-1] == "}"
                ):
                    continue
                try:
                    yield ExRecord.from_json_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    print(
                        f"warning: skipping corrupt cache line {lineno} in {self.path}: {exc}",
                        file=sys.stderr,
                    )

    @staticmethod
    def _better(a: ExRecord | None, b: ExRecord) -> ExRecord:
        """Prefer exact records, then larger values."""
        if a is None:
            return b
        if a.exact != b.exact:
            return a if a.exact else b
        return a if a.value >= b.value else b

    def get(self, key: str, kind: str, n: int) -> ExRecord | None:
        needle = json.dumps(key)
        best: ExRecord | None = None
        for rec in self._iter_records(None if "\\" in needle else needle):
            if (rec.pattern_key, rec.kind, rec.n) == (key, kind, n):
                best = self._better(best, rec)
        return best

    def put(self, record: ExRecord) -> ExRecord:
        """Append the record.  An exact record that contradicts an existing
        exact record is refused: exact values are immutable facts.  The
        lookup and the append happen under one lock hold, so of several
        writers with contradicting exact values exactly one lands."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock_handle():
            existing = self.get(record.pattern_key, record.kind, record.n)
            if existing is not None and existing.exact:
                if record.exact and record.value != existing.value:
                    raise ValueError(
                        f"exact value conflict for {record.pattern_key!r} n={record.n}: "
                        f"cached {existing.value}, new {record.value}"
                    )
                return existing  # nothing to add; exact already known
            self._append_locked(json.dumps(record.to_json_dict()) + "\n")
        return record

    def compact(self) -> int:
        """Rewrite the file keeping only the best record per key triple.
        Returns the number of records kept.  The scan and the rewrite happen
        under one lock hold, so no record appended meanwhile is lost."""
        best: dict[tuple[str, str, int], ExRecord] = {}
        order: list[tuple[str, str, int]] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock_handle():
            for rec in self._iter_records():
                triple = (rec.pattern_key, rec.kind, rec.n)
                if triple not in best:
                    order.append(triple)
                best[triple] = self._better(best.get(triple), rec)
            lines = "".join(
                json.dumps(best[triple].to_json_dict()) + "\n" for triple in order
            )
            self._rewrite_locked(lines)
        return len(order)

    def _lock_handle(self):
        lock_path = self.path.with_name(self.path.name + ".lock")
        handle = open(lock_path, "a+")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return handle

    def _append_locked(self, text: str) -> None:
        """Append text; the caller holds the lock."""
        with open(self.path, "ab+") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    # an interrupted write tore the last line; end it, or
                    # this record is glued onto it and lost with it
                    text = "\n" + text
            fh.write(text.encode("utf-8"))

    def _rewrite_locked(self, text: str) -> None:
        """Replace the file's contents with text; the caller holds the lock."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, self.path)
