"""One JSONL progress stream: the ``--progress`` sink of sweeps and studies."""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable, Optional, Union

PathLike = Union[str, pathlib.Path]


class ProgressSink:
    """Where a stream of progress records goes.

    ``target`` is a callable (handed each record), a path (each record
    appended as one line: ``json.dumps(record, sort_keys=True)``, a
    newline, a flush), ``"-"`` (the same lines on stderr) or ``None``
    (records are dropped).  :meth:`close` closes a file the sink opened;
    records emitted after it are dropped.
    """

    def __init__(
        self, target: Union[Callable[[dict], None], PathLike, None]
    ) -> None:
        self._fh = None
        self._emit: Optional[Callable[[dict], None]] = None
        if callable(target):
            self._emit = target
        elif target is not None:
            if target != "-":
                self._fh = open(target, "a", encoding="utf-8")
            self._emit = self._write_line

    @property
    def enabled(self) -> bool:
        return self._emit is not None

    def __call__(self, record: dict) -> None:
        if self._emit is not None:
            self._emit(record)

    def _write_line(self, record: dict) -> None:
        stream = sys.stderr if self._fh is None else self._fh
        stream.write(json.dumps(record, sort_keys=True) + "\n")
        stream.flush()

    def close(self) -> None:
        self._emit = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None
