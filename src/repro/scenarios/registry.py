"""Plugin registries for the scenario layer.

A :class:`Registry` maps stable string names to builder callables, so the
components of a routing experiment — topology, workload, path selector,
routing backend — can be named in data (a :class:`~repro.scenarios.RunSpec`)
instead of being wired in code.  Registries are plain dictionaries with two
additions that keep them pleasant at the CLI boundary:

* **aliases** — one callable may answer to several names (``fattree`` and
  ``fat_tree``) without being listed twice;
* **suggestions** — a failed lookup raises :class:`UnknownNameError` (a
  :class:`~repro.errors.ReproError`) that lists every registered name and
  the closest match by edit distance, so a typo in a JSON spec is a
  one-glance fix.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import ReproError


class UnknownNameError(ReproError):
    """A registry lookup failed; the message lists the available names."""

    def __init__(self, kind: str, name: str, available: Iterable[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = sorted(available)
        message = (
            f"unknown {kind} {name!r}; available: "
            + ", ".join(self.available)
        )
        close = difflib.get_close_matches(name, self.available, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        super().__init__(message)


class Registry:
    """Name -> builder mapping for one component kind."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Callable] = {}
        self._aliases: Dict[str, str] = {}

    def register(
        self, name: str, *aliases: str, **attributes
    ) -> Callable[[Callable], Callable]:
        """Decorator: register the function under ``name`` (plus aliases).

        ``attributes`` are set on the function (e.g. a topology's
        ``deterministic``), letting the scenario layer read per-entry
        metadata without a side table.
        """

        def decorate(fn: Callable) -> Callable:
            if name in self._entries or name in self._aliases:
                raise ReproError(
                    f"{self.kind} {name!r} registered twice"
                )
            for key, value in attributes.items():
                setattr(fn, key, value)
            self._entries[name] = fn
            fn.registered_name = name
            for alias in aliases:
                if alias in self._entries or alias in self._aliases:
                    raise ReproError(
                        f"{self.kind} alias {alias!r} registered twice"
                    )
                self._aliases[alias] = name
            return fn

        return decorate

    def canonical(self, name: str) -> str:
        """Resolve aliases to the canonical registered name (no lookup error)."""
        return self._aliases.get(name, name)

    def get(self, name: str) -> Callable:
        """Look up a builder; raise :class:`UnknownNameError` with hints."""
        key = self.canonical(name)
        try:
            return self._entries[key]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def __contains__(self, name: str) -> bool:
        return self.canonical(name) in self._entries

    def names(self) -> List[str]:
        """Canonical registered names, sorted."""
        return sorted(self._entries)

    def describe(self) -> Dict[str, str]:
        """Name -> first docstring line, for ``repro list``."""
        out = {}
        for name in self.names():
            doc = self._entries[name].__doc__ or ""
            out[name] = doc.strip().splitlines()[0] if doc.strip() else ""
        return out


#: The five component registries of the scenario layer.  Populated by
#: :mod:`repro.scenarios.components` at import time; external code may add
#: its own entries before building specs.
TOPOLOGIES = Registry("topology")
WORKLOADS = Registry("workload")
PATH_SELECTORS = Registry("path selector")
BACKENDS = Registry("backend")
ARRIVALS = Registry("arrival process")


def closest_name(
    name: str, available: Iterable[str]
) -> Optional[str]:
    """Best fuzzy match for ``name`` among ``available`` (None if hopeless)."""
    matches = difflib.get_close_matches(name, list(available), n=1)
    return matches[0] if matches else None
