"""Atomic shard leases: work stealing over a shared filesystem.

Independent ``repro sweep`` invocations — multiple processes on one host,
or several hosts mounting the same store directory — cooperate on a
manifest by *claiming* shards instead of partitioning them up front.  A
claim is an ``O_CREAT | O_EXCL`` file create (atomic on POSIX local
filesystems and on NFSv3+), so exactly one worker wins each shard; losers
move on to the next unclaimed shard, which is the whole work-stealing
scheduler: whoever is idle takes the next shard, stragglers never block
the sweep.

Liveness: the owner re-touches the lease as it makes progress
(:meth:`ShardLease.heartbeat`).  A lease whose heartbeat is older than
``stale_after`` seconds — or whose owner pid is provably dead on this
host — is *stale*: a claimer running with ``steal_stale=True`` (the CLI's
``--resume``) breaks it and takes over, resuming the shard's part file
from its last valid record.  Breaking a lease never corrupts records:
the part file is re-validated line by line on takeover, and finalization
is an atomic rename.  A heartbeat more than ``stale_after`` seconds in the
*future* (the owner's clock runs ahead of ours) could never go stale, so
judging it raises an error naming the lease and the remedy instead.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time
from typing import Optional, Union

from ..errors import ReproError

PathLike = Union[str, pathlib.Path]

#: A lease without a heartbeat for this many seconds is presumed dead.
DEFAULT_STALE_AFTER_SEC = 300.0


def _pid_alive_on_this_host(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError:  # pragma: no cover - conservative default
        return True
    return True


class ShardLease:
    """One held claim; release it (or let it go stale) when done."""

    def __init__(self, path: pathlib.Path, shard: int) -> None:
        self.path = path
        self.shard = shard
        self.released = False

    def heartbeat(self) -> None:
        """Refresh the liveness timestamp (cheap: one utime)."""
        if not self.released:
            try:
                os.utime(self.path)
            except FileNotFoundError:  # pragma: no cover - stolen from us
                pass

    def release(self) -> None:
        """Drop the claim (idempotent)."""
        if not self.released:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass
            self.released = True

    def __enter__(self) -> "ShardLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class LeaseManager:
    """Claims shard leases inside a store's ``leases/`` directory."""

    def __init__(
        self,
        leases_dir: PathLike,
        stale_after: float = DEFAULT_STALE_AFTER_SEC,
    ) -> None:
        self.dir = pathlib.Path(leases_dir)
        self.stale_after = float(stale_after)

    def path_for(self, shard: int) -> pathlib.Path:
        return self.dir / f"shard-{shard:05d}.lease"

    def owner(self, shard: int) -> Optional[dict]:
        """The current lease payload, or None when unclaimed."""
        try:
            return json.loads(self.path_for(shard).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def is_stale(self, shard: int) -> bool:
        """Whether the shard's lease (if any) shows no recent liveness.

        Raises :class:`~repro.errors.ReproError` for another host's lease
        whose heartbeat lies more than ``stale_after`` in the future.
        """
        path = self.path_for(shard)
        try:
            age = time.time() - path.stat().st_mtime
        except FileNotFoundError:
            return False
        if age > self.stale_after:
            return True
        owner = self.owner(shard)
        if (
            owner is not None
            and owner.get("host") == socket.gethostname()
            and isinstance(owner.get("pid"), int)
        ):
            return not _pid_alive_on_this_host(owner["pid"])
        if -age > self.stale_after:
            who = (
                f"{owner.get('host')} pid {owner.get('pid')}"
                if owner is not None
                else "unreadable"
            )
            raise ReproError(
                f"lease {path} (owner {who}) has a heartbeat {-age:.0f}s in "
                f"the future, beyond the {self.stale_after:.0f}s stale "
                "window, so it can never go stale; sync the clocks of the "
                "hosts sharing the store, or delete the lease if its owner "
                "is gone, then rerun the sweep with --resume"
            )
        return False

    def claim(
        self, shard: int, steal_stale: bool = False
    ) -> Optional[ShardLease]:
        """Try to claim one shard; None when someone else holds it.

        ``steal_stale`` additionally breaks leases that :meth:`is_stale`
        judges abandoned (crashed worker, powered-off host) before
        retrying the atomic create once.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(shard)
        for attempt in (0, 1):
            try:
                fd = os.open(
                    path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                if attempt == 0 and steal_stale and self.is_stale(shard):
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                return None
            payload = {
                "kind": "shard_lease",
                "shard": shard,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "claimed_at": time.time(),
            }
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            return ShardLease(path, shard)
        return None  # pragma: no cover - both attempts lost the race
