"""Streaming columnar-ish result store: per-shard JSONL(.gz) segments.

A :class:`SweepStore` is the on-disk artifact of one manifest's execution,
rooted at ``<store_root>/<manifest_hash>/``::

    manifest.json                 the manifest that defines every byte below
    shards/shard-00007.part.jsonl append-only in-progress segment (plain
                                  JSONL so a crashed writer leaves a
                                  recoverable prefix)
    shards/shard-00007.jsonl.gz   finalized segment: one canonical-JSON
                                  record per trial, gzip with pinned mtime
    leases/shard-00007.lease      shard claim (see repro.sweeps.lease)
    sweep.jsonl.gz                compacted single stream (optional; written
                                  by compact(), replaces the shard segments)
    aggregate.json                streaming-aggregate summary

**Byte identity per shard.**  A record line is the canonical JSON
(``sort_keys``, compact separators) of ``{index, seed, spec_hash,
result}``, plus ``audit`` for audited trials — all pure functions of the
manifest — and finalized segments are gzipped with ``mtime=0`` and a
fixed compression level.  Same shard ⇒ same bytes, no matter which host
wrote it, how many pool workers ran it, or where a previous attempt was
killed.

**Resumability.**  Writers append to the ``.part`` file record-by-record
and finalize atomically (tmp + rename) only when the shard is complete.
:meth:`resume_shard` re-validates a part file line by line against the
manifest (index order, spec hash) and truncates at the first invalid or
torn line, so a resumed shard re-runs only the missing suffix and the
final segment is byte-identical to an uninterrupted run.

Records are *data only* (no materialized problem, no machine-dependent
timings), and every reader is a streaming iterator — a 10^6-trial sweep
is aggregated without ever holding more than one record in memory.
"""

from __future__ import annotations

import errno
import gzip
import io
import json
import pathlib
import zlib
from contextlib import contextmanager
from typing import IO, Iterator, Optional, Union

from ..errors import ReproError
from ..io import result_to_dict
from .manifest import SweepManifest, load_manifest, save_manifest

PathLike = Union[str, pathlib.Path]

RECORD_KIND = "sweep_record"
#: Pinned so identical records compress to identical segment bytes.
GZIP_LEVEL = 6

MANIFEST_FILENAME = "manifest.json"
AGGREGATE_FILENAME = "aggregate.json"
COMPACTED_FILENAME = "sweep.jsonl.gz"

#: What reading a damaged gzip file raises: a truncated stream, a bad
#: header, or corrupt deflate data.
_GZIP_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error)


def encode_record(
    index: int, seed: int, spec_hash: str, result, audit=None
) -> bytes:
    """One trial as one canonical JSONL line (the byte-identity unit).

    An audited trial's :class:`~repro.core.AuditReport` adds an ``audit``
    key (``ok`` plus the one-line summary); unaudited records have none.
    """
    payload = {
        "kind": RECORD_KIND,
        "index": int(index),
        "seed": int(seed),
        "spec_hash": spec_hash,
        "result": result_to_dict(result),
    }
    if audit is not None:
        payload["audit"] = {"ok": audit.ok, "summary": audit.summary()}
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _decode_line(line: bytes) -> Optional[dict]:
    """Parse one record line; None for torn/invalid lines (crash tail)."""
    if not line.endswith(b"\n"):
        return None
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("kind") != RECORD_KIND:
        return None
    return payload


@contextmanager
def _read_gzip(path: pathlib.Path) -> Iterator[IO[bytes]]:
    """``gzip.open(path)`` for reading; a damaged file raises ReproError.

    The error names the file and says how to recover instead of surfacing
    a bare ``EOFError`` from deep inside the gzip module.
    """
    try:
        with gzip.open(path, "rb") as fh:
            yield fh
    except _GZIP_ERRORS as exc:
        raise ReproError(
            f"{path} is truncated or corrupt ({exc}); delete it and rerun "
            "the sweep with --resume"
        ) from exc


def _deterministic_gzip(raw: bytes) -> bytes:
    """Gzip with pinned mtime/level/name: equal input ⇒ equal output."""
    buffer = io.BytesIO()
    with gzip.GzipFile(
        filename="", mode="wb", fileobj=buffer, mtime=0,
        compresslevel=GZIP_LEVEL,
    ) as zf:
        zf.write(raw)
    return buffer.getvalue()


class ShardWriter:
    """Append-only writer for one shard's in-progress segment.

    Holds the ``.part`` file open in append mode and flushes after every
    record, so a killed process loses at most the torn final line —
    everything flushed before the kill survives for :meth:`SweepStore.
    resume_shard`.  A full disk is the same case: the append fails with a
    :class:`~repro.errors.ReproError` naming the file and the remedy, and
    the resumed shard drops the torn line.
    """

    def __init__(self, store: "SweepStore", shard: int, start_index: int):
        self.store = store
        self.shard = shard
        self.next_index = start_index
        #: bytes the part file holds: the validated prefix plus every
        #: record appended since (what :meth:`SweepStore.finalize_shard`
        #: checks the file against instead of decoding it again)
        part = store.part_path(shard)
        self.size = part.stat().st_size if part.exists() else 0
        self._fh: Optional[IO[bytes]] = None

    def append(self, seed: int, spec_hash: str, result, audit=None) -> None:
        """Append the next trial's record (indexes are assigned in order)."""
        path = self.store.part_path(self.shard)
        if self._fh is None:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "ab")
        line = encode_record(self.next_index, seed, spec_hash, result, audit)
        try:
            self._fh.write(line)
            self._fh.flush()
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            # Drop the handle without retrying the flush: the torn tail
            # stays on disk for resume_shard to truncate.
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
            raise ReproError(
                f"no space left on device while appending to {path}; "
                "free space and rerun the sweep with --resume"
            ) from exc
        self.next_index += 1
        self.size += len(line)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SweepStore:
    """On-disk segments + aggregate for one manifest's sweep."""

    def __init__(self, root: PathLike, manifest: SweepManifest) -> None:
        self.root = pathlib.Path(root)
        self.manifest = manifest
        self.dir = self.root / manifest.manifest_hash()
        self.shards_dir = self.dir / "shards"
        self.leases_dir = self.dir / "leases"

    # ---------------------------------------------------------------- layout

    def init(self) -> None:
        """Create the store directory and pin the manifest inside it.

        Re-opening an existing store verifies the on-disk manifest hashes
        to the same sweep (the directory name is the hash, so a mismatch
        means a hand-edited file — refuse rather than mix records).  An
        unparseable manifest is named with its remedy: the directory name
        pins which sweep it held, so deleting it and resuming rewrites the
        same file.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        self.shards_dir.mkdir(exist_ok=True)
        self.leases_dir.mkdir(exist_ok=True)
        manifest_path = self.dir / MANIFEST_FILENAME
        if manifest_path.exists():
            try:
                existing = load_manifest(manifest_path)
            except ReproError as exc:
                raise ReproError(
                    f"{manifest_path} is truncated or corrupt ({exc}); "
                    "delete it and rerun the sweep with --resume"
                ) from exc
            if existing.manifest_hash() != self.manifest.manifest_hash():
                raise ReproError(
                    f"store {self.dir} holds a different sweep "
                    f"({existing.manifest_hash()} != "
                    f"{self.manifest.manifest_hash()})"
                )
        else:
            save_manifest(self.manifest, manifest_path)

    def part_path(self, shard: int) -> pathlib.Path:
        return self.shards_dir / f"shard-{shard:05d}.part.jsonl"

    def segment_path(self, shard: int) -> pathlib.Path:
        return self.shards_dir / f"shard-{shard:05d}.jsonl.gz"

    @property
    def compacted_path(self) -> pathlib.Path:
        return self.dir / COMPACTED_FILENAME

    @property
    def aggregate_path(self) -> pathlib.Path:
        return self.dir / AGGREGATE_FILENAME

    # ---------------------------------------------------------------- status

    def shard_complete(self, shard: int) -> bool:
        """Whether the shard's finalized segment (or the compacted stream)
        already exists."""
        return self.segment_path(shard).exists() or self.is_compacted()

    def is_compacted(self) -> bool:
        return self.compacted_path.exists()

    def completed_shards(self) -> list:
        """Shard ids with finalized segments (all of them once compacted)."""
        if self.is_compacted():
            return list(self.manifest.shard_ids())
        return [
            shard
            for shard in self.manifest.shard_ids()
            if self.segment_path(shard).exists()
        ]

    def all_complete(self) -> bool:
        return len(self.completed_shards()) == self.manifest.num_shards

    # ---------------------------------------------------------- resume logic

    def resume_shard(self, shard: int, specs=None) -> int:
        """Validate the shard's part file; return how many trials survive.

        Reads the in-progress segment line by line, checking each record
        is the next expected trial (contiguous ``index`` from the shard
        start, ``seed`` and ``spec_hash`` matching the manifest).  The
        file is truncated at the first torn or mismatched line — a killed
        writer's last write — so the caller re-runs exactly the remaining
        suffix and appends to a known-good prefix.  The shard's specs, and
        with them the expected hashes, are derived once per call
        (:meth:`SweepManifest.shard_specs`), and only when a part file
        exists; a caller that holds them already passes ``specs``.
        """
        part = self.part_path(shard)
        start, stop = self.manifest.shard_range(shard)
        if not part.exists():
            return 0
        if specs is None:
            specs = self.manifest.shard_specs(shard)
        valid_bytes = 0
        valid_records = 0
        expected = start
        with open(part, "rb") as fh:
            for line in fh:
                if expected >= stop:
                    break  # surplus lines: truncate them away
                payload = _decode_line(line)
                if payload is None or payload.get("index") != expected:
                    break
                spec = specs[expected - start]
                if (
                    payload.get("seed") != spec.seed
                    or payload.get("spec_hash") != spec.content_hash()
                ):
                    break
                valid_bytes += len(line)
                valid_records += 1
                expected += 1
        if part.stat().st_size != valid_bytes:
            with open(part, "r+b") as fh:
                fh.truncate(valid_bytes)
        return valid_records

    def writer(self, shard: int, start_offset: int = 0) -> ShardWriter:
        """A :class:`ShardWriter` positioned ``start_offset`` trials into
        the shard (callers pass :meth:`resume_shard`'s return value, after
        which the part file holds exactly that valid prefix)."""
        start, _ = self.manifest.shard_range(shard)
        return ShardWriter(self, shard, start + start_offset)

    def finalize_shard(self, writer: ShardWriter) -> pathlib.Path:
        """Atomically promote a complete part file to a ``.jsonl.gz``
        segment (deterministic bytes), then remove the part file.

        ``writer`` wrote the shard's records after :meth:`resume_shard`:
        its record count and byte tally stand for the part file, so
        nothing is decoded again.  A shard short of records, or a part
        file whose size differs (another process appended to it), is
        refused.
        """
        shard = writer.shard
        part = self.part_path(shard)
        start, stop = self.manifest.shard_range(shard)
        expected = stop - start
        done = writer.next_index - start
        if done != expected:
            raise ReproError(
                f"shard {shard} is incomplete: {done}/{expected} records"
            )
        raw = part.read_bytes()
        if len(raw) != writer.size:
            raise ReproError(
                f"{part} holds {len(raw)} bytes, but this sweep wrote "
                f"{writer.size}: another process appended to it; rerun the "
                "sweep with --resume"
            )
        target = self.segment_path(shard)
        tmp = target.with_suffix(".gz.tmp")
        tmp.write_bytes(_deterministic_gzip(raw))
        tmp.replace(target)
        part.unlink()
        return target

    # --------------------------------------------------------------- readers

    def iter_shard_records(self, shard: int) -> Iterator[dict]:
        """Stream one finalized shard's records (decoded dicts)."""
        path = self.segment_path(shard)
        if not path.exists():
            if self.is_compacted():
                start, stop = self.manifest.shard_range(shard)
                for record in self.iter_records():
                    if start <= record["index"] < stop:
                        yield record
                return
            raise ReproError(f"shard {shard} has no finalized segment")
        with _read_gzip(path) as fh:
            for line in fh:
                payload = _decode_line(line)
                if payload is None:
                    raise ReproError(
                        f"corrupt record in {path.name} (torn line?)"
                    )
                yield payload

    def iter_records(self) -> Iterator[dict]:
        """Stream every record in trial order (compacted or per-shard)."""
        if self.is_compacted():
            with _read_gzip(self.compacted_path) as fh:
                for line in fh:
                    payload = _decode_line(line)
                    if payload is None:
                        raise ReproError(
                            f"corrupt record in {self.compacted_path.name}"
                        )
                    yield payload
            return
        for shard in self.manifest.shard_ids():
            yield from self.iter_shard_records(shard)

    def shard_bytes(self, shard: int) -> bytes:
        """The finalized segment's raw bytes (identity checks)."""
        return self.segment_path(shard).read_bytes()

    # ------------------------------------------------------------ compaction

    def compact(self, keep_shards: bool = False) -> pathlib.Path:
        """Merge every finalized shard segment into one compacted stream.

        Requires all shards complete.  The compacted file is the in-order
        concatenation of the shards' *uncompressed* record lines,
        re-gzipped deterministically — so its bytes too are a pure
        function of the manifest.  Per-shard segments are removed unless
        ``keep_shards`` (record bytes are preserved verbatim either way).
        """
        if self.is_compacted():
            return self.compacted_path
        if not self.all_complete():
            missing = [
                s
                for s in self.manifest.shard_ids()
                if not self.segment_path(s).exists()
            ]
            raise ReproError(
                f"cannot compact: {len(missing)} shards incomplete "
                f"(first missing: {missing[0]})"
            )
        import shutil

        # Streamed, not buffered: zlib's output is a function of the byte
        # stream alone (chunk boundaries never flush), so feeding the
        # decompressed segments through one pinned-header GzipFile yields
        # the same deterministic bytes as compressing a single buffer —
        # in O(chunk) memory instead of O(sweep).
        tmp = self.compacted_path.with_suffix(".gz.tmp")
        with open(tmp, "wb") as raw_out:
            with gzip.GzipFile(
                filename="", mode="wb", fileobj=raw_out, mtime=0,
                compresslevel=GZIP_LEVEL,
            ) as zf:
                for shard in self.manifest.shard_ids():
                    with _read_gzip(self.segment_path(shard)) as fh:
                        shutil.copyfileobj(fh, zf)
        tmp.replace(self.compacted_path)
        if not keep_shards:
            for shard in self.manifest.shard_ids():
                self.segment_path(shard).unlink()
        return self.compacted_path

    # ------------------------------------------------------------- aggregate

    def write_aggregate(self, aggregate: dict) -> pathlib.Path:
        self.aggregate_path.write_text(
            json.dumps(aggregate, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return self.aggregate_path

    def load_aggregate(self) -> Optional[dict]:
        if not self.aggregate_path.exists():
            return None
        return json.loads(self.aggregate_path.read_text(encoding="utf-8"))


def open_store(root: PathLike, manifest: SweepManifest) -> SweepStore:
    """Create (or re-open) the store for ``manifest`` under ``root``."""
    store = SweepStore(root, manifest)
    store.init()
    return store
