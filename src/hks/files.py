"""Every file hks reads or writes is opened here, and every failure
names its file: an unreadable or unwritable path is a ResourceError,
input that does not decode a DataError. An OSError raised in a `with`
body is claimed by the innermost `reading` or `writing` around it, except
a failed gzip CRC or length check, which is always the reader's. Score
shards are read back through `verified_lines`, which checks each one's
sha256 against the manifest as it streams the shard, and their column
files through `verified_bytes`. Phase two's load workers hand their
parts to the parent as pickle files (`write_pickle`, `read_pickle`)."""

from __future__ import annotations

import codecs
import contextlib
import contextvars
import gzip
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Iterator, TextIO

from .errors import DataError, ResourceError

# Sorted keys, raw UTF-8, no spaces: the one canonical form of score
# records, the manifest, config hashes, selected.jsonl and group labels.
canonical_json = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                                  separators=(",", ":")).encode
# What decoding JSON text raises for input that is not JSON: ValueError
# (json.JSONDecodeError among them), or RecursionError for nesting deeper
# than the decoder's recursion limit.
JSON_ERRORS = (ValueError, RecursionError)

# The lenient stream being read in this context; its `replaced` counts
# the byte sequences its decoder replaced with U+FFFD.
_LENIENT: contextvars.ContextVar = contextvars.ContextVar("hks_lenient")


def _replace_counted(exc: UnicodeDecodeError) -> tuple[str, int]:
    _LENIENT.get().replaced += 1
    return codecs.replace_errors(exc)


codecs.register_error("hks.replace", _replace_counted)


@contextlib.contextmanager
def reading(source: str | Path, strict: bool = True) -> Iterator[TextIO]:
    """Open the file at `source` (`.gz` by suffix) as UTF-8 text, a
    leading byte order mark dropped. With strict=False undecodable bytes
    become U+FFFD and the opened file's `replaced` attribute counts the
    sequences replaced."""
    opener = gzip.open if str(source).endswith(".gz") else open
    opened = False
    try:
        with opener(source, "rt", encoding="utf-8-sig",
                    errors="strict" if strict else "hks.replace") as fh:
            if opener is gzip.open:  # not gzip: fail here, not mid-body
                fh.buffer.peek(1)
            opened = True
            fh.replaced = 0
            token = _LENIENT.set(fh)
            try:
                yield fh
            finally:
                _LENIENT.reset(token)
    except (UnicodeDecodeError, EOFError) as exc:
        raise DataError(f"{source}: cannot decode ({exc})") from exc
    except OSError as exc:
        if opened and isinstance(exc, gzip.BadGzipFile):  # CRC or length
            raise DataError(f"{source}: cannot decode ({exc})") from exc
        raise ResourceError(f"cannot read {source}: {exc}") from exc


def line_chunks(stream: TextIO, size: int) -> Iterator[str]:
    """The text of `stream`, which `reading` opened strict, as chunks of
    whole lines read about `size` bytes at a time, with a leading byte
    order mark dropped and every "\\r\\n" and lone "\\r" turned into
    "\\n" as the text stream would turn them. Where bytes do not decode,
    the whole lines before them come out first and then the
    UnicodeDecodeError, which `reading` reports."""
    held = [stream.buffer.read(len(codecs.BOM_UTF8))
            .removeprefix(codecs.BOM_UTF8)]
    while block := stream.buffer.read(size):
        # A line ends after the last "\n", or after the last "\r" whose
        # next byte is in the block and so known not to be "\n".
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if not cut:
            held.append(block)
            continue
        held.append(block[:cut])
        yield from _decoded_lines(b"".join(held))
        held = [block[cut:]]
    if rest := b"".join(held):
        yield from _decoded_lines(rest)


def _decoded_lines(data: bytes) -> Iterator[str]:
    """`data`, whole lines, decoded and with "\\n" line ends; if some
    bytes do not decode, the whole lines before them, then the error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        end = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
        if end:
            yield from _decoded_lines(head[:end])
        raise
    yield text.replace("\r\n", "\n").replace("\r", "\n")


@contextlib.contextmanager
def writing(path: str | Path) -> Iterator[TextIO]:
    """Stream UTF-8 text to `<path>.tmp`, creating its directory, and
    rename it over `path` when the body completes; on any exception the
    temp file is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except gzip.BadGzipFile:
        raise  # an input read in the body failed its check: the reader's
    except OSError as exc:
        raise ResourceError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def write_pickle(path: str | Path, obj) -> None:
    """Pickle `obj` into a new file at `path`."""
    try:
        with open(path, "wb") as dest:
            pickle.dump(obj, dest, pickle.HIGHEST_PROTOCOL)
    except OSError as exc:
        raise ResourceError(f"cannot write {path}: {exc}") from exc


def read_pickle(path: str | Path):
    """The object `write_pickle` wrote to `path`, unpickled from the
    file a frame (about 64 KiB) at a time."""
    try:
        with open(path, "rb") as src:
            return pickle.load(src)
    except OSError as exc:
        raise ResourceError(f"cannot read {path}: {exc}") from exc


def _binary_lines(path: str | Path) -> Iterator[bytes]:
    """The lines of the file at `path`, split on b"\\n" only."""
    try:
        with open(path, "rb") as f:
            yield from f
    except OSError as exc:
        raise ResourceError(f"cannot read {path}: {exc}") from exc


def line_digest(path: str | Path) -> tuple[str, int]:
    """The sha256 and line count of the file at `path`, read in 1 MiB
    chunks: its b"\\n" count, plus one for an unterminated last line."""
    h = hashlib.sha256()
    count = 0
    last = b"\n"
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
                count += chunk.count(b"\n")
                last = chunk
    except OSError as exc:
        raise ResourceError(f"cannot read {path}: {exc}") from exc
    if not last.endswith(b"\n"):
        count += 1
    return h.hexdigest(), count


def check_sha256(path: str | Path, digest: str, sha256: str) -> None:
    """A DataError naming the file at `path` unless `digest`, the sha256
    of its bytes, is the manifest's `sha256`."""
    if digest != sha256:
        raise DataError(f"{path}: sha256 {digest} differs from the "
                        f"manifest's {sha256}; the shard changed after "
                        f"scoring")


def verified_bytes(path: str | Path, sha256: str) -> bytes:
    """The bytes of the file at `path`, which must hash to `sha256`."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ResourceError(f"cannot read {path}: {exc}") from exc
    check_sha256(path, hashlib.sha256(data).hexdigest(), sha256)
    return data


@contextlib.contextmanager
def verified_lines(path: str | Path, sha256: str) -> Iterator[Iterator[str]]:
    """Yield an iterator over the lines of the score shard at `path`:
    split on b"\\n" only (never on U+2028 or U+0085, which score lines
    hold raw), terminators removed, each decoded as strict UTF-8. A
    running sha256 takes in every byte read, and when the body ends the
    rest of the shard is hashed too. A digest other than `sha256` is a
    DataError naming the shard; it replaces a DataError raised by the
    body or by a line that does not decode, since a shard changed after
    scoring is the cause of both."""
    h = hashlib.sha256()

    def lines() -> Iterator[str]:
        for line_no, raw in enumerate(raws, start=1):
            h.update(raw)
            try:
                line = raw.rstrip(b"\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{line_no}: cannot decode "
                                f"({exc})") from exc
            yield line

    def check() -> None:
        for raw in raws:
            h.update(raw)
        check_sha256(path, h.hexdigest(), sha256)

    with contextlib.closing(_binary_lines(path)) as raws:
        try:
            yield lines()
        except DataError as exc:
            check()
            raise
        check()
