"""Every file hks reads or writes is opened here, and every failure
names its file: an unreadable or unwritable path is a ResourceError,
input that does not decode a DataError. An OSError raised in a `with`
body is claimed by the innermost `reading` or `writing` around it, except
a failed gzip CRC or length check, which is always the reader's."""

from __future__ import annotations

import codecs
import contextlib
import contextvars
import gzip
import hashlib
import os
from pathlib import Path
from typing import Iterator, TextIO

from .errors import DataError, ResourceError


# The lenient stream being read in this context; its `replaced` counts
# the byte sequences its decoder replaced with U+FFFD.
_LENIENT: contextvars.ContextVar = contextvars.ContextVar("hks_lenient")


def _replace_counted(exc: UnicodeDecodeError) -> tuple[str, int]:
    _LENIENT.get().replaced += 1
    return codecs.replace_errors(exc)


codecs.register_error("hks.replace", _replace_counted)


@contextlib.contextmanager
def reading(source: str | Path | TextIO, strict: bool = True) -> Iterator[TextIO]:
    """Open `source` (`.gz` by suffix) as UTF-8 text; a stream is yielded
    as is. With strict=False undecodable bytes become U+FFFD and the
    opened file's `replaced` attribute counts the sequences replaced."""
    if hasattr(source, "read"):
        yield source
        return
    opener = gzip.open if str(source).endswith(".gz") else open
    opened = False
    try:
        with opener(source, "rt", encoding="utf-8",
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


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise ResourceError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()
