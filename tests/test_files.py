"""File access: the one module that opens files, and its verified reader."""

import ast
import codecs
from contextlib import nullcontext
import hashlib
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hks
from hks import DataError
from hks.files import line_chunks, line_digest, reading, verified_lines

SRC = Path(hks.__file__).parent
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(source: str) -> list[str]:
    """`open(...)`, `<anything>.open(...)` (gzip.open, Path.open) and the
    pathlib read/write shortcuts called in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) and func.id == "open"
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in FILE_CALLS:
            found.append(f"{name}:{node.lineno}")
    return found


def test_file_call_finder():
    source = ("open(p); gzip.open(p); p.open(); p.read_text(); p.write_text(s)\n"
              "p.read_bytes(); p.write_bytes(b); reading(p); f.read(); opener(p)")
    assert sorted(call.split(":")[0] for call in file_calls(source)) == [
        "open", "open", "open", "read_bytes", "read_text", "write_bytes",
        "write_text"]


def test_only_files_module_opens_files():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "files.py" in modules
    offenders = {p.name: calls for p in modules if p.name != "files.py"
                 if (calls := file_calls(p.read_text(encoding="utf-8")))}
    assert offenders == {}


def _shard(tmp_path, data: bytes) -> tuple[Path, str]:
    path = tmp_path / "scores-00000.jsonl"
    path.write_bytes(data)
    return path, hashlib.sha256(data).hexdigest()


def test_lines_split_on_newline_only(tmp_path):
    data = "a b\u0085c\x0cd\n{\"é\": \"東\"}\n\nlast".encode("utf-8")
    path, digest = _shard(tmp_path, data)
    with verified_lines(path, digest) as lines:
        assert list(lines) == ["a b\u0085c\x0cd", '{"é": "東"}', "",
                               "last"]


def test_mismatch_after_body_names_shard(tmp_path):
    path, digest = _shard(tmp_path, b"one\ntwo\n")
    path.write_bytes(b"one\ntwO\n")
    with pytest.raises(DataError, match=rf"{path}: sha256 .* differs"):
        with verified_lines(path, digest) as lines:
            assert list(lines) == ["one", "twO"]


def test_unread_rest_is_hashed(tmp_path):
    path, digest = _shard(tmp_path, b"one\ntwo\n")
    with verified_lines(path, digest) as lines:
        assert next(lines) == "one"
    path.write_bytes(b"one\ntwO\n")
    with pytest.raises(DataError, match="sha256"):
        with verified_lines(path, digest) as lines:
            assert next(lines) == "one"


@pytest.mark.parametrize("changed", [False, True])
def test_body_error_gives_way_to_mismatch(tmp_path, changed):
    path, digest = _shard(tmp_path, b"one\ntwo\n")
    if changed:
        path.write_bytes(b"one\ntwo\nthree\n")
    with pytest.raises(DataError) as err:
        with verified_lines(path, digest) as lines:
            next(lines)
            raise DataError("body failed")
    assert ("sha256" in str(err.value)) is changed
    assert ("body failed" in str(err.value)) is not changed


@pytest.mark.parametrize("changed", [False, True])
def test_undecodable_line(tmp_path, changed):
    path, digest = _shard(tmp_path, b"one\nb\xe9d\nthree\n")
    if changed:
        path.write_bytes(b"one\nb\xe9d\nthree!\n")
    with pytest.raises(DataError) as err:
        with verified_lines(path, digest) as lines:
            list(lines)
    message = str(err.value)
    assert message.startswith(str(path))
    assert ("sha256" in message) is changed
    assert (f"{path}:2: cannot decode" in message) is not changed


def test_missing_shard_is_resource_error(tmp_path):
    with pytest.raises(hks.ResourceError, match="absent.jsonl"):
        with verified_lines(tmp_path / "absent.jsonl", "0" * 64) as lines:
            list(lines)


MIB = 1 << 20


@pytest.mark.parametrize("data", [
    b"", b"a\n", b"a\nb", "a\u2028b\u0085c\n\n".encode("utf-8"),
    # line_digest reads 1 MiB chunks.
    pytest.param(b"x" * (MIB + 5) + b"\nlast\n", id="boundary-in-line"),
    pytest.param(b"x" * (MIB - 1) + b"\n\nnext", id="boundary-on-newline"),
    pytest.param(b"\n" * MIB, id="whole-chunk-of-newlines"),
    pytest.param(b"a\n" * MIB + b"unterminated", id="unterminated-past-chunk"),
])
def test_line_digest(tmp_path, data):
    path, digest = _shard(tmp_path, data)
    assert line_digest(path) == (digest, len(data.splitlines()))


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.sampled_from([b"a", b"\xc3\xa9", b"\t", b"\n", b"\r",
                                      b"\r\n", b"\xe2\x80\xa8", b"\xff",
                                      codecs.BOM_UTF8]),
                     max_size=30).map(b"".join),
       size=st.integers(1, 8))
# A leading byte order mark is dropped at every chunk size, a later one
# kept as the text stream keeps it.
@example(data=codecs.BOM_UTF8 + b"a\n" + codecs.BOM_UTF8 + b"\n", size=1)
@example(data=codecs.BOM_UTF8 + b"\r\na", size=2)
@example(data=codecs.BOM_UTF8 + codecs.BOM_UTF8 + b"\xff\n", size=4)
def test_line_chunks_read_as_the_text_stream(tmp_path_factory, data, size):
    path = tmp_path_factory.mktemp("chunks") / "lines.txt"
    path.write_bytes(data)
    bad = data.find(b"\xff")
    # Before undecodable bytes, every whole line and nothing more.
    whole = data if bad < 0 else data[:max(data.rfind(b"\n", 0, bad),
                                           data.rfind(b"\r", 0, bad)) + 1]
    chunks = []
    with pytest.raises(DataError) if bad >= 0 else nullcontext():
        with reading(path) as stream:
            for chunk in line_chunks(stream, size):
                chunks.append(chunk)
    assert "".join(chunks) == io.TextIOWrapper(io.BytesIO(whole),
                                               encoding="utf-8-sig").read()
    assert all(chunks) and all(c.endswith("\n") for c in chunks[:-1])
