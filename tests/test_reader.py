"""The streamed reader: every input is read once in blocks, hashed and
decoded as the blocks pass, and fed to its loader as an iterable of text."""
import hashlib
import io
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from citefrac import cli
from citefrac.cli import UsageError, _read, main
from citefrac.corpus import load_canonical, parse_tagged


@pytest.fixture
def tiny_reads(monkeypatch):
    """Reads of 3 bytes, so that the toy fixtures span many reads."""
    monkeypatch.setattr(cli, "_READ_BYTES", 3)


def _decode(data: bytes) -> str:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _whole_file_reading(data: bytes) -> str:
    """What Path.read_text gives of `data`; for a file that is not UTF-8,
    the text before its first bad byte, then the reader's error."""
    try:
        return _decode(data)
    except UnicodeDecodeError as exc:
        error = f"f.bin: not UTF-8 text: {exc.reason} at byte {exc.start}"
        return _decode(data[:exc.start]) + error


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(
        st.sampled_from(["a", "清", "é", "\n", "\r", "\r\n"]).map(str.encode)
        | st.binary(max_size=2)
    ).map(b"".join),
    read_bytes=st.integers(1, 7),
)
def test_reads_decode_as_the_whole_file(tmp_path_factory, data, read_bytes):
    # The text, and for a file that is not UTF-8 the text the loader gets
    # before its fault and the fault's absolute byte offset, are what a
    # single decoding of the whole file gives, for any read size.
    path = tmp_path_factory.mktemp("read") / "f.bin"
    path.write_bytes(data)
    digests, blocks = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_READ_BYTES", read_bytes)
        try:
            _read(path, blocks.extend, digests)
            text = "".join(blocks)
        except UsageError as exc:
            text = "".join(blocks) + str(exc)
    assert text == _whole_file_reading(data)
    if digests:
        assert digests == [(path, hashlib.sha256(data).hexdigest())]


def test_character_split_across_reads(tmp_path, tiny_reads):
    # Each of 清华 is 3 bytes, and every 3-byte read from the 清 on ends in
    # mid-character.
    data = '{"id": "A1", "side": "cited", "year": 2005, "addresses": ["清华 Univ"]}\n'
    path = tmp_path / "corpus.jsonl"
    path.write_text(data, encoding="utf-8")
    assert data.encode().index("清".encode()) % 3 == 2
    assert _read(path, load_canonical).cited["A1"].addresses == ("清华 Univ",)


def test_cr_ending_a_read_and_lf_the_next_are_one_break(tmp_path, monkeypatch):
    record = '{"id": "%s", "side": "cited", "year": 2005}'
    data = "\r\n".join([record % "A1", record % "A2", '{"id": "Z", "side": "cited"}'])
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data.encode())
    monkeypatch.setattr(cli, "_READ_BYTES", data.index("\r") + 1)
    # A "\r\n" counted as two breaks would put the bad record on line 5.
    with pytest.raises(UsageError, match="corpus.jsonl, line 3: record 'Z' has no 'year'"):
        _read(path, load_canonical)


def test_tagged_export_in_tiny_reads(data_dir, tmp_path, tiny_reads):
    # CRLF line ends and 3-byte reads give the records of the LF text.
    text = (data_dir / "toy_good.tagged").read_text(encoding="utf-8")
    path = tmp_path / "export.tagged"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert _read(path, parse_tagged) == parse_tagged(text)


def test_bad_byte_beyond_first_read_names_its_offset(tmp_path, tiny_reads):
    # A character's first byte ends a read, and the next read holds its
    # second byte and then one that breaks it: the fault is reported at the
    # first byte, which the decoder held over from the read before.
    first = b'{"id": "A1", "side": "cited", "year": 2005}\n'
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(first + b"\xe6\xb8x\n")
    assert len(first) % 3 == 2
    with pytest.raises(UsageError, match=f"continuation byte at byte {len(first)}$"):
        _read(path, load_canonical)


@pytest.mark.parametrize("read_bytes", [3, cli._READ_BYTES])
@pytest.mark.parametrize("utf8_first", [True, False])
def test_first_fault_in_file_order_is_reported(
    tmp_path, monkeypatch, read_bytes, utf8_first
):
    # A bad record and a bad byte, in either order, in one read or in many.
    good = b'{"id": "A%d", "side": "cited", "year": 2005}\n'
    faults = [b'{"id": "Z", "side": "cited"}\n', b'{"id": "\xff"}\n']
    if utf8_first:
        faults.reverse()
    data = good % 1 + faults[0] + good % 2 + faults[1] + good % 3
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
    bad_byte = data.index(b"\xff")
    expected = (
        f"not UTF-8 text: invalid start byte at byte {bad_byte}$"
        if utf8_first else "line 2: record 'Z' has no 'year'"
    )
    with pytest.raises(UsageError, match=expected):
        _read(path, load_canonical)


@pytest.mark.parametrize("read_bytes", [3, cli._READ_BYTES])
def test_bad_byte_after_ef_exits_2(data_dir, tmp_path, monkeypatch, capsys, read_bytes):
    monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
    data = (data_dir / "toy_good.tagged").read_bytes()
    export = tmp_path / "export.tagged"
    export.write_bytes(data + b"trailing \xff\n")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(export), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    bad_byte = len(data) + len(b"trailing ")
    assert f"export.tagged: not UTF-8 text: invalid start byte at byte {bad_byte}" in err
    assert not out.exists()


def test_read_holds_less_than_the_file(tmp_path):
    # Neither the file's whole bytes nor its whole text is held while it
    # loads: beyond the corpus it returns, the read holds less than the file.
    path = tmp_path / "corpus.jsonl"
    with path.open("w", encoding="utf-8") as file:
        for i in range(40_000):
            file.write(
                f'{{"id": "P{i:07d}", "side": "citing", "year": {2000 + i % 9}, '
                f'"doctype": "Article", "addresses": ["Tsinghua Univ, Dep {i % 27}, '
                f'Beijing 100084, Peoples R China"], "nrefs": 30, '
                f'"cites": ["C{i % 997}", "D{i % 991}", "E{i % 983}"], "doi": null}}\n'
            )
    size = path.stat().st_size
    assert size > 4 * cli._READ_BYTES
    tracemalloc.start()
    try:
        loaded = _read(path, load_canonical)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.citing) == 40_000
    assert peak - retained < size
