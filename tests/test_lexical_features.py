"""Embeddings, scalar lexicons, and the targeted feature vector."""

import os
import re
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alzdetect import lexical_features, synthgen
from alzdetect.chat_corpus import (
    ECHO,
    DataError,
    Demographics,
    Gender,
    Label,
    load_corpus,
    parse_chat_file,
)
from alzdetect.cli import load_run_config
from alzdetect.lexical_features import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    LEXICON_SLOTS,
    OOV_ROW,
    build_feature_vector,
    embed,
    encode_corpus,
    encode_record,
    lexicon_mean,
    load_embeddings,
    load_lexicon,
    load_lexicon_dir,
    stack_embeddings,
)
from alzdetect.text_pipeline import (
    PAD_TOKEN,
    TokenSequence,
    default_tagger,
    fix_length,
    tokenize,
)
from helpers import (
    dense_tagger,
    embedding_table,
    fixture_lexicons,
    reference_load_embeddings,
    reference_vector,
)

REPO = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# embeddings


def _embedded(table, *words):
    """The rows ``words`` embed as, one per word, read as one array."""
    return np.asarray(embed(TokenSequence(words, len(words)), table))


def test_load_embeddings_basic(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("the 0.1 0.2\nboy 0.3 0.4\nthe 9.0 9.0\n")
    table = load_embeddings(path)
    assert table.dim == 2
    assert "boy" in table and "girl" not in table
    # duplicates keep the first occurrence
    assert _embedded(table, "the", "boy").tolist() == [[0.1, 0.2], [0.3, 0.4]]


def test_load_embeddings_ragged_line_raises(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("the 0.1 0.2\nboy 0.3\n")
    with pytest.raises(DataError, match=f"{path}:2: expected 2 values, got 1"):
        load_embeddings(path)


def test_load_embeddings_no_values_raises(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("the\n")
    with pytest.raises(DataError, match=f"{path}:1: no vector values"):
        load_embeddings(path)


def test_load_embeddings_empty_file_raises(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("")
    with pytest.raises(DataError, match=f"{path}: no embedding lines"):
        load_embeddings(path)


def _same_as_reference(path):
    """The loader raises the reference's error, with its message, at load
    time, or gives the reference's width and words. Every word is then read
    at once, in file order: that raises the reference's first value error
    in file order, or gives each word's vector bytes."""
    try:
        dim, entries = reference_load_embeddings(path)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            load_embeddings(path)
        assert str(got.value) == str(exc)
        return
    table = load_embeddings(path)
    assert table.dim == dim
    # a <pad> line is never read, and no word maps to it
    words = [w for w in entries if w != PAD_TOKEN]
    assert set(table.source.lines) == set(words) and PAD_TOKEN not in table
    try:
        want = np.array([reference_vector(path, *entries[w]) for w in words],
                        dtype=np.float64).reshape(len(words), dim)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            _embedded(table, *words)
        assert str(got.value) == str(exc)
        return
    assert _embedded(table, *words).tobytes() == want.tobytes()
    assert not table.vectors[-1].any()


# every separator str.split() splits on, and one it does not
_SEPARATORS = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()] + ["\x00"]
_TOKENS = ["1_0", "\u0663", "0x10", "nan", "inf", "1e400", "-1e-400", "+1", ".5", "5.",
           "1.0abc"]
# characters that share a lead or a continuation byte with a wide space but are
# not one (str.split() does not split on U+200B), and a 4-byte emoji
_NEAR_MISSES = ["\u00a9", "\x80", "\u00c5", "\u00e0", "\u1681", "\u200b", "\u2030",
                "\u205e", "\u3001", "\ufeff", "\U0001f600"]


def _second_chunk_bad_line(value):
    # lines of about 2.7 KB: line 450 lies past the first 1 MiB of the file
    row = " ".join(["0.123456"] * 300)
    lines = [f"w{i} {row}" for i in range(500)]
    lines[449] = f"w449 {value} " + " ".join(["0.5"] * 299)
    return "\n".join(lines) + "\n"


def test_load_embeddings_holds_the_table_once(tmp_path):
    """A loaded table keeps where each word's line lies, not its values, and
    reads a row when a word is first used: with ten of its 6,000 words
    embedded it holds ten rows (keeping every row took the 9.2 MiB matrix)."""
    path = tmp_path / "vec.txt"
    row = " ".join(["0.123456"] * 200)
    path.write_text("".join(f"w{i} {row}\n" for i in range(6000)))    # 9 MiB of vectors
    words = tuple(f"w{i}" for i in range(0, 6000, 600))
    tracemalloc.start()
    try:
        table = load_embeddings(path)
        rows = _embedded(table, *words)
        held = tracemalloc.get_traced_memory()[0] - rows.nbytes
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20, held / 2**20
    assert rows.tolist() == [[0.123456] * 200] * 10


def _narrower_after_first_chunk():
    # a first line longer than 1 MiB, then lines of one narrower width
    long_value = "0." + "1" * 4000
    first = "a " + " ".join([long_value] * 300)
    return first + "\n" + "".join(f"w{i} " + " ".join(["0.5"] * 299) + "\n" for i in range(5))


_HOSTILE = (
    [(f"token-{t!r}", f"a 0.5 0.25\nb {t} 2\n") for t in _TOKENS]
    + [(f"sep-U+{ord(c):04X}", f"a{c}0.5{c}1\nb 1{c}2\nc{c}3 4{c}\n") for c in _SEPARATORS]
    + [
        ("ragged", "a 1 2\nb 1\n"),
        ("first-word-no-values", "a\nb 1 2\n"),
        ("later-word-no-values", "a 1 2\nb\n"),
        ("word-trailing-space-no-values", "a 1 2\nb \n"),
        ("blank-lines", "\n\na 1 2\n   \n\t\nb 3 4\n\n"),
        ("only-blank-lines", "\n \n\t\n"),
        ("empty", ""),
        ("crlf", "a 1 2\r\nb 3 4\r\n\r\nc 5 6\r\n"),
        ("duplicate-bad-values", "a 1 2\nb 3 4\na nan x\nb 1_0 1e400\n"),
        ("duplicate-ragged", "a 1 2\na 3\n"),
        ("second-chunk-non-numeric", _second_chunk_bad_line("abc")),
        ("second-chunk-non-finite", _second_chunk_bad_line("1e400")),
        ("second-chunk-underscore", _second_chunk_bad_line("1_5")),
        ("narrower-after-first-chunk", _narrower_after_first_chunk()),
        ("lone-cr", "a 1 2\rb 3 4\r\rc 5 6\r"),
        ("lone-cr-ragged", "a 1 2\r\rb 3\r"),
        ("cr-then-crlf", "a 1 2\r\r\nb 3 4\r\n"),
        ("no-final-newline", "a 1 2\nb 3 4"),
        ("no-final-newline-ragged", "a 1 2\nb 3 4 5"),
        ("wide-spaces", "a\u00851\u00a02\u2028\nb\u30003\u2029\u30004\u0085\n"),
        ("wide-space-ragged", "a 1 2\nb 3\u00a04\u30005\n"),
        ("wide-spaces-are-not-line-ends", "a 1\u20282\u0085b 3 4\x1c\x0c\n"),
        ("bom", "\ufeffa 1 2\nb 3 4\n"),
        ("bom-alone", "\ufeff\na 1 2\n"),
        ("wide-space-ends-a-line", "a 1 2\u3000\nb 3 4\u00a0\r\nc 5 6\u2029\rd 7 8\u1680"),
        ("second-chunk-invalid-utf8",
         _second_chunk_bad_line("0.5").encode().replace(b"w449", b"w\xff449")),
        ("second-chunk-truncated-utf8", _second_chunk_bad_line("0.5").encode() + b"w\xc3"),
        ("wider-line-longer-than-a-chunk",
         "a 1 2\nb " + " ".join(["0." + "1" * 100_000] * 3) + "\n"),
    ]
    + [(f"near-miss-U+{ord(c):04X}", f"{c} 1 2\nx{c}y\u00a01\u30002\n{c}{c}\u2028 3\t4\u0085\n")
       for c in _NEAR_MISSES]
    + [(f"near-miss-U+{ord(c):04X}-joins", f"a 1 2\nb 1{c}2\n") for c in _NEAR_MISSES]
)


def _write(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text", [t for _, t in _HOSTILE], ids=[i for i, _ in _HOSTILE])
def test_load_embeddings_matches_reference_on_hostile_input(tmp_path, text):
    _same_as_reference(_write(tmp_path, text))


# chunks of a few bytes: each line is a chunk of its own (or a few blank lines
# are), so every line end, line count and width check crosses a chunk boundary
_TINY_CHUNKS = mock.patch.object(lexical_features, "_CHUNK_BYTES", 3)


@pytest.mark.parametrize("text", [t for _, t in _HOSTILE], ids=[i for i, _ in _HOSTILE])
def test_load_embeddings_matches_reference_on_hostile_input_in_tiny_chunks(tmp_path, text):
    with _TINY_CHUNKS:
        _same_as_reference(_write(tmp_path, text))


def test_bad_line_in_second_chunk_names_its_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text(_second_chunk_bad_line("abc"))
    assert path.read_text().index("w449 abc") > 1 << 20
    table = load_embeddings(path)
    assert _embedded(table, "w448", "w450").shape == (2, 300)
    with pytest.raises(DataError, match=f"{path}:450: non-numeric"):
        _embedded(table, "w449")


def test_load_parses_no_value(tmp_path):
    """Loading checks widths only; each word's values are parsed once, when
    the word is first used, and never for a word no transcript uses (nor for
    values numpy's text reader would not take, such as ``1_0``)."""
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb 3 4\nc 5 6\na 7 8\nd 1_0 2\n")
    with mock.patch.object(lexical_features, "_vector", wraps=lexical_features._vector) as spy:
        table = load_embeddings(path)
        assert spy.call_count == 0
        _embedded(table, "c", "a", "zzz", "c")
        _embedded(table, "a", "c")
        assert spy.call_count == 2
    assert _embedded(table, "a", "c").tolist() == [[1, 2], [5, 6]]


_WORDS = st.sampled_from(["the", "boy", "a", "cookie", "jar", "sink", "mother", "water",
                          "stool", "x\u00e9", "\u0663", "<pad>", *_NEAR_MISSES])
_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.floats(-10, 10).map(lambda v: f"{v:.6f}"))


def _same_as_reference_on_a_random_table(dim, hostile, data):
    # a hostile table may hold blank lines, ragged lines and the hostile
    # tokens
    lines = []
    for _ in range(data.draw(st.integers(0, 12))):
        if hostile and not data.draw(st.integers(0, 4)):
            lines.append(data.draw(st.sampled_from(["", " ", "w", "w 1 2 3 4 5"])))
            continue
        values = data.draw(st.lists(_VALUES, min_size=dim, max_size=dim))
        if hostile and not data.draw(st.integers(0, 4)):
            values[data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from(_TOKENS))
        sep = data.draw(st.sampled_from([" ", "\t", "  ", " \t", "\u3000", "\x1c", "\u00a0",
                                         "\u0085 ", "\u2028"]))
        lines.append(sep.join([data.draw(_WORDS)] + values))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    last = data.draw(st.sampled_from(["", end]))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "vec.txt"
        path.write_bytes((end.join(lines) + last).encode("utf-8"))
        _same_as_reference(path)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), hostile=st.booleans(), data=st.data())
def test_load_embeddings_matches_reference_on_random_tables(dim, hostile, data):
    _same_as_reference_on_a_random_table(dim, hostile, data)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), hostile=st.booleans(), data=st.data())
def test_load_embeddings_matches_reference_on_random_tables_in_tiny_chunks(dim, hostile, data):
    with _TINY_CHUNKS:
        _same_as_reference_on_a_random_table(dim, hostile, data)


def test_space_mask_marks_the_bytes_of_every_space_and_no_other():
    """Every code point but the surrogates, UTF-8 encoded in one chunk: each
    byte of a character ``str.isspace()`` holds for is marked, and no other
    byte is, such as the 0x85 and 0xA0 that end U+00C5 and U+00E0. So is
    every byte below 128 in an ASCII chunk."""
    chars = [chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF]
    widths = [len(c.encode("utf-8")) for c in chars]
    owner = np.repeat(np.arange(len(chars)), widths)
    want = np.array([c.isspace() for c in chars])[owner]
    got = lexical_features._space_mask("".join(chars).encode("utf-8"))
    wrong = sorted({f"U+{ord(chars[k]):04X}" for k in owner[got != want]})
    assert not wrong, wrong
    ascii_bytes = bytes(range(128))
    assert lexical_features._space_mask(ascii_bytes).tolist() == \
        [chr(b).isspace() for b in ascii_bytes]
    assert not lexical_features._space_mask("\u00c5\u00e0".encode("utf-8")).any()


def test_row_ids_follow_first_use(tmp_path):
    """Two tables loaded from one file number their rows alike for one token
    stream: by first use, with words that have no line on the zero row."""
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb 3 4\nc 5 6\n")
    stream = [("c", "zzz", "a"), ("a", "<pad>", "b", "c"), ("zzz", "b")]
    first, second = load_embeddings(path), load_embeddings(path)
    ids = [[embed(TokenSequence(toks, len(toks)), t).ids.tolist() for toks in stream]
           for t in (first, second)]
    assert ids[0] == ids[1] == [[0, OOV_ROW, 1], [1, OOV_ROW, 2, 0], [OOV_ROW, 2]]


def test_rows_keep_their_values_as_the_table_grows():
    """The matrix grows by copying, so rows embedded before a growth read the
    same values after it, and one index gathers old and new ids alike."""
    entries = {f"w{i}": np.full(3, float(i)) for i in range(40)}
    table = embedding_table(3, entries)
    early = embed(TokenSequence(("w7", "zzz"), 2), table)
    held = table.vectors
    late = embed(TokenSequence(tuple(entries), 40), table)
    assert table.vectors is not held and len(table.vectors) > 40
    assert np.asarray(early).tolist() == [[7.0] * 3, [0.0] * 3]
    assert np.asarray(late).tolist() == [[float(i)] * 3 for i in range(40)]
    assert held[0].tolist() == [7.0] * 3 and not held[-1].any()
    assert not table.vectors[-1].any()
    both = stack_embeddings([early, embed(TokenSequence(("w39", "w7"), 2), table)])
    assert both.tolist() == [[[7.0] * 3, [0.0] * 3], [[39.0] * 3, [7.0] * 3]]


def _rewrite_same_size(path):
    # two lines of one length swap places within the mtime's resolution, so
    # only the word at each span tells
    st = path.stat()
    path.write_text("b 3 4\na 1 2\nc 5 6\n")
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def _rewrite_values_same_size(path):
    # same words, same widths, other values, seen with a later mtime
    st = path.stat()
    path.write_text("a 7 8\nb 3 4\nc 5 6\n")
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


@pytest.mark.parametrize("change, message", [
    (_rewrite_same_size, "changed since it was loaded"),
    (_rewrite_values_same_size, "changed since it was loaded"),
    (lambda path: path.write_text("a 1 2\nb 3 4\n"), "changed since it was loaded"),
    (lambda path: path.unlink(), "cannot be read again"),
], ids=["same-size-moved", "same-size-values", "other-size", "deleted"])
def test_file_changed_after_load_is_data_error_at_first_use(tmp_path, change, message):
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb 3 4\nc 5 6\n")
    table = load_embeddings(path)
    assert _embedded(table, "b").tolist() == [[3.0, 4.0]]      # read before the change
    change(path)
    assert _embedded(table, "b", "zzz").tolist() == [[3.0, 4.0], [0.0, 0.0]]
    with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
        _embedded(table, "a")


def test_spans_hold_for_every_line_end_and_non_ascii_words(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_bytes("caf\u00e9 1 2\r\n\u00fcber 3 4\r\u0663 5 6\nb 7 8".encode("utf-8"))
    table = load_embeddings(path)
    assert _embedded(table, "b", "\u0663", "\u00fcber", "caf\u00e9").tolist() == \
        [[7, 8], [5, 6], [3, 4], [1, 2]]


def test_lookup_oov_and_pad_are_zero_vectors():
    table = embedding_table(3, {"a": np.ones(3)})
    rows = embed(TokenSequence(("zzz", "<pad>"), 1), table)
    assert np.asarray(rows).tolist() == [[0.0] * 3] * 2


def test_pads_embed_as_zeros_whatever_the_file_says(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("the 1 2\n<pad> 5 6\ncat 3 4\n")
    seq = fix_length(tokenize("the cat"), budget=4)
    rows = embed(seq, load_embeddings(path))
    assert np.asarray(rows).tolist() == [[1, 2], [3, 4], [0, 0], [0, 0]]


def test_embed_stacks_rows():
    table = embedding_table(2, {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])})
    seq = fix_length(TokenSequence(("a", "b"), 2), budget=3)
    mat = np.asarray(embed(seq, table))
    assert mat.shape == (3, 2)
    assert mat.tolist() == [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]


def test_table_rows_read_as_a_copy_never_a_view():
    table = embedding_table(2, {"a": np.array([1.0, 2.0])})
    rows = embed(TokenSequence(("a", "zzz"), 2), table)
    assert rows.shape == (2, 2)
    mat = np.asarray(rows, dtype=np.float32)
    assert mat.dtype == np.float32 and mat.tolist() == [[1.0, 2.0], [0.0, 0.0]]
    assert not np.shares_memory(np.asarray(rows), table.vectors)
    with pytest.raises(ValueError, match="never viewed"):
        np.asarray(rows, copy=False)


# ---------------------------------------------------------------------------
# scalar lexicons


def test_load_lexicon_parses_header_and_entries(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("# range 1 5\nthe\t2.0\n\nboy\t4.5\n")
    assert load_lexicon(path) == {"the": 2.0, "boy": 4.5}


def test_load_lexicon_requires_range_header(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("the\t2.0\n")
    with pytest.raises(DataError, match=f"{path}: first line must be '# range lo hi'"):
        load_lexicon(path)


def test_load_lexicon_rejects_bad_score(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("# range 1 5\nthe\tabc\n")
    with pytest.raises(DataError, match=f"{path}:2: bad score 'abc'"):
        load_lexicon(path)


def test_load_lexicon_rejects_out_of_range_score(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("# range 1 5\nthe\t7.0\n")
    message = f"{path}:2: score '7.0' for 'the' outside [1.0, 5.0]"
    with pytest.raises(DataError, match=re.escape(message)):
        load_lexicon(path)


@pytest.mark.parametrize("text, needle", [
    ("# range 0 inf\nthe\t2.0\n", ":1:"),
    ("# range nan 5\nthe\t2.0\n", ":1:"),
    ("# range 0 5\nthe\t2.0\nhello\t1e400\n", ":3:"),
    ("# range 0 5\nhello\tnan\n", ":2:"),
    ("# range 1 5\nthe\t7.0\n", ":2:"),
    ("# range 5 5\nthe\t5.0\n", ":1:"),
], ids=["inf-bound", "nan-bound", "overflowing-score", "nan-score", "out-of-range-score",
        "empty-range"])
def test_load_lexicon_rejects_non_finite_values(tmp_path, text, needle):
    path = tmp_path / "x.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"{path}{needle}"):
        load_lexicon(path)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                  "\u2029"])
def test_load_lexicon_ends_lines_only_at_line_ends(tmp_path, char):
    """A character str.splitlines() would break at is part of its line, so
    the lines after it keep their numbers; \\r\\n and a lone \\r end lines."""
    path = tmp_path / "x.tsv"
    path.write_bytes(f"# range 0 10\na{char}b\t1\nd\tx\n".encode("utf-8"))
    with pytest.raises(DataError, match=re.escape(f"{path}:3: bad score 'x'")):
        load_lexicon(path)
    path.write_bytes(f"# range 0 10\r\na{char}b\t1\rc\t2\r\nd\tx\r".encode("utf-8"))
    with pytest.raises(DataError, match=re.escape(f"{path}:4: bad score 'x'")):
        load_lexicon(path)
    path.write_bytes(f"# range 0 10\r\na{char}b\t1\rc\t2\r\n".encode("utf-8"))
    assert load_lexicon(path) == {f"a{char}b": 1.0, "c": 2.0}


# every str.isspace() character but the tab, which ends the word, and the
# line ends, which end the line
_FIELD_SPACES = [c for c in map(chr, range(0x110000))
                 if c.isspace() and c not in "\t\n\r"]


def test_load_lexicon_strips_every_space_around_a_score(tmp_path):
    """float() strips every str.isspace() character but \x1c-\x1f; a score
    field is stripped of all of them, as the embedding file splits on all."""
    assert {"\x1c", "\x1f", "\x0c", "\x85", "\u3000"} <= set(_FIELD_SPACES)
    path = tmp_path / "x.tsv"
    for c in _FIELD_SPACES:
        path.write_bytes(f"# range 0 10\na\t{c}1.5\nb\t2{c}\nc\t{c}3{c}{c}\n".encode("utf-8"))
        assert load_lexicon(path) == {"a": 1.5, "b": 2.0, "c": 3.0}, repr(c)


@pytest.mark.parametrize("c", ["\x1c", "\x1f", "\x0c", "\x85", "\u3000"])
def test_load_lexicon_rejects_a_score_of_spaces_alone(tmp_path, c):
    path = tmp_path / "x.tsv"
    path.write_bytes(f"# range 0 10\na\t1\nb\t{c}{c}\n".encode("utf-8"))
    with pytest.raises(DataError, match=re.escape(f"{path}:3: bad score {ECHO.repr(c + c)}")):
        load_lexicon(path)


def test_load_lexicon_dir_requires_all_slots(tmp_path):
    (tmp_path / "aoa.tsv").write_text("# range 1 10\nthe\t2.5\n")
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "concreteness.tsv"))):
        load_lexicon_dir(tmp_path)


def test_fixture_lexicons_cover_all_slots():
    lex = fixture_lexicons()
    assert set(lex) == set(LEXICON_SLOTS)
    ranges = {"aoa": (1.0, 10.0), "concreteness": (1.0, 5.0), "familiarity": (1.0, 7.0),
              "imageability": (1.0, 7.0), "sentiment": (-1.0, 1.0)}
    for slot, (lo, hi) in ranges.items():
        assert lex[slot] and all(lo <= v <= hi for v in lex[slot].values()), slot


def test_fixture_anchor_scores_are_frozen():
    lex = fixture_lexicons()
    anchors = {  # word -> (aoa, concreteness, familiarity, imageability, sentiment)
        "the": (2.5, 1.4, 6.9, 1.5, 0.0),
        "boy": (3.2, 4.9, 6.5, 6.6, 0.1),
        "fell": (3.4, 3.4, 6.0, 4.2, -0.3),
    }
    for word, expected in anchors.items():
        got = tuple(lex[slot][word] for slot in LEXICON_SLOTS)
        assert got == expected, word


# ---------------------------------------------------------------------------
# mean scores


TOY = {"the": 2.5, "boy": 3.2, "fell": 3.4}


def _means(seq):
    """The five lexicon slots of ``seq``'s feature vector, each read from TOY."""
    return build_feature_vector(seq, dict.fromkeys(LEXICON_SLOTS, TOY),
                                Demographics(70, Gender.FEMALE))[:5].tolist()


def test_mean_score_full_coverage():
    mean, cov = lexicon_mean(("the", "boy"), TOY)
    assert mean == pytest.approx((2.5 + 3.2) / 2)
    assert cov == 1.0


def test_mean_score_misses_are_fully_excluded():
    mean, cov = lexicon_mean(("the", "boy", "zorp"), TOY)
    assert mean == pytest.approx((2.5 + 3.2) / 2)  # zorp not in denominator
    assert cov == pytest.approx(2 / 3)


def test_mean_score_zero_coverage_is_zero():
    assert lexicon_mean(("zorp", "blag"), TOY) == (0.0, 0.0)


def test_mean_score_adds_left_to_right_on_every_python():
    """Ten scores of 0.1 add to 0.9999999999999999 left to right, as
    ``sum()`` did before Python 3.12; from 3.12 ``sum()`` gives 1.0."""
    words = tuple("abcdefghij")
    assert lexicon_mean(words, dict.fromkeys(words, 0.1)) == (0.09999999999999999, 1.0)


def test_mean_score_ignores_pad_positions():
    short = TokenSequence(("the", "boy"), 2)
    padded = fix_length(short, budget=10)
    assert _means(padded) == _means(short) == [(2.5 + 3.2) / 2] * 5


@given(st.permutations(["the", "boy", "fell", "zorp", "the"]))
def test_mean_score_is_order_invariant(words):
    m0, c0 = lexicon_mean(("the", "boy", "fell", "zorp", "the"), TOY)
    m1, c1 = lexicon_mean(tuple(words), TOY)
    assert m1 == pytest.approx(m0)
    assert c1 == c0


@given(st.integers(min_value=3, max_value=20))
def test_mean_score_is_padding_invariant(budget):
    seq = TokenSequence(("the", "boy", "fell"), 3)
    assert _means(fix_length(seq, budget)) == _means(seq)


# ---------------------------------------------------------------------------
# feature vector


def test_feature_vector_layout():
    assert FEATURE_NAMES == ("aoa", "concreteness", "familiarity",
                             "imageability", "sentiment", "age", "gender")
    assert FEATURE_GROUPS == {"psych": (0, 1, 2, 3), "sent": (4,), "demo": (5, 6)}


def test_feature_vector_hand_computed_example():
    # means over "the boy fell" from the packaged lexicons, worked by hand:
    # aoa          (2.5 + 3.2 + 3.4) / 3 = 9.1  / 3
    # concreteness (1.4 + 4.9 + 3.4) / 3 = 9.7  / 3
    # familiarity  (6.9 + 6.5 + 6.0) / 3 = 19.4 / 3
    # imageability (1.5 + 6.6 + 4.2) / 3 = 12.3 / 3
    # sentiment    (0.0 + 0.1 - 0.3) / 3 = -0.2 / 3
    seq = fix_length(tokenize("the boy fell ."), budget=10)
    vec = build_feature_vector(seq, fixture_lexicons(),
                               Demographics(age=66, gender=Gender.FEMALE))
    expected = [9.1 / 3, 9.7 / 3, 19.4 / 3, 12.3 / 3, -0.2 / 3, 0.66, 1.0]
    assert vec == pytest.approx(expected, rel=1e-12)


def test_gender_codes():
    seq = TokenSequence(("the",), 1)
    lex = fixture_lexicons()
    male = build_feature_vector(seq, lex, Demographics(70, Gender.MALE))
    unk = build_feature_vector(seq, lex, Demographics(70, Gender.UNKNOWN))
    gender, age = FEATURE_NAMES.index("gender"), FEATURE_NAMES.index("age")
    assert male[gender] == 0.0
    assert unk[gender] == 0.5
    assert male[age] == pytest.approx(0.70)


def test_missing_age_encodes_as_zero():
    vec = build_feature_vector(TokenSequence(("the",), 1), fixture_lexicons(),
                               Demographics(age=None, gender=Gender.FEMALE))
    assert vec[FEATURE_NAMES.index("age")] == 0.0


def test_feature_vector_requires_all_lexicons():
    lex = dict(fixture_lexicons())
    del lex["sentiment"]
    with pytest.raises(KeyError, match="sentiment"):
        build_feature_vector(TokenSequence(("the",), 1), lex,
                             Demographics(70, Gender.FEMALE))


# ---------------------------------------------------------------------------
# instance encoding


def _record(label=Label.AD):
    content = ("@ID:\teng|X|PAR|66;|female|||P|||\n"
               "*PAR:\tthe boy fell .\n")
    return parse_chat_file(content, label, transcript_id="t-0", participant_id="t")


def _table(dim=4):
    rng = np.random.default_rng(0)
    words = ["the", "boy", "fell"]
    return embedding_table(dim, {w: rng.normal(size=dim) for w in words})


def test_encode_record_shapes_and_ids():
    inst = encode_record(_record(), _table(), fixture_lexicons(),
                         dense_tagger({}), budget=10)
    assert inst.transcript_id == "t-0"
    assert inst.participant_id == "t"
    assert inst.embeddings.shape == (10, 4)
    assert inst.pos_onehot.shape == (10, 37)
    assert inst.features.shape == (7,)
    assert inst.mask.tolist() == [1.0] * 3 + [0.0] * 7
    assert inst.label == 1


def test_encode_record_control_label_is_zero():
    inst = encode_record(_record(Label.CT), _table(), fixture_lexicons(),
                         dense_tagger({}), budget=10)
    assert inst.label == 0


def test_encode_record_pad_rows():
    inst = encode_record(_record(), _table(), fixture_lexicons(),
                         dense_tagger({}), budget=10)
    assert np.all(np.asarray(inst.embeddings)[3:] == 0.0)   # pad embeddings are zero
    assert np.all(inst.pos_onehot[3:, 0] == 1.0)       # pad tag is column 0


def test_encode_corpus_preserves_order():
    from alzdetect.chat_corpus import Corpus

    recs = (_record(Label.AD), )
    corpus = Corpus(records=recs)
    out = encode_corpus(corpus, _table(), fixture_lexicons(),
                        dense_tagger({}), budget=10)
    assert [i.transcript_id for i in out] == ["t-0"]


def test_encode_record_rejects_an_overflowing_lexicon_mean():
    lexicons = dict(fixture_lexicons())
    lexicons["aoa"] = {w: 1e308 for w in ("the", "boy", "fell")}
    with pytest.raises(DataError, match="transcript t-0: the aoa feature"):
        encode_record(_record(), _table(), lexicons, dense_tagger({}), budget=10)


def test_encoded_instances_hold_row_ids_not_vectors(tmp_path):
    """The smoke corpus at the default 300-d width and 73 tokens: a dense
    copy of one instance's embeddings and one-hots would be about 197 KB."""
    synth = replace(load_run_config(REPO / "configs" / "smoke.yaml").synth, embed_dim=300)
    synthgen.generate(synth, tmp_path)
    corpus = load_corpus(tmp_path)
    table = load_embeddings(tmp_path / "embeddings.txt")
    lexicons, tagger = load_lexicon_dir(tmp_path / "lexicons"), default_tagger()
    encode_corpus(corpus, table, lexicons, tagger, budget=73)    # fills the tagger's caches
    tracemalloc.start()
    try:
        instances = encode_corpus(corpus, table, lexicons, tagger, budget=73)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(instances) < 8 * 1024
    for inst in instances:
        assert inst.embeddings.table is table
        assert inst.embeddings.shape == (73, 300)
        assert inst.pos_onehot.dtype == bool
