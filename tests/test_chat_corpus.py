"""Transcript parsing: tier assembly, annotation stripping, demographics."""

import builtins
import json
import os
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alzdetect import chat_corpus
from alzdetect.chat_corpus import (
    Corpus,
    DataError,
    Demographics,
    Gender,
    Label,
    TranscriptRecord,
    corpus_stats,
    extract_participant_text,
    load_corpus,
    normalize_utterance,
    parse_chat_file,
    participant_word_count,
    read_transcript,
    words,
    write_manifest,
)
from alzdetect.text_pipeline import tokenize
from helpers import reference_normalize_utterance, reference_words

SAMPLE = "\n".join([
    "@UTF8",
    "@Begin",
    "@Languages:\teng",
    "@Participants:\tPAR Participant, INV Investigator",
    "@ID:\teng|Pitt|PAR|66;|female|||Participant|||",
    "@ID:\teng|Pitt|INV|33;|male|||Investigator|||",
    "*INV:\thow are you today ?",
    "*PAR:\twell I'm &uh fine .",
    "*PAR:\tthe boy [//] the boy fell",
    "\tdown and (.) hurt himself [+ exc] .",
    "%mor:\tpro|the n|boy",
    "*PAR:\tshe was &=laughs gonna [: going to] leave xxx .",
    "@End",
])


# ---------------------------------------------------------------------------
# normalization


def test_fillers_become_plain_words():
    assert normalize_utterance("well &uh I &-um think") == "well uh I um think"


def test_filler_spelling_variants_collapse():
    assert normalize_utterance("&eh &er &ah one") == "uh uh uh one"
    assert normalize_utterance("&em &mm &hm two") == "um um um two"
    assert normalize_utterance("&-oh dear") == "oh dear"


def test_unknown_ampersand_form_keeps_the_word():
    # not a recognised filler, but still spoken material
    assert normalize_utterance("&whoa there") == "whoa there"


def test_events_are_deleted():
    assert normalize_utterance("&=laughs the dog &=coughs barked") == "the dog barked"


def test_retrace_markers_deleted_material_kept():
    assert normalize_utterance("the [//] the boy") == "the the boy"
    assert normalize_utterance("I [/] I went") == "I I went"
    assert normalize_utterance("no [x 3] more") == "no more"


def test_angle_groups_lose_their_brackets():
    assert normalize_utterance("<the big dog> [//] the dog ran") == "the big dog the dog ran"


def test_replacement_uses_the_target_form():
    assert normalize_utterance("gonna [: going to] leave") == "going to leave"
    assert normalize_utterance("<dunno> [: don't know] sir") == "don't know sir"


def test_exclusion_postcode_is_silently_removed():
    warnings: list[str] = []
    out = normalize_utterance("the boy fell [+ exc] .", warnings)
    assert out == "the boy fell ."
    assert warnings == []


def test_unknown_bracket_code_is_removed_with_warning():
    warnings: list[str] = []
    out = normalize_utterance("the boy [*strange] fell", warnings)
    assert out == "the boy fell"
    assert warnings == ["[*strange]"]


# the bracket codes the CHAT manual defines beyond retracing, replacement and postcodes
DEFINED_CODES = ["[<]", "[>1]", "[?]", "[!]", "[!!]", "[*]", "[* m:+s]", "[/?]", "[/-]",
                 "[= points]", "[=! laughs]", "[=? x]", "[% sic]", "[^ e]"]


@pytest.mark.parametrize("code", DEFINED_CODES)
def test_defined_codes_are_deleted_without_a_warning(code):
    warnings: list[str] = []
    assert normalize_utterance(f"the boy {code} fell", warnings) == "the boy fell"
    assert warnings == []


def test_pauses_and_unintelligible_are_deleted():
    assert normalize_utterance("well (.) I (..) think (...) so") == "well I think so"
    assert normalize_utterance("he said xxx and yyy left") == "he said and left"


def test_omitted_part_is_restored():
    assert normalize_utterance("(be)cause I (re)member") == "because I remember"


def test_trailing_off_markers_vanish():
    assert normalize_utterance("and then +...") == "and then"


def test_fragments_and_nonwords_are_deleted():
    assert normalize_utterance("the &+fr friend is here .") == "the friend is here ."
    assert normalize_utterance("a &~li &+b-b-bo boy &-um .") == "a boy um ."


def test_media_bullets_are_deleted():
    text = normalize_utterance("the boy is falling . \x15123_4560\x15")
    assert text == "the boy is falling ."
    assert words(text) == ["the", "boy", "is", "falling"]


def test_whitespace_is_collapsed():
    assert normalize_utterance("  a   b\t c  ") == "a b c"


@settings(max_examples=300)
@given(st.text(alphabet="abc &<>[]()/:+.x3", max_size=40))
def test_normalization_is_idempotent(raw):
    once = normalize_utterance(raw)
    assert normalize_utterance(once) == once


_CHAT_FRAGMENTS = st.sampled_from([
    "&uh", "&-um", "&&er", "&=laughs", "&+fr", "&~li", "&+", "&~", "&", "&=", "[//]", "[/]",
    "[x 3]", "[x3]",
    "[: going to]", "[:", "[+ exc]", "[+", "[*foo]", "[", "]", "<", ">", "<the dog>",
    "(.)", "(..)", "(...)", "(be)", "(", ")", "xxx", "yyy", "xxxx", "axxx", "xxx's",
    "+...", "+//", "+", "+.", "word", "a", "b'c", ".", "?", " ", "  ", "\t", "\u00a0",
    "\x15123_4560\x15", "\x15",
    *DEFINED_CODES, "[<x]", "[>]", "[=]", "[%]", "[*x]",
    # word characters against a placeholder: no word boundary, so no placeholder
    "_xxx", "xxx_", "3yyy", "yyy3", "\u00e9xxx", "xxx\u00e9",
])


@settings(max_examples=500)
@given(st.lists(st.one_of(_CHAT_FRAGMENTS, st.text(alphabet="ab &<>[]()/:+.x=3-*?!%^",
                                                   max_size=4)),
                max_size=16))
def test_normalization_matches_fixpoint_reference(pieces):
    raw = "".join(pieces)
    got_warnings, want_warnings = [], []
    assert normalize_utterance(raw, got_warnings) == reference_normalize_utterance(raw, want_warnings)
    assert got_warnings == want_warnings


# ---------------------------------------------------------------------------
# file parsing


def test_sample_file_tier_assembly():
    rec = parse_chat_file(SAMPLE, Label.AD, transcript_id="001-0",
                          participant_id="001")
    assert rec.transcript_id == "001-0"
    assert rec.participant_id == "001"
    assert rec.label is Label.AD
    # the *INV: tier is not kept; the continuation line joins its *PAR: tier
    assert "how are you" not in rec.participant_text
    assert "fell down and hurt himself . she was" in rec.participant_text


def test_sample_file_clean_text():
    rec = parse_chat_file(SAMPLE, Label.AD)
    assert rec.participant_text == " ".join([
        "well I'm uh fine .",
        "the boy the boy fell down and hurt himself .",
        "she was going to leave .",
    ])
    assert extract_participant_text(rec) == rec.participant_text


def test_continuation_line_with_spaces():
    content = "*PAR:\tthe boy\n    fell down .\n"
    rec = parse_chat_file(content, Label.CT)
    assert rec.participant_text == "the boy fell down ."
    # an indented line continues its tier whatever follows the indent
    content = "*PAR:\tthe\n    *boy\n\t@fell\n  %down .\n"
    assert parse_chat_file(content, Label.CT).participant_text == "the *boy @fell %down ."


# what str.splitlines() ends a line at besides \n, \r\n and \r
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("marker", ["%", "@", "*"])
@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=ascii)
def test_only_line_ends_end_a_line(char, marker):
    """Inside a *PAR: tier or its continuation, a whitespace character that
    is no line end separates words, so what follows it stays in the tier."""
    content = (f"*PAR:\tthe boy{char}{marker}fell down .\n"
               f"*PAR:\tthe\n\tgirl{char}{marker}ran off .\n")
    assert parse_chat_file(content, Label.CT).participant_text == (
        f"the boy {marker}fell down . the girl {marker}ran off .")


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=ascii)
def test_line_led_by_whitespace_that_is_no_line_end_continues_its_tier(char):
    content = f"*PAR:\tthe boy\n{char}%fell down .\n*INV:\tand\n{char}then ?\n"
    assert parse_chat_file(content, Label.CT).participant_text == "the boy %fell down ."


def test_continuation_of_another_speaker_is_not_kept():
    content = "*PAR:\tthe boy .\n*INV:\tand\n\tthen ?\nstray\n*PAR:\tfell .\n"
    assert extract_participant_text(parse_chat_file(content, Label.CT)) == "the boy . fell ."


def test_demographics_from_participant_id_row_only():
    rec = parse_chat_file(SAMPLE, Label.AD)
    assert rec.demographics.age == 66
    assert rec.demographics.gender is Gender.FEMALE


def test_missing_age_field_gives_none():
    content = "@ID:\teng|X|PAR||male|||P|||\n*PAR:\thello .\n"
    rec = parse_chat_file(content, Label.CT)
    assert rec.demographics.age is None
    assert rec.demographics.gender is Gender.MALE


def test_semicolon_only_age_gives_none():
    content = "@ID:\teng|X|PAR|;|female|||P|||\n*PAR:\thello .\n"
    assert parse_chat_file(content, Label.CT).demographics.age is None


def test_missing_gender_is_unknown():
    content = "@ID:\teng|X|PAR|70;||||P|||\n*PAR:\thi .\n"
    assert parse_chat_file(content, Label.CT).demographics.gender is Gender.UNKNOWN


def test_unparseable_age_raises():
    content = "@ID:\teng|X|PAR|old;|female|||P|||\n*PAR:\thi .\n"
    with pytest.raises(DataError, match="unparseable age field 'old;'"):
        parse_chat_file(content, Label.CT)


def test_out_of_range_age_raises():
    with pytest.raises(DataError, match="age 500 out of range"):
        Demographics(age=500, gender=Gender.FEMALE)


def test_no_id_header_defaults_to_unknown():
    rec = parse_chat_file("*PAR:\thello there .\n", Label.AD)
    assert rec.demographics.age is None
    assert rec.demographics.gender is Gender.UNKNOWN


def test_malformed_tier_raises():
    with pytest.raises(DataError, match=r"bad tier line: '\*P:\\thi \.'"):
        parse_chat_file("*P:\thi .\n*PAR:\tok .\n", Label.CT)


def test_missing_participant_tier_raises():
    with pytest.raises(DataError, match=r"no \*PAR: tier in file"):
        parse_chat_file("*INV:\thow are you ?\n", Label.CT)


def test_media_bullets_leave_no_token_and_no_warning():
    content = "\n".join([
        "@UTF8",
        "@Begin",
        "@Media:\t001-0, audio",
        "*PAR:\tthe boy . \x150_2150\x15",
        "*INV:\twhat else ? \x152150_3400\x15",
        "*PAR:\tthe cookie . \x153400_5120\x15",
        "@End",
    ])
    rec = parse_chat_file(content, Label.AD)
    assert rec.participant_text == "the boy . the cookie ."
    assert rec.warnings == ()


CHAT_FORMS = Path(__file__).parent / "fixtures" / "chat_forms.cha"


def test_hand_written_chat_forms_give_these_tokens_and_one_warning():
    """A file written from the CHAT manual: headers, an @ID with no gender,
    dependent tiers, an *INV: tier, a continuation line, and every form the
    normalizer deletes; of its codes only [zz] is not in the manual."""
    rec = read_transcript(CHAT_FORMS, Label.AD)
    assert words(rec.participant_text) == [
        "the", "boy", "the", "boy", "is", "uh", "taking", "cookies",
        "the", "mother", "is", "drying", "the", "dishes",
        "and", "the", "water", "um", "is", "running", "over",
        "boys", "he's", "on", "the", "stool", "because",
        "she", "doesn't", "see", "it",
        "the", "girl", "laughs",
        "she", "reaches",
        "cookie", "jar", "a", "+", "b",
    ]
    assert rec.warnings == ("[zz]",)
    assert rec.demographics == Demographics(age=71, gender=Gender.UNKNOWN)


def test_unknown_bracket_lands_in_record_warnings():
    rec = parse_chat_file("*PAR:\tthe [?odd] boy .\n", Label.AD)
    assert rec.warnings == ("[?odd]",)


def test_unknown_bracket_of_another_speaker_is_not_a_warning():
    """Only the *PAR: tiers the model reads are normalized and warned about."""
    rec = parse_chat_file("*INV:\twhat [?inv] is it ?\n*PAR:\tthe [?par] boy .\n", Label.AD)
    assert rec.warnings == ("[?par]",)
    assert rec.participant_text == "the boy ."


def test_dependent_tiers_are_skipped():
    content = "*PAR:\tthe boy .\n%mor:\tdet|the n|boy\n%gra:\t1|2|DET\n"
    rec = parse_chat_file(content, Label.CT)
    assert rec.participant_text == "the boy ."


# ---------------------------------------------------------------------------
# corpus assembly and statistics


def _write_cha(path, words, age=70, gender="female"):
    path.write_text(
        f"@ID:\teng|X|PAR|{age};|{gender}|||P|||\n"
        f"*PAR:\t{' '.join(words)} .\n",
        encoding="utf-8",
    )


def test_load_corpus_layout(tmp_path):
    (tmp_path / "ad").mkdir()
    (tmp_path / "ct").mkdir()
    _write_cha(tmp_path / "ad" / "005-1.cha", ["one", "two"])
    _write_cha(tmp_path / "ad" / "005-2.cha", ["three"])
    _write_cha(tmp_path / "ct" / "101-0.cha", ["four", "five", "six"])
    corpus = load_corpus(tmp_path)
    assert len(corpus.records) == 3
    assert [r.transcript_id for r in corpus.records] == ["005-1", "005-2", "101-0"]
    assert [r.participant_id for r in corpus.records] == ["005", "005", "101"]
    assert [r.label for r in corpus.records] == [Label.AD, Label.AD, Label.CT]


def _globbed_stems(root):
    """The transcript ids in the order ``sorted()`` gives each label
    directory's ``*.cha`` paths."""
    return [p.stem for sub in ("ad", "ct") if (root / sub).is_dir()
            for p in sorted((root / sub).glob("*.cha"))]


def test_load_corpus_takes_transcripts_in_sorted_path_order(tmp_path):
    (tmp_path / "ad").mkdir()
    (tmp_path / "ct").mkdir()
    for name in ["b-1", "a-9", "a-10", "é-1", "e-1", "Z-1"]:
        _write_cha(tmp_path / "ad" / f"{name}.cha", ["one"])
    for name in ["B-1.cha", ".h-1.cha", ".cha", "x.CHA", "notes.txt"]:
        _write_cha(tmp_path / "ct" / name, ["two"])
    ids = [r.transcript_id for r in load_corpus(tmp_path).records]
    assert ids == _globbed_stems(tmp_path)
    if os.name == "posix":
        # code-point order; hidden names are matched, and .CHA is not *.cha
        assert ids == ["Z-1", "a-10", "a-9", "b-1", "e-1", "é-1", ".cha", ".h-1", "B-1"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.text(string.ascii_letters + string.digits + "-_.é", max_size=6),
                          st.sampled_from(["ad", "ct"])),
                min_size=1, max_size=12, unique_by=lambda nd: Path(nd[0] + ".cha").stem))
def test_load_corpus_order_matches_sorted_paths(names):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, sub in names:
            (root / sub).mkdir(exist_ok=True)
            _write_cha(root / sub / f"{name}.cha", ["word"])
        assert [r.transcript_id for r in load_corpus(root).records] == _globbed_stems(root)


@pytest.mark.parametrize("ends", [["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]],
                         ids=["lf", "crlf", "cr", "mixed"])
def test_line_ends_read_alike(tmp_path, ends):
    """A transcript gives the same record whether its lines end in LF,
    CRLF, a lone CR or a mix of them, continuation lines included."""
    lines = SAMPLE.split("\n")
    assert any(line.startswith("\t") for line in lines)
    (tmp_path / "ad").mkdir()
    path = tmp_path / "ad" / "001-0.cha"
    path.write_bytes("".join(line + ends[i % len(ends)] for i, line in enumerate(lines)).encode())
    want = parse_chat_file(SAMPLE, Label.AD, transcript_id="001-0", participant_id="001")
    assert read_transcript(path, Label.AD) == want
    assert load_corpus(tmp_path) == Corpus(records=(want,))


@pytest.mark.parametrize("tail, reason", [(b"\xff .\n", "invalid start byte"),
                                          (b"caf\xc3", "unexpected end of data")],
                         ids=["invalid-byte", "cut-at-eof"])
def test_transcript_that_is_not_utf8_raises(tmp_path, tail, reason):
    (tmp_path / "ad").mkdir()
    path = tmp_path / "ad" / "001-0.cha"
    path.write_bytes(SAMPLE.encode("utf-8") + b"\n*PAR:\tthe " + tail)
    message = f"{path}: not UTF-8 text ({reason})"
    with pytest.raises(DataError) as exc:
        read_transcript(path, Label.AD)
    assert str(exc.value) == message
    with pytest.raises(DataError) as exc:
        load_corpus(tmp_path)
    assert str(exc.value) == message


def test_read_transcript_takes_a_str_or_a_path(tmp_path):
    path = tmp_path / "001-0.cha"
    path.write_text(SAMPLE, encoding="utf-8")
    want = parse_chat_file(SAMPLE, Label.AD, transcript_id="001-0", participant_id="001")
    assert read_transcript(str(path), Label.AD) == want
    assert read_transcript(path, Label.AD) == want


def test_load_corpus_opens_each_transcript_once_unbuffered(tmp_path, monkeypatch):
    (tmp_path / "ad").mkdir()
    (tmp_path / "ct").mkdir()
    paths = [tmp_path / "ad" / "005-1.cha", tmp_path / "ad" / "005-2.cha",
             tmp_path / "ct" / "101-0.cha"]
    for path in paths:
        _write_cha(path, ["one"])
    calls = []

    def counting_open(file, *args, **kwargs):
        calls.append((file, kwargs.get("buffering")))
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(chat_corpus, "open", counting_open, raising=False)
    assert len(load_corpus(tmp_path).records) == 3
    assert calls == [(path, 0) for path in paths]


def test_load_corpus_empty_raises(tmp_path):
    message = f"no transcripts under {tmp_path}/ad or {tmp_path}/ct"
    with pytest.raises(DataError, match=re.escape(message)):
        load_corpus(tmp_path)


def test_duplicate_transcript_id_raises(tmp_path):
    (tmp_path / "ad").mkdir()
    (tmp_path / "ct").mkdir()
    _write_cha(tmp_path / "ad" / "007-0.cha", ["a"])
    _write_cha(tmp_path / "ct" / "007-0.cha", ["b"])
    with pytest.raises(DataError, match="duplicate transcript id '007-0'"):
        load_corpus(tmp_path)


def test_word_count_skips_punctuation_tokens():
    rec = parse_chat_file("*PAR:\tthe boy fell . did he ?\n", Label.AD)
    assert participant_word_count(rec) == 5


@pytest.mark.parametrize("text", ["well , the boy is here .", "yes ; no : maybe !"])
def test_word_count_is_the_models_token_count(text):
    """`stats` and the manifest count the tokens the model reads."""
    rec = parse_chat_file(f"*PAR:\t{text}\n", Label.AD)
    assert participant_word_count(rec) == len(tokenize(rec.participant_text).tokens)


def _record(pid, label, words):
    return TranscriptRecord(
        transcript_id=f"{pid}-{len(words)}", participant_id=pid,
        participant_text=" ".join(words), demographics=Demographics(70, Gender.FEMALE),
        label=label)


def test_corpus_stats_counts_and_medians():
    recs = (
        _record("a1", Label.AD, ["w"] * 10),
        _record("a2", Label.AD, ["w"] * 20),
        _record("a2", Label.AD, ["w"] * 30),  # same participant, second visit
        _record("c1", Label.CT, ["w"] * 5),
        _record("c2", Label.CT, ["w"] * 7),
    )
    stats = corpus_stats(Corpus(records=recs))
    assert stats.n_participants == {"total": 4, "ad": 2, "ct": 2}
    assert stats.n_transcripts == {"total": 5, "ad": 3, "ct": 2}
    assert stats.median_words == {"total": 10, "ad": 20, "ct": 5}


def test_median_even_length_takes_lower_value():
    recs = tuple(_record(f"p{i}", Label.AD, ["w"] * n)
                 for i, n in enumerate([1, 2, 3, 4]))
    stats = corpus_stats(Corpus(records=recs))
    assert stats.median_words["ad"] == 2


def test_manifest_round_trip(tmp_path):
    recs = (_record("a1", Label.AD, ["w"] * 4), _record("c1", Label.CT, ["w"] * 2))
    path = tmp_path / "manifest.jsonl"
    write_manifest(Corpus(records=recs), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {"transcript_id": "a1-4", "participant_id": "a1", "label": "ad",
         "age": 70, "gender": "female", "word_count": 4},
        {"transcript_id": "c1-2", "participant_id": "c1", "label": "ct",
         "age": 70, "gender": "female", "word_count": 2},
    ]


def test_reparsing_written_transcript_is_stable(tmp_path):
    rec = parse_chat_file(SAMPLE, Label.AD, transcript_id="t", participant_id="t")
    text = extract_participant_text(rec)
    again = parse_chat_file("*PAR:\t" + text + "\n", Label.AD)
    assert extract_participant_text(again) == text
    assert again.warnings == ()


# ---------------------------------------------------------------------------
# words: the text lowered whole splits into the pieces of lowering each piece

_CODE_POINTS = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
_SPACES = [c for c in _CODE_POINTS if c.isspace()]


def test_words_lowers_every_code_point_as_a_piece_alone():
    text = " ".join(_CODE_POINTS)
    assert words(text) == reference_words(text)
    text = " ".join(c + "." + c.upper() for c in _CODE_POINTS)
    assert words(text) == reference_words(text)


def test_words_keeps_greek_final_sigma_and_dotted_capital_i_within_their_piece():
    text = ("ΟΔΟΣ ΟΔΟΣ. Σ ΣΑ ΑΣ ΑΣΑ ΑΣ.Α Α.Σ ὈΔΥΣΣΕΎΣ İ İSTANBUL İ. İİ "
            + " ".join(f"ΑΣ{w}Α{w}Σ{w}ΑΣ{w}ΣΑ{w}İ{w}Σ" for w in _SPACES))
    assert words(text) == reference_words(text)
    assert words("ΟΔΟΣ ΣΑ ΑΣ.") == ["οδος", "σα", "ας"]
    assert words("İ") == ["i\u0307"]


_WORD_CHARS = st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.sampled_from(_SPACES + list("ΣσςΑαİIıi.?!,;:'")),
)


@settings(max_examples=500)
@given(st.text(_WORD_CHARS, max_size=60))
def test_words_matches_the_per_piece_reference(text):
    assert words(text) == reference_words(text)
