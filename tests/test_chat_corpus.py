"""Transcript parsing: tier assembly, annotation stripping, demographics."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alzdetect.chat_corpus import (
    BadDemographics,
    ChatParseError,
    Corpus,
    Demographics,
    EmptyCorpus,
    Gender,
    Label,
    MalformedTier,
    MissingParticipantTier,
    TranscriptRecord,
    corpus_stats,
    extract_participant_text,
    load_corpus,
    normalize_utterance,
    parse_chat_file,
    participant_word_count,
    write_manifest,
)
from alzdetect.text_pipeline import tokenize
from helpers import reference_normalize_utterance

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


def test_pauses_and_unintelligible_are_deleted():
    assert normalize_utterance("well (.) I (..) think (...) so") == "well I think so"
    assert normalize_utterance("he said xxx and yyy left") == "he said and left"


def test_omitted_part_is_restored():
    assert normalize_utterance("(be)cause I (re)member") == "because I remember"


def test_trailing_off_markers_vanish():
    assert normalize_utterance("and then +...") == "and then"


def test_whitespace_is_collapsed():
    assert normalize_utterance("  a   b\t c  ") == "a b c"


@settings(max_examples=300)
@given(st.text(alphabet="abc &<>[]()/:+.x3", max_size=40))
def test_normalization_is_idempotent(raw):
    once = normalize_utterance(raw)
    assert normalize_utterance(once) == once


_CHAT_FRAGMENTS = st.sampled_from([
    "&uh", "&-um", "&&er", "&=laughs", "&", "&=", "[//]", "[/]", "[x 3]", "[x3]",
    "[: going to]", "[:", "[+ exc]", "[+", "[*foo]", "[", "]", "<", ">", "<the dog>",
    "(.)", "(..)", "(...)", "(be)", "(", ")", "xxx", "yyy", "xxxx", "axxx", "xxx's",
    "+...", "+//", "+", "+.", "word", "a", "b'c", ".", "?", " ", "  ", "\t", "\u00a0",
])


@settings(max_examples=500)
@given(st.lists(st.one_of(_CHAT_FRAGMENTS, st.text(alphabet="ab &<>[]()/:+.x=3-*", max_size=4)),
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
    with pytest.raises(BadDemographics):
        parse_chat_file(content, Label.CT)


def test_out_of_range_age_raises():
    with pytest.raises(BadDemographics):
        Demographics(age=500, gender=Gender.FEMALE)


def test_no_id_header_defaults_to_unknown():
    rec = parse_chat_file("*PAR:\thello there .\n", Label.AD)
    assert rec.demographics.age is None
    assert rec.demographics.gender is Gender.UNKNOWN


def test_malformed_tier_raises():
    with pytest.raises(MalformedTier):
        parse_chat_file("*P:\thi .\n*PAR:\tok .\n", Label.CT)


def test_missing_participant_tier_raises():
    with pytest.raises(MissingParticipantTier):
        parse_chat_file("*INV:\thow are you ?\n", Label.CT)


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


def test_load_corpus_empty_raises(tmp_path):
    with pytest.raises(EmptyCorpus):
        load_corpus(tmp_path)


def test_duplicate_transcript_id_raises(tmp_path):
    (tmp_path / "ad").mkdir()
    (tmp_path / "ct").mkdir()
    _write_cha(tmp_path / "ad" / "007-0.cha", ["a"])
    _write_cha(tmp_path / "ct" / "007-0.cha", ["b"])
    with pytest.raises(ChatParseError):
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
