"""Parsing of CHAT-style interview transcripts into labeled records.

Only the subset of CHAT this project needs is handled: ``*TAG:`` main
tiers with tab-indented continuations, ``@`` metadata lines (``@ID``
carries demographics), and the inline annotation codes that appear in
picture-description interviews. Unknown ``@`` headers are ignored. A
record keeps the participant's speech alone: only ``*PAR:`` tiers are
normalized, and their unknown bracket codes are deleted and tallied as
warnings; other speakers' tiers are scanned but not kept.
"""

from __future__ import annotations

import json
import os
import re
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class DataError(ValueError):
    """The one exception type for bad input data (a transcript, corpus,
    embeddings, lexicon, tagger or model file); its message names the file.
    The CLI exits 2 on it, as on any OSError."""


# echoes a piece of bad input in an error message: two levels deep, a few
# items and characters each
ECHO = reprlib.Repr()
ECHO.maxlevel = 2


@contextmanager
def reading_utf8(path):
    """Turn a UTF-8 decode failure while reading ``path`` into a DataError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


class Gender(Enum):
    FEMALE = "female"
    MALE = "male"
    UNKNOWN = "unknown"


class Label(Enum):
    AD = "ad"
    CT = "ct"


PARTICIPANT = "PAR"


@dataclass(frozen=True)
class Demographics:
    age: int | None  # None only when the source file omits it
    gender: Gender

    def __post_init__(self):
        if self.age is not None and not (0 < self.age <= 130):
            raise DataError(f"age {self.age} out of range")


@dataclass(frozen=True)
class TranscriptRecord:
    transcript_id: str
    participant_id: str
    participant_text: str   # clean text of the *PAR: tiers, file order
    demographics: Demographics
    label: Label
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    records: tuple[TranscriptRecord, ...]


@dataclass(frozen=True)
class StatsReport:
    n_participants: dict[str, int]   # keys: total / ad / ct
    n_transcripts: dict[str, int]
    median_words: dict[str, int]


# ---------------------------------------------------------------------------
# utterance normalization

_FILLER_WORDS = {"uh": "uh", "um": "um", "em": "um", "mm": "um", "hm": "um",
                 "eh": "uh", "er": "uh", "ah": "uh", "oh": "oh"}

_RE_BULLET = re.compile(r"\x15[^\x15\s]*\x15")        # media bullet \x15123_4560\x15
_RE_EVENT = re.compile(r"&=\S+")                       # &=laughs
_RE_FRAGMENT = re.compile(r"&[+~]\S+")                 # &+fr fragment, &~li nonword
_RE_FILLER = re.compile(r"&[&-]*([A-Za-z']+)")         # &uh / &-um
_RE_RETRACE = re.compile(r"\[(?://|/|x\s*\d+)\]")      # [//] [/] [x 3]
_RE_REPLACE = re.compile(r"(<[^<>]*>|\S+)\s*\[:\s*([^\]]+)\]")  # word [: form]
_RE_POSTCODE = re.compile(r"\[\+[^\]]*\]")             # [+ exc] and kin
_RE_BRACKET = re.compile(r"\[[^\]]*\]")                # any leftover [...] code
# leftover codes the CHAT manual defines, deleted with no warning: [<] [>1] [?]
# [!] [!!] [*] [* m:+s] [/?] [/-] [= x] [=! x] [=? x] [% x] [^ x]
_RE_DEFINED = re.compile(r"\[(?:[<>]\d*|\?|!!?|/[?-]|\*(?: .*)?|(?:=[!?]?|%|\^) .*)\]")
_RE_PAUSE = re.compile(r"\(\.{1,3}\)")                 # (.) (..) (...)
_RE_OMITTED = re.compile(r"\(([A-Za-z']+)\)")          # (be)cause
_RE_UNINTELLIGIBLE = re.compile(r"\b(?:xxx|yyy)\b")
_RE_MARKER_CHAR = re.compile(r"[&\[<>(+\x15]")         # what every code but xxx/yyy needs


def _filler_word(m: re.Match) -> str:
    word = m.group(1).lower()
    return _FILLER_WORDS.get(word, word)


def _strip_codes_once(text: str, warnings: list[str] | None) -> str:
    def _unknown(m):
        if warnings is not None and not _RE_DEFINED.fullmatch(m.group(0)):
            warnings.append(m.group(0))
        return " "

    # a pattern runs only where its literal marker occurs (see normalize_utterance)
    if "\x15" in text:
        text = _RE_BULLET.sub(" ", text)
    if "&" in text:
        if "&=" in text:
            text = _RE_EVENT.sub(" ", text)
        if "&+" in text or "&~" in text:
            text = _RE_FRAGMENT.sub(" ", text)
        text = _RE_FILLER.sub(_filler_word, text)
    if "[" in text:
        text = _RE_RETRACE.sub(" ", text)
    if "[" in text:
        text = _RE_REPLACE.sub(lambda m: m.group(2), text)
    if "[" in text:
        text = _RE_POSTCODE.sub(" ", text)
    if "[" in text:
        text = _RE_BRACKET.sub(_unknown, text)
    text = text.replace("<", " ").replace(">", " ")
    if "(" in text:
        text = _RE_PAUSE.sub(" ", text)
    if "xxx" in text or "yyy" in text:
        text = _RE_UNINTELLIGIBLE.sub(" ", text)
    if "(" in text:
        text = _RE_OMITTED.sub(r"\1", text)
    if "+" in text:
        text = text.replace("+...", " ").replace("+//", " ")
    return " ".join(text.split())


def normalize_utterance(raw_text: str, warnings: list[str] | None = None) -> str:
    r"""Strip CHAT annotation codes from one main-tier body.

    Fillers become plain word tokens so hesitation behaviour survives into
    the token stream; disfluency markers, media bullets, event codes,
    phonological fragments (``&+fr``), nonwords (``&~li``), pauses and
    unintelligible-speech placeholders vanish. Other bracket codes are
    deleted too; those the CHAT manual does not define (``_RE_DEFINED``)
    are appended to ``warnings`` when a list is supplied.

    Well-formed input settles in one pass; malformed marker soup (nested or
    dangling codes) can expose new codes once outer ones are removed, so the
    pass repeats until the text stops changing. Every pass removes marker
    characters, which bounds the loop. Each substitution of a pass needs a
    marker, so text without one is already settled: the loop goes on only
    while the text holds one of ``& [ < > ( + \x15`` (one character-class
    scan), or else a whole-word ``xxx`` or ``yyy``, which is searched for
    only when the plain substring occurs.

    Within a pass each pattern runs only when the text, as the patterns
    before it left it, holds the literal it needs: ``\x15`` for media
    bullets (``\x15123_4560\x15``), ``&=`` for event codes, ``&+`` or
    ``&~`` for fragments and nonwords, ``&`` for fillers, ``[`` for the
    four bracket codes, ``(`` for pauses and omitted parts, ``xxx`` or
    ``yyy`` for unintelligible speech and ``+`` for trailing-off markers. A
    pattern skipped that way would have matched nothing, so the result is
    that of running all of them.
    """
    text = " ".join(raw_text.split())
    while _RE_MARKER_CHAR.search(text) or (
            ("xxx" in text or "yyy" in text) and _RE_UNINTELLIGIBLE.search(text)):
        stripped = _strip_codes_once(text, warnings)
        if stripped == text:
            break
        text = stripped
    return text


# ---------------------------------------------------------------------------
# file parsing

_RE_TIER = re.compile(r"^\*([A-Z]{3}):")
_RE_AGE = re.compile(r"\d+")                          # the years of ``NN;MM.DD``


def _parse_id_header(value: str) -> Demographics | None:
    """``@ID`` values are pipe-separated; field 3 is the speaker tag,
    field 4 the age as an ``NN;``-prefixed string, field 5 the gender."""
    parts = value.split("|")
    if len(parts) < 5 or parts[2].strip() != PARTICIPANT:
        return None
    age_field = parts[3].strip()
    age: int | None = None
    if age_field and age_field != ";":
        m = _RE_AGE.match(age_field)
        if not m:
            raise DataError(f"unparseable age field {ECHO.repr(age_field)}")
        # past three digits after the leading zeros no age is in range, and
        # past 4,300 int() refuses to parse
        if len(m.group().lstrip("0")) > 3:
            raise DataError(f"age {ECHO.repr(m.group())} out of range")
        age = int(m.group())
    gender_field = parts[4].strip().lower()
    if gender_field.startswith("f"):
        gender = Gender.FEMALE
    elif gender_field.startswith("m"):
        gender = Gender.MALE
    else:
        gender = Gender.UNKNOWN
    return Demographics(age=age, gender=gender)


# Demographics is frozen, so every file without a *PAR: @ID shares this one
_UNKNOWN_DEMOGRAPHICS = Demographics(age=None, gender=Gender.UNKNOWN)


def parse_chat_file(content: str, label: Label, transcript_id: str = "",
                    participant_id: str = "") -> TranscriptRecord:
    r"""Parse one CHAT file into a TranscriptRecord.

    Main tiers are ``*TAG:<TAB>text`` with tab-indented continuation
    lines; ``@`` lines are metadata. Only ``*PAR:`` tiers are kept and
    normalized, so ``warnings`` holds their unknown codes alone; other
    main tiers and dependent ``%`` tiers are skipped.

    A line ends at ``\n``, ``\r\n`` or a lone ``\r`` and nowhere else:
    ``str.splitlines()`` would also end one at ``\x0b``, ``\x0c``,
    ``\x1c``-``\x1e``, U+0085, U+2028 and U+2029, and read the rest of the
    line as a new tier or header. Inside a line they are whitespace, which
    separates words as a space does.
    """
    demographics = _UNKNOWN_DEMOGRAPHICS
    bodies: list[list[str]] = []   # the lines of each *PAR: tier, file order
    body: list[str] | None = None  # the lines of the open *PAR: tier
    if "\r" in content:
        content = content.replace("\r\n", "\n").replace("\r", "\n")
    for line in content.split("\n"):
        if not line.strip():
            continue
        # a line that is not blank and starts with a space or tab starts
        # with none of @ * %
        if line[0] not in "@*%":
            if body is not None:       # a continuation, indented or stray
                body.append(line.strip())
            continue
        body = None
        if line[0] == "*":
            m = _RE_TIER.match(line)
            if not m:
                raise DataError(f"bad tier line: {ECHO.repr(line.strip())}")
            if m.group(1) == PARTICIPANT:
                body = [line[m.end():].strip()]
                bodies.append(body)
        elif line[0] == "@" and ":" in line:
            key, value = line[1:].split(":", 1)
            if key.strip() == "ID":
                demographics = _parse_id_header(value.strip()) or demographics

    if not bodies:
        raise DataError("no *PAR: tier in file")
    warnings: list[str] = []
    texts = [normalize_utterance(" ".join(lines), warnings) for lines in bodies]

    return TranscriptRecord(
        transcript_id=transcript_id,
        participant_id=participant_id,
        participant_text=" ".join(filter(None, texts)),
        demographics=demographics,
        label=label,
        warnings=tuple(warnings),
    )


def extract_participant_text(record: TranscriptRecord) -> str:
    """Concatenated clean text of participant utterances, file order."""
    return record.participant_text


def words(text: str) -> list[str]:
    """The words of clean text as the model reads them: whitespace pieces,
    lowercased, with trailing ``. ? ! , ; :`` dropped. A piece of
    punctuation alone is no word; apostrophized forms stay whole. The text
    is lowered whole: lowering makes and removes no whitespace, and its one
    context rule (Greek final sigma) stops at whitespace, so the pieces are
    those of lowering each piece."""
    return [word for piece in text.lower().split() if (word := piece.rstrip(".?!,;:"))]


def participant_word_count(record: TranscriptRecord) -> int:
    """Words spoken by the participant, counted as the model reads them."""
    return len(words(extract_participant_text(record)))


# ---------------------------------------------------------------------------
# corpus assembly

def read_transcript(path: str | Path, label: Label) -> TranscriptRecord:
    """Parse one CHAT file. The transcript id is the file stem; the
    participant id is the stem up to the first ``-`` (DementiaBank-style
    ``<participant>-<visit>`` names)."""
    if not isinstance(path, Path):
        path = Path(path)
    # one unbuffered read of the whole file: no BufferedReader is worth making
    # for a single read(). Bytes, not text mode: parse_chat_file ends a line at
    # LF, CRLF or a lone CR alike, so newline translation is idle. The OSError
    # of a missing file or a directory names the path, as any open() does.
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    stem = path.stem
    try:
        return parse_chat_file(text, label, transcript_id=stem,
                               participant_id=stem.split("-")[0])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_corpus(root: str | Path) -> Corpus:
    """Assemble a corpus from ``<root>/ad/*.cha`` and ``<root>/ct/*.cha``,
    each file read by ``read_transcript``.

    Each directory's paths are taken in name order, keyed by the normcased
    name. Within one directory that is the order ``sorted()`` gives the
    paths themselves: code points on POSIX, lowercased names on Windows
    (where ``PurePath`` compares lowercased parts), ties in glob order. The
    key compares two strings instead of two paths' part lists. Each path
    goes to ``read_transcript`` as it is, with no copy to build.
    """
    root = Path(root)
    records: list[TranscriptRecord] = []
    for sub, label in (("ad", Label.AD), ("ct", Label.CT)):
        d = root / sub
        if not d.is_dir():
            continue
        paths = sorted(d.glob("*.cha"), key=lambda p: os.path.normcase(p.name))
        records.extend(read_transcript(path, label) for path in paths)
    if not records:
        raise DataError(f"no transcripts under {root}/ad or {root}/ct")
    seen = set()
    for r in records:
        if r.transcript_id in seen:
            raise DataError(f"duplicate transcript id {r.transcript_id!r}")
        seen.add(r.transcript_id)
    return Corpus(records=tuple(records))


def _lower_median(values: list[int]) -> int:
    """Median of an integer list; for even lengths, the lower of the two
    central values (keeps the statistic integer-valued)."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def corpus_stats(corpus: Corpus) -> StatsReport:
    if not corpus.records:
        raise DataError("cannot compute statistics of an empty corpus")
    by_label = {Label.AD: [], Label.CT: []}
    participants = {Label.AD: set(), Label.CT: set()}
    for rec in corpus.records:
        by_label[rec.label].append(participant_word_count(rec))
        participants[rec.label].add(rec.participant_id)

    def _triple(fn, ad, ct, combined):
        return {"total": fn(combined), "ad": fn(ad) if ad else 0, "ct": fn(ct) if ct else 0}

    ad_counts, ct_counts = by_label[Label.AD], by_label[Label.CT]
    all_counts = ad_counts + ct_counts
    return StatsReport(
        n_participants={"total": len(participants[Label.AD] | participants[Label.CT]),
                        "ad": len(participants[Label.AD]),
                        "ct": len(participants[Label.CT])},
        n_transcripts=_triple(len, ad_counts, ct_counts, all_counts),
        median_words=_triple(_lower_median, ad_counts, ct_counts, all_counts),
    )


def write_manifest(corpus: Corpus, path: str | Path):
    """Line-delimited JSON manifest: one object per transcript."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            fh.write(json.dumps({
                "transcript_id": rec.transcript_id,
                "participant_id": rec.participant_id,
                "label": rec.label.value,
                "age": rec.demographics.age,
                "gender": rec.demographics.gender.value,
                "word_count": participant_word_count(rec),
            }) + "\n")
