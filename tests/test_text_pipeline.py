"""Tokenization, length fixing, and the averaged-perceptron POS tagger."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alzdetect import chat_corpus, synthgen
from alzdetect.chat_corpus import DataError
from alzdetect.text_pipeline import (
    FIXTURE_TAGGER,
    PAD_TAG,
    PAD_TOKEN,
    PTB_TAGS,
    TAGSET,
    PerceptronTaggerModel,
    TokenSequence,
    default_tagger,
    fix_length,
    one_hot,
    pad_mask,
    tag,
    tokenize,
)
from helpers import (
    FIXTURE_TAGGED,
    dense_tagger,
    predict_word,
    read_tagged_file,
    reference_tag,
    save_tagger,
    tagger_accuracy,
    train_tagger,
)

# ---------------------------------------------------------------------------
# tokenization and padding


def test_tokenize_lowercases_and_strips_punctuation():
    seq = tokenize("The boy FELL down .")
    assert seq.tokens == ("the", "boy", "fell", "down")
    assert seq.original_length == 4


def test_tokenize_keeps_apostrophes():
    assert tokenize("I'm well , don't worry ?").tokens == ("i'm", "well", "don't", "worry")


def test_tokenize_empty_raises():
    with pytest.raises(DataError, match="no word tokens in input text"):
        tokenize("")
    with pytest.raises(DataError, match="no word tokens in input text"):
        tokenize(" . ?! ")


@given(st.text(alphabet="abc' .?!,", max_size=30))
def test_tokenize_tokens_are_clean_words(text):
    try:
        seq = tokenize(text)
    except DataError:
        return
    for tok in seq.tokens:
        assert tok
        assert tok == tok.lower()
        assert tok[-1] not in ".?!,;:"


def test_fix_length_pads_short_sequences():
    seq = fix_length(tokenize("the boy fell"), budget=5)
    assert seq.tokens == ("the", "boy", "fell", PAD_TOKEN, PAD_TOKEN)
    assert seq.original_length == 3


def test_fix_length_truncates_long_sequences():
    long = tokenize(" ".join(f"w{i}" for i in range(80)))
    seq = fix_length(long, budget=73)
    assert len(seq.tokens) == 73
    assert seq.tokens == long.tokens[:73]
    assert seq.original_length == 80


def test_fix_length_rejects_bad_budget():
    with pytest.raises(ValueError):
        fix_length(tokenize("a b"), budget=0)


@given(st.lists(st.sampled_from(["a", "bb", "ccc"]), min_size=1, max_size=120),
       st.integers(min_value=1, max_value=90))
def test_fix_length_always_hits_budget(words, budget):
    seq = fix_length(TokenSequence(tuple(words), len(words)), budget=budget)
    assert len(seq.tokens) == budget
    assert seq.original_length == len(words)


def test_pad_mask_marks_real_positions():
    seq = fix_length(tokenize("the boy fell"), budget=5)
    assert pad_mask(seq).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_pad_mask_on_truncated_sequence_is_all_ones():
    long = tokenize(" ".join(f"w{i}" for i in range(80)))
    mask = pad_mask(fix_length(long, budget=73))
    assert mask.shape == (73,)
    assert np.all(mask == 1.0)


# ---------------------------------------------------------------------------
# tagset and one-hot encoding


def test_tagset_layout():
    assert len(TAGSET) == 37
    assert TAGSET.index(PAD_TAG) == 0
    assert TAGSET[1:] == tuple(PTB_TAGS)
    assert "NN" in TAGSET


def test_one_hot_rows():
    mat = one_hot(("DT", "NN", PAD_TAG))
    assert mat.shape == (3, 37)
    assert np.all(mat.sum(axis=1) == 1.0)
    assert mat[0, TAGSET.index("DT")] == 1.0
    assert mat[1, TAGSET.index("NN")] == 1.0
    assert mat[2, 0] == 1.0


def test_one_hot_rows_are_new_bool_arrays():
    first = one_hot(("DT", "NN"))
    assert first.dtype == bool and first.flags.writeable
    first[:] = True                                # the rows are a copy, not a view
    again = one_hot(("DT", "NN"))
    assert again.sum() == 2 and again[0, TAGSET.index("DT")] and again[1, TAGSET.index("NN")]
    assert one_hot(()).shape == (0, len(TAGSET))


def test_one_hot_unknown_tag_raises():
    with pytest.raises(KeyError):
        one_hot(("QQ",))


# ---------------------------------------------------------------------------
# tagger


def test_untrained_model_defaults_to_nn():
    model = dense_tagger({})
    seq = TokenSequence(("mystery", "words"), 2)
    assert tag(model, seq) == ("NN", "NN")


def test_pad_tokens_always_get_pad_tag():
    model = dense_tagger({})
    seq = fix_length(tokenize("the boy"), budget=4)
    assert tag(model, seq) == ("NN", "NN", PAD_TAG, PAD_TAG)


def test_score_ties_break_toward_earlier_tagset_order():
    # CC precedes DT in the inventory, so an exact tie goes to CC
    model = dense_tagger({"w=foo": {"DT": 1.0, "CC": 1.0}})
    assert predict_word(model, ("foo",), 0, "-START-", "-START2-") == "CC"
    assert tag(model, TokenSequence(("foo",), 1)) == ("CC",)


def test_scores_add_up_in_template_order():
    # bias, w=, suf3= in that order: 1 + 1e16 rounds to 1e16, so DT sums to
    # 0 and CC wins; summed in reverse, DT would sum to 1 and win
    table = {"suf3=foo": {"DT": -1e16}, "w=foo": {"DT": 1e16, "CC": 0.5}, "bias": {"DT": 1.0}}
    assert reference_tag(table, {}, ("foo",)) == ("CC",)
    assert predict_word(dense_tagger(table), ("foo",), 0, "-START-", "-START2-") == "CC"
    assert tag(dense_tagger(table), TokenSequence(("foo",), 1)) == ("CC",)


TINY_CORPUS = [
    [("the", "DT"), ("dog", "NN"), ("runs", "VBZ")],
    [("the", "DT"), ("cat", "NN"), ("runs", "VBZ")],
    [("a", "DT"), ("dog", "NN"), ("sat", "VBD")],
    [("dogs", "NNS"), ("run", "VBP")],
    [("to", "TO"), ("run", "VB"), ("fast", "RB")],
    [("cats", "NNS"), ("run", "VBP")],
    [("to", "TO"), ("run", "VB"), ("away", "RB")],
]


def test_training_separates_ambiguous_words_by_context():
    model = train_tagger(TINY_CORPUS, epochs=8, seed=3)
    # "run" is VBP after a plural noun but VB after "to"
    assert "run" not in model.tagdict
    assert tagger_accuracy(model, TINY_CORPUS) == 1.0


def test_unambiguous_frequent_words_enter_tag_dictionary():
    model = train_tagger(TINY_CORPUS, epochs=2, seed=0)
    assert model.tagdict.get("the") == "DT"
    assert "sat" not in model.tagdict  # seen only once


def test_training_is_deterministic():
    a = train_tagger(TINY_CORPUS, epochs=4, seed=7)
    b = train_tagger(TINY_CORPUS, epochs=4, seed=7)
    assert a.features == b.features
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.tagdict == b.tagdict


def test_default_tagger_saves_the_golden_file(tmp_path):
    # the shipped file was first written by the dict-of-dicts tagger this
    # dense one replaced; retraining must reproduce it, and so must the
    # tagger loaded from it
    retrained, loaded = tmp_path / "retrained.txt", tmp_path / "loaded.txt"
    save_tagger(train_tagger(read_tagged_file(FIXTURE_TAGGED), epochs=5, seed=0), retrained)
    save_tagger(default_tagger(), loaded)
    assert retrained.read_bytes() == FIXTURE_TAGGER.read_bytes()
    assert loaded.read_bytes() == FIXTURE_TAGGER.read_bytes()


def test_fixture_tagger_accuracy():
    corpus = read_tagged_file(FIXTURE_TAGGED)
    assert tagger_accuracy(default_tagger(), corpus) >= 0.90


def test_save_load_round_trip(tmp_path):
    model = train_tagger(TINY_CORPUS, epochs=4, seed=1)
    path, again = tmp_path / "tagger.txt", tmp_path / "again.txt"
    save_tagger(model, path)
    loaded = PerceptronTaggerModel.load(path)
    assert loaded.tagdict == model.tagdict
    save_tagger(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    seq = TokenSequence(("the", "dogs", "run"), 3)
    assert tag(loaded, seq) == tag(model, seq)


def test_load_keeps_the_last_of_repeated_lines(tmp_path):
    path = tmp_path / "tagger.txt"
    path.write_text("PTAG v1\nw=a\tDT\t2.0\nw=a\tCC\t1.0\nw=a\tDT\t0.5\n")
    model = PerceptronTaggerModel.load(path)
    assert tag(model, TokenSequence(("a",), 1)) == ("CC",)


# Weights from a small set, so exact ties, zero sums and -0.0 are common,
# and with +-1e16 beside 1.0 a sum taken in another order rounds otherwise;
# features over a small vocabulary, so tokens often hit no row at all.
_VOCAB = ("a", "ab", "abc", "bca", "cab", "b")
_TAGS = ("CC", "DT", "NN", "VB", "VBZ", "JJ")
_FEATURES = (["bias"]
             + [p + w for p in ("w=", "suf3=", "p1w=", "n1w=") for w in _VOCAB]
             + ["pre1=a", "pre1=b", "p1w=-START-", "n1w=-END-"]
             + [p + t for p in ("p1t=", "p2t=") for t in _TAGS + ("-START-", "-START2-")]
             + ["p1t+w=" + t + "+" + w for t in _TAGS[:3] for w in _VOCAB[:3]])
_WEIGHT_VALUES = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 1e-3, 3.25, 1e16, -1e16]
_WEIGHTS = st.sampled_from(_WEIGHT_VALUES)


@given(table=st.dictionaries(st.sampled_from(_FEATURES),
                             st.dictionaries(st.sampled_from(_TAGS), _WEIGHTS, max_size=4),
                             max_size=25),
       tagdict=st.dictionaries(st.sampled_from(_VOCAB), st.sampled_from(_TAGS), max_size=2),
       words=st.lists(st.sampled_from(_VOCAB + ("zz", PAD_TOKEN)), min_size=1, max_size=12))
def test_dense_scorer_matches_dict_reference(table, tagdict, words):
    tokens = tuple(words)
    model = dense_tagger(table, tagdict)
    assert tag(model, TokenSequence(tokens, len(tokens))) == reference_tag(table, tagdict, tokens)


# One model and its caches for every example: the memo is hit, so a cached
# decision must be right for each context that reaches it.
_WARM_RNG = np.random.default_rng(0)
_WARM_TABLE = {f: {str(t): float(_WARM_RNG.choice(_WEIGHT_VALUES))
                   for t in _WARM_RNG.choice(_TAGS, size=_WARM_RNG.integers(1, 5), replace=False)}
               for f in _FEATURES if _WARM_RNG.random() < 0.5}
_WARM_TAGDICT = {"b": "DT"}
_WARM_MODEL = dense_tagger(_WARM_TABLE, _WARM_TAGDICT)


@given(words=st.lists(st.sampled_from(_VOCAB + ("zz", PAD_TOKEN)), min_size=1, max_size=12))
def test_warm_cache_scorer_matches_dict_reference(words):
    tokens = tuple(words)
    assert (tag(_WARM_MODEL, TokenSequence(tokens, len(tokens)))
            == reference_tag(_WARM_TABLE, _WARM_TAGDICT, tokens))


def _cache_entries(model) -> int:
    return sum(len(v) for v in vars(model).values() if isinstance(v, dict))


def test_second_pass_adds_no_cache_entries():
    model = dense_tagger(_WARM_TABLE, _WARM_TAGDICT)
    seqs = [TokenSequence(tokens, len(tokens)) for tokens in itertools.islice(
        itertools.product(_VOCAB + ("zz", PAD_TOKEN), repeat=3), 200)]
    before = _cache_entries(model)
    first = [tag(model, s) for s in seqs]
    filled = _cache_entries(model)
    assert filled > before
    assert [tag(model, s) for s in seqs] == first
    assert _cache_entries(model) == filled


def test_shipped_tagger_matches_string_feature_scorer(tmp_path):
    # a drift between the cached templates and the feature strings the
    # shipped weights were trained on shows here, token by token
    corpus = synthgen.generate(synthgen.SynthConfig(n_participants=40, embed_dim=8, seed=0),
                               tmp_path)
    model = default_tagger()
    for rec in corpus.records:
        seq = fix_length(tokenize(chat_corpus.extract_participant_text(rec)), budget=73)
        want, prev, prev2 = [], "-START-", "-START2-"
        for i, word in enumerate(seq.tokens):
            if word == PAD_TOKEN:
                want.append(PAD_TAG)
                continue
            want.append(predict_word(model, seq.tokens, i, prev, prev2))
            prev2, prev = prev, want[-1]
        assert tag(model, seq) == tuple(want), rec.transcript_id


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("PTAG v9\nw=a\tNN\t1.0\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:1: unsupported tagger file header "
                                                  f"'PTAG v9'")):
        PerceptronTaggerModel.load(path)


@pytest.mark.parametrize("line", ["bias NN 0.5", "bias\tNN\tlots", "bias\tXX\t0.5"],
                         ids=["no-tabs", "bad-weight", "unknown-tag"])
def test_load_rejects_malformed_line(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"PTAG v1\n{line}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2:")):
        PerceptronTaggerModel.load(path)


def test_load_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"PTAG v1\nbias\tNN\t0.5\ncaf\xff\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
        PerceptronTaggerModel.load(path)


def test_read_tagged_file_groups_on_blank_lines(tmp_path):
    path = tmp_path / "tagged.txt"
    path.write_text("the\tDT\nboy\tNN\n\nshe\tPRP\nfell\tVBD\n")
    assert read_tagged_file(path) == [
        [("the", "DT"), ("boy", "NN")],
        [("she", "PRP"), ("fell", "VBD")],
    ]
