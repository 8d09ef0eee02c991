"""Tokenizer and vocabulary contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spladapt.vocab import (
    CLS_ID, MASK_ID, N_SPECIALS, PAD_ID, SEP_ID, UNK_ID,
    Vocabulary, build_vocabulary, tokenize,
)

from helpers import in_vocabulary, term_of


def test_special_ids_fixed():
    assert (PAD_ID, UNK_ID, MASK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3, 4)


def test_tokenize_lowercases_and_splits_on_non_alnum():
    assert tokenize("The quick-brown FOX, 42!") == ["the", "quick", "brown", "fox", "42"]
    assert tokenize("") == []
    assert tokenize("...!?") == []


def test_build_ranks_by_frequency_then_term():
    corpus = ["b c", "b c a"]
    vocab = build_vocabulary([corpus], max_size=100)
    # b and c tie at 2, b < c; a trails at 1
    assert vocab.terms == ("b", "c", "a")
    assert vocab.id_of("b") == 5 and vocab.id_of("c") == 6 and vocab.id_of("a") == 7


def test_build_truncates_to_max_size():
    corpus = [" ".join(f"w{i}" for i in range(50))]
    vocab = build_vocabulary([corpus], max_size=15)
    assert len(vocab) == 15
    assert len(vocab.terms) == 10


def test_build_rejects_tiny_max_size():
    with pytest.raises(ValueError):
        build_vocabulary([["a"]], max_size=5)


def test_build_spans_multiple_corpora():
    vocab = build_vocabulary([["alpha"], ["omega"]], max_size=100)
    assert in_vocabulary(vocab, "alpha") and in_vocabulary(vocab, "omega")


def test_encode_frames_and_maps_unknowns():
    vocab = Vocabulary(["dog", "cat"])
    np.testing.assert_array_equal(vocab.encode("cat wolf dog"), [CLS_ID, 6, UNK_ID, 5, SEP_ID])
    np.testing.assert_array_equal(vocab.encode(""), [CLS_ID, SEP_ID])


def test_encode_truncates_keeping_frame():
    vocab = Vocabulary(["a", "b", "c", "d"])
    ids = vocab.encode("a b c d", max_seq_len=4)
    np.testing.assert_array_equal(ids, [CLS_ID, 5, 6, SEP_ID])
    with pytest.raises(ValueError):
        vocab.encode("a", max_seq_len=1)


def test_term_of_inverts_id_of():
    vocab = Vocabulary(["x9", "y"])
    assert term_of(vocab, vocab.id_of("y")) == "y"
    assert term_of(vocab, 0) == "[PAD]"
    with pytest.raises(IndexError):
        term_of(vocab, len(vocab))


def test_rejects_duplicates_and_invalid_terms():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"])
    with pytest.raises(ValueError):
        Vocabulary(["has space"])
    with pytest.raises(ValueError):
        Vocabulary(["UPPER"])
    with pytest.raises(ValueError):
        Vocabulary([""])


def test_save_load_round_trip(tmp_path):
    vocab = build_vocabulary([["the cat sat on the mat", "a cat 42"]], max_size=20)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.terms == vocab.terms
    # line number = id - number of specials
    lines = path.read_text().splitlines()
    for i, term in enumerate(lines):
        assert vocab.id_of(term) == N_SPECIALS + i


@given(st.lists(st.text(min_size=0, max_size=20), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_tokens_always_match_pattern(texts):
    vocab = build_vocabulary([texts], max_size=1000)
    for term in vocab.terms:
        assert term == term.lower()
        assert term.isalnum()
    ids = vocab.encode(" ".join(texts), max_seq_len=64)
    assert ids[0] == CLS_ID and ids[-1] == SEP_ID
    assert len(ids) <= 64
    assert (ids >= 0).all() and (ids < len(vocab)).all()
