"""Whitespace-free regex tokenizer and a frozen vocabulary.

One vocabulary is built up front from all corpora involved in an experiment
and then shared verbatim by every training stage and every encoder
checkpoint; term ids are what ties composed checkpoints together, so the
vocabulary is immutable once built.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "PAD_ID", "UNK_ID", "MASK_ID", "CLS_ID", "SEP_ID",
    "N_SPECIALS", "SPECIAL_TOKENS", "tokenize",
    "Vocabulary", "build_vocabulary",
]

PAD_ID = 0
UNK_ID = 1
MASK_ID = 2
CLS_ID = 3
SEP_ID = 4
N_SPECIALS = 5
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[MASK]", "[CLS]", "[SEP]")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Immutable term <-> id mapping; ids 0..4 are the special tokens."""

    def __init__(self, terms: list[str]):
        seen = set()
        for term in terms:
            if not term or _TOKEN_RE.fullmatch(term) is None:
                raise ValueError(f"invalid vocabulary term: {term!r}")
            if term in seen:
                raise ValueError(f"duplicate vocabulary term: {term!r}")
            seen.add(term)
        self._terms = tuple(terms)
        self._ids = {t: N_SPECIALS + i for i, t in enumerate(terms)}

    def __len__(self) -> int:
        return N_SPECIALS + len(self._terms)

    @property
    def terms(self) -> tuple[str, ...]:
        return self._terms

    def id_of(self, term: str) -> int:
        return self._ids.get(term, UNK_ID)

    def encode(self, text: str, max_seq_len: int | None = None) -> np.ndarray:
        """[CLS] t1 .. tn [SEP], truncated to max_seq_len; unknown terms map to [UNK]."""
        ids = [self._ids.get(t, UNK_ID) for t in tokenize(text)]
        if max_seq_len is not None:
            if max_seq_len < 2:
                raise ValueError("max_seq_len must hold at least [CLS] and [SEP]")
            ids = ids[: max_seq_len - 2]
        return np.array([CLS_ID, *ids, SEP_ID], dtype=np.int64)

    def save(self, path: str | Path) -> None:
        """One term per line; line number = id - 5. Specials are implicit."""
        Path(path).write_text("".join(t + "\n" for t in self._terms), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([ln for ln in lines if ln])


def build_vocabulary(corpora: Iterable[Iterable[str]], max_size: int) -> Vocabulary:
    """Count terms over all texts of all corpora, rank by (-frequency, term),
    keep the top max_size - 5."""
    if max_size <= N_SPECIALS:
        raise ValueError(f"max_size must exceed the {N_SPECIALS} special tokens")
    counts: Counter[str] = Counter()
    for corpus in corpora:
        for text in corpus:
            counts.update(tokenize(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([t for t, _ in ranked[: max_size - N_SPECIALS]])
