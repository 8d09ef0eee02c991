"""Synthetic cross-domain retrieval benchmark.

Both domains share one topical vocabulary, and each domain additionally owns
an exclusive per-topic vocabulary that never appears in the other domain.
Documents are topic-conditioned bags of words: mostly shared topic terms,
and a co-occurrence-rate fraction of each topic's documents also carries one
domain-exclusive synonym of the topic, repeated a few times (repetition
concentrates the masking signal each synonym gets, so embedding alignment is
learnable from a small corpus). Each topic's synonym pool has a frequency
tail: common synonyms rotate through most carrier documents, while the rare
tail of the pool appears in only a couple of documents apiece, just enough
to clear the minimum masked-prediction support. A document is relevant to a
query iff they were drawn from the same topic.

Source queries use only shared terms (they must transfer across domains and
supervise fine-tuning). Half the target queries consist entirely of rare
target-exclusive synonyms. Rarity is what makes them discriminative: a
synonym's few carrier documents cannot fill a top-10 ranking by exact
matching, so scoring well requires expanding the synonym into its topic's
shared terms, and only a model whose domain subset saw the target corpus can
do that (in source-trained models those embedding rows never receive a
gradient). Target relevance labels exist only for evaluation; no target
supervision is ever emitted for training.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, TrainTriple
from .vocab import tokenize

__all__ = ["SynthSpec", "generate", "audit_exclusive_support"]

_TRIPLES_PER_TRAIN_QUERY = 8
_MIN_EXCLUSIVE_SUPPORT = 5
_RARE_CARRIER_DOCS = 2


def _rare_split(pool: list[str]) -> tuple[list[str], list[str]]:
    """(common, rare) synonym split of one topic pool; the rare tail is what
    target queries are built from."""
    n_rare = max(1, len(pool) // 4)
    return pool[:-n_rare], pool[-n_rare:]


@dataclass(frozen=True)
class SynthSpec:
    n_topics: int = 8
    shared_vocab: int = 200
    exclusive_vocab: int = 60          # per domain
    docs_per_domain: int = 800
    queries_per_domain: int = 100
    cooccurrence: float = 0.8          # P(doc mixes exclusive terms in)
    seed: int = 7
    doc_len_min: int = 12
    doc_len_max: int = 24

    def __post_init__(self):
        for f in fields(self):
            value, real = getattr(self, f.name), f.name == "cooccurrence"
            if not isinstance(value, numbers.Real if real else numbers.Integral):
                kind = "a real number" if real else "an integer"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if self.n_topics < 2:
            raise ValueError("need at least 2 topics for negatives to exist")
        if self.shared_vocab < 4 * self.n_topics:
            raise ValueError("shared_vocab must provide >= 4 terms per topic")
        if self.exclusive_vocab < 2 * self.n_topics:
            raise ValueError("exclusive_vocab must provide >= 2 terms per topic")
        if self.docs_per_domain < 2 * self.n_topics:
            raise ValueError("docs_per_domain too small to cover every topic")
        if self.queries_per_domain < self.n_topics:
            raise ValueError("queries_per_domain must cover every topic")
        if not 0.0 <= self.cooccurrence <= 1.0:
            raise ValueError("cooccurrence must be in [0, 1]")
        if not 2 <= self.doc_len_min <= self.doc_len_max:
            raise ValueError("bad document length range")
        if min(self._common_events_per_term()) * 2 < _MIN_EXCLUSIVE_SUPPORT:
            raise ValueError(
                "co-occurrence budget too small: every exclusive term needs at "
                f"least {_MIN_EXCLUSIVE_SUPPORT} in-corpus occurrences; raise "
                "docs_per_domain or cooccurrence, or shrink exclusive_vocab"
            )

    def _common_events_per_term(self) -> list[int]:
        """Per topic, how many carrier docs the rarest COMMON synonym gets
        (rare synonyms always get exactly their fixed carrier-doc count, whose
        support clears the audit by construction)."""
        per_d, extra_d = divmod(self.docs_per_domain, self.n_topics)
        per_p, extra_p = divmod(self.exclusive_vocab, self.n_topics)
        out = []
        for t in range(self.n_topics):
            n_docs = per_d + (1 if t < extra_d else 0)
            n_pool = per_p + (1 if t < extra_p else 0)
            n_rare = max(1, n_pool // 4)
            n_common = n_pool - n_rare
            n_events = int(round(n_docs * self.cooccurrence))
            common_events = n_events - _RARE_CARRIER_DOCS * n_rare
            if common_events < 0 or n_common == 0:
                out.append(0)
            else:
                out.append(common_events // n_common)
        return out


def _split_terms(prefix: str, total: int, n_topics: int) -> list[list[str]]:
    """Partition `total` generated terms across topics, remainder to the front."""
    per, extra = divmod(total, n_topics)
    pools, idx = [], 0
    for t in range(n_topics):
        n = per + (1 if t < extra else 0)
        pools.append([f"{prefix}{t}x{j}" for j in range(n)])
        idx += n
    return pools


def generate(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Build (source, target) datasets; deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    shared = _split_terms("top", spec.shared_vocab, spec.n_topics)
    exclusive = {
        "source": _split_terms("src", spec.exclusive_vocab, spec.n_topics),
        "target": _split_terms("tgt", spec.exclusive_vocab, spec.n_topics),
    }

    def gen_doc(topic: int, synonym: tuple[str, int] | None) -> str:
        length = int(rng.integers(spec.doc_len_min, spec.doc_len_max + 1))
        words = list(rng.choice(shared[topic], size=length))
        if synonym is not None:
            term, reps = synonym
            words.extend([term] * reps)
        rng.shuffle(words)
        return " ".join(words)

    def synonym_schedule(domain: str) -> dict[int, list[tuple[str, int] | None]]:
        """Per topic: which docs carry a synonym, which term, how many copies.

        Exactly round(n_docs * cooccurrence) docs per topic carry one. Rare
        synonyms get a fixed small carrier-doc count with extra copies per
        doc (support concentrated, corpus frequency low); common synonyms
        rotate through the remaining carrier docs, so support is even by
        construction."""
        sched: dict[int, list[tuple[str, int] | None]] = {}
        counts = [0] * spec.n_topics
        for i in range(spec.docs_per_domain):
            counts[i % spec.n_topics] += 1
        for topic, n_docs in enumerate(counts):
            common, rare = _rare_split(exclusive[domain][topic])
            n_events = int(round(n_docs * spec.cooccurrence))
            slots: list[tuple[str, int] | None] = [
                (term, int(rng.integers(3, 5)))
                for term in rare for _ in range(_RARE_CARRIER_DOCS)
            ]
            slots += [(common[j % len(common)], int(rng.integers(2, 4)))
                      for j in range(n_events - len(slots))]
            slots += [None] * (n_docs - n_events)
            rng.shuffle(slots)
            sched[topic] = slots
        return sched

    def gen_docs(domain: str, id_prefix: str) -> tuple[dict[str, str], dict[str, int]]:
        sched = synonym_schedule(domain)
        docs: dict[str, str] = {}
        topics: dict[str, int] = {}
        for i in range(spec.docs_per_domain):
            topic = i % spec.n_topics
            doc_id = f"{id_prefix}{i:04d}"
            docs[doc_id] = gen_doc(topic, sched[topic][i // spec.n_topics])
            topics[doc_id] = topic
        return docs, topics

    source_docs, source_topics = gen_docs("source", "S")
    target_docs, target_topics = gen_docs("target", "T")

    def shared_query(topic: int) -> str:
        n = int(rng.integers(2, 5))
        return " ".join(rng.choice(shared[topic], size=n, replace=False))

    def target_query(topic: int) -> str:
        # Half the target queries hinge entirely on rare target-exclusive
        # synonyms: exact matching reaches only their couple of carrier docs,
        # so only a model whose domain subset saw the target corpus can
        # resolve them to the full topic.
        if rng.random() < 0.5:
            _, rare = _rare_split(exclusive["target"][topic])
            n_ex = int(rng.integers(1, min(2, len(rare)) + 1))
            return " ".join(rng.choice(rare, size=n_ex, replace=False))
        return shared_query(topic)

    def qrels_for(queries: dict[str, str], query_topics: dict[str, int],
                  doc_topics: dict[str, int]) -> dict[str, dict[str, int]]:
        by_topic: dict[int, list[str]] = {}
        for doc_id, topic in doc_topics.items():
            by_topic.setdefault(topic, []).append(doc_id)
        return {qid: {d: 1 for d in by_topic[query_topics[qid]]} for qid in queries}

    # source: first half of the queries is held-out evaluation, second half
    # supervises fine-tuning through triples
    n_eval = spec.queries_per_domain // 2
    src_eval: dict[str, str] = {}
    src_eval_topics: dict[str, int] = {}
    train_queries: list[tuple[str, int]] = []
    for i in range(spec.queries_per_domain):
        topic = i % spec.n_topics
        text = shared_query(topic)
        if i < n_eval:
            qid = f"sq{i:03d}"
            src_eval[qid] = text
            src_eval_topics[qid] = topic
        else:
            train_queries.append((text, topic))

    src_by_topic: dict[int, list[str]] = {}
    for doc_id, topic in source_topics.items():
        src_by_topic.setdefault(topic, []).append(doc_id)
    triples: list[TrainTriple] = []
    for text, topic in train_queries:
        for _ in range(_TRIPLES_PER_TRAIN_QUERY):
            pos = str(rng.choice(src_by_topic[topic]))
            neg_topic = int(rng.integers(0, spec.n_topics - 1))
            if neg_topic >= topic:
                neg_topic += 1
            neg = str(rng.choice(src_by_topic[neg_topic]))
            triples.append(TrainTriple(query=text, pos_doc_id=pos, neg_doc_id=neg))

    tgt_queries: dict[str, str] = {}
    tgt_topics_by_qid: dict[str, int] = {}
    for i in range(spec.queries_per_domain):
        topic = i % spec.n_topics
        qid = f"tq{i:03d}"
        tgt_queries[qid] = target_query(topic)
        tgt_topics_by_qid[qid] = topic

    source = Dataset(
        docs=source_docs,
        queries=src_eval,
        qrels=qrels_for(src_eval, src_eval_topics, source_topics),
        triples=triples,
    )
    target = Dataset(
        docs=target_docs,
        queries=tgt_queries,
        qrels=qrels_for(tgt_queries, tgt_topics_by_qid, target_topics),
    )
    source.validate()
    target.validate()
    audit_exclusive_support(spec, source, target)
    return source, target


def audit_exclusive_support(spec: SynthSpec, source: Dataset, target: Dataset) -> dict[str, int]:
    """Count in-corpus occurrences of every domain-exclusive term and fail if
    any term lacks the support MLM pretraining needs (or leaks across
    domains)."""
    exclusive = {
        "source": _split_terms("src", spec.exclusive_vocab, spec.n_topics),
        "target": _split_terms("tgt", spec.exclusive_vocab, spec.n_topics),
    }
    counts: dict[str, int] = {}
    corpora = {"source": source.docs, "target": target.docs}
    for domain in ("source", "target"):
        other = "target" if domain == "source" else "source"
        own_terms = {t for pool in exclusive[domain] for t in pool}
        tally = {t: 0 for t in own_terms}
        for text in corpora[domain].values():
            for tok in tokenize(text):
                if tok in tally:
                    tally[tok] += 1
        for text in corpora[other].values():
            leaked = own_terms.intersection(tokenize(text))
            if leaked:
                raise AssertionError(f"{domain}-exclusive terms leaked into {other}: {sorted(leaked)[:5]}")
        weak = sorted(t for t, c in tally.items() if c < _MIN_EXCLUSIVE_SUPPORT)
        if weak:
            raise AssertionError(
                f"{domain}-exclusive terms occur fewer than {_MIN_EXCLUSIVE_SUPPORT} times: {weak[:10]}"
            )
        counts.update(tally)
    return counts
