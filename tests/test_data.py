"""Dataset containers, file formats, and ingestion validation."""

import re

import pytest

from spladapt.data import (
    Dataset, TrainTriple, dataset_stats,
    load_corpus, load_dataset, load_qrels, load_queries, load_triples,
    save_corpus, save_dataset, save_qrels, save_queries, save_triples,
)
from spladapt.evaluation import read_run


def _dataset():
    return Dataset(
        docs={"d1": "alpha beta", "d2": "beta gamma", "d3": "gamma delta"},
        queries={"q1": "alpha", "q2": "gamma"},
        qrels={"q1": {"d1": 1}, "q2": {"d2": 1, "d3": 1}},
        triples=[TrainTriple("alpha", "d1", "d2")],
    )


class TestContainers:
    def test_triple_rejects_identical_docs(self):
        with pytest.raises(ValueError, match="identical"):
            TrainTriple("q", "d1", "d1")

    def test_three_doc_corpus_validates(self):
        ds = _dataset()
        ds.validate()
        assert len(ds.docs) == 3

    def test_dangling_qrels_doc(self):
        ds = _dataset()
        ds.qrels["q1"]["ghost"] = 1
        with pytest.raises(ValueError, match="ghost"):
            ds.validate()

    def test_dangling_triple_doc(self):
        ds = _dataset()
        ds.triples.append(TrainTriple("q", "nope", "d1"))
        with pytest.raises(ValueError, match="nope"):
            ds.validate()

    def test_qrels_for_unknown_query(self):
        ds = _dataset()
        ds.qrels["q9"] = {"d1": 1}
        with pytest.raises(ValueError, match="q9"):
            ds.validate()

    @pytest.mark.parametrize("where", ["docs", "queries"])
    def test_whitespace_id_rejected_by_name(self, where):
        ds = _dataset()
        getattr(ds, where)["x y"] = "alpha"
        with pytest.raises(ValueError, match="'x y' is not a whitespace-free token"):
            ds.validate()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no documents"):
            Dataset(docs={}).validate()


class TestStats:
    def test_avg_doc_tokens_hand_count(self):
        # 2 + 3 tokens over two docs
        ds = Dataset(docs={"a": "x y", "b": "x y z"}, queries={"q": "x"})
        st = dataset_stats(ds)
        assert st.n_docs == 2
        assert st.avg_doc_tokens == pytest.approx(2.5)
        assert st.avg_query_tokens == pytest.approx(1.0)

    def test_counts(self):
        st = dataset_stats(_dataset())
        assert (st.n_docs, st.n_queries, st.n_judgments, st.n_triples) == (3, 2, 3, 1)


class TestCorpusFile:
    def test_round_trip(self, tmp_path):
        docs = {"d2": "beta", "d1": "alpha words"}
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d1", "text": "a"}\n{"doc_id": "d1", "text": "b"}\n')
        with pytest.raises(ValueError, match=":2:"):
            load_corpus(path)

    def test_whitespace_doc_id_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d1", "text": "a"}\n{"doc_id": "d 2", "text": "b"}\n')
        with pytest.raises(ValueError, match=":2: doc_id 'd 2'"):
            load_corpus(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d1", "text": "a"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_corpus(path)


class TestQueryFile:
    def test_round_trip(self, tmp_path):
        queries = {"q1": "alpha beta", "q2": "gamma"}
        path = tmp_path / "queries.tsv"
        save_queries(queries, path)
        assert load_queries(path) == queries

    def test_duplicate_query_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\talpha\nq1\tbeta\n")
        with pytest.raises(ValueError, match=":2:"):
            load_queries(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\n")
        with pytest.raises(ValueError, match=":1:"):
            load_queries(path)

    def test_whitespace_query_id_names_line(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\talpha\nq 2\tbeta\n")
        with pytest.raises(ValueError, match=":2: query id 'q 2'"):
            load_queries(path)

    @pytest.mark.parametrize("text", ["alpha\tbeta", "alpha\nbeta", "alpha\rbeta"])
    def test_text_that_would_split_its_line_is_not_written(self, tmp_path, text):
        path = tmp_path / "q.tsv"
        with pytest.raises(ValueError, match="tab or a line break"):
            save_queries({"q1": "fine", "q2": text}, path)
        assert not path.exists()


class TestTripleFile:
    def test_round_trip(self, tmp_path):
        triples = [TrainTriple("alpha beta", "d1", "d2"), TrainTriple("gamma", "d3", "d1")]
        path = tmp_path / "triples.tsv"
        save_triples(triples, path)
        assert load_triples(path) == triples

    @pytest.mark.parametrize("text", ["alpha\tbeta", "alpha\nbeta"])
    def test_text_that_would_split_its_line_is_not_written(self, tmp_path, text):
        path = tmp_path / "triples.tsv"
        with pytest.raises(ValueError, match="tab or a line break"):
            save_triples([TrainTriple("fine", "d1", "d2"), TrainTriple(text, "d1", "d2")], path)
        assert not path.exists()


class TestQrelsFile:
    def test_round_trip(self, tmp_path):
        qrels = {"q1": {"d1": 2, "d2": 0}, "q2": {"d3": 1}}
        path = tmp_path / "qrels.trec"
        save_qrels(qrels, path)
        assert load_qrels(path) == qrels

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "qrels.trec"
        path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(ValueError, match=":2:"):
            load_qrels(path)

    def test_negative_grade(self, tmp_path):
        path = tmp_path / "qrels.trec"
        path.write_text("q1 0 d1 -1\n")
        with pytest.raises(ValueError, match="grade"):
            load_qrels(path)


class TestDatasetDir:
    def test_round_trip(self, tmp_path):
        ds = _dataset()
        save_dataset(ds, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.docs == ds.docs
        assert loaded.queries == ds.queries
        assert loaded.qrels == ds.qrels
        assert loaded.triples == ds.triples


# file name -> (reader, a good line, a line with a wrong field count, whether
# a line of only spaces is skipped)
LINE_FORMATS = {
    "queries.tsv": (load_queries, "q1\talpha beta", "q1\talpha\textra", False),
    "triples.tsv": (load_triples, "alpha beta\td1\td2", "alpha\td1", False),
    "qrels.trec": (load_qrels, "q1 0 d1 1", "q1 0 d1 1 extra", True),
    "run.trec": (read_run, "q1 Q0 d1 1 0.500000 tag", "q1 Q0 d1 1 0.500000 my tag", True),
}


@pytest.mark.parametrize("name", sorted(LINE_FORMATS))
def test_line_rules(tmp_path, name):
    """Empty lines are skipped everywhere; a line of only spaces is a record
    of one field in the TSV files and skipped in qrels and runs; a wrong
    field count names path:line; CRLF reads as LF."""
    reader, good, bad, spaces_skipped = LINE_FORMATS[name]
    path = tmp_path / name
    path.write_text(good + "\n")
    expected = reader(path)
    path.write_text(f"\n{good}\n\n")
    assert reader(path) == expected
    path.write_bytes(f"{good}\r\n\r\n".encode())
    assert reader(path) == expected
    path.write_text(f"{good}\n{bad}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
        reader(path)
    path.write_text(f"{good}\n   \n")
    if spaces_skipped:
        assert reader(path) == expected
    else:
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            reader(path)
