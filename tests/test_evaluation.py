"""Metric oracles, significance testing against scipy, and run-file round trips.

The reference implementations in this file were written independently of the
library code and serve as the second route for every metric.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from spladapt.evaluation import (
    EvalReport, MethodResult, TTestResult, dcg, evaluate_run, mrr_at_k,
    ndcg_at_k, paired_ttest, read_run, sparsity_stats, write_run,
)
from spladapt.index import RankedList
from spladapt.model import SparseVector

from helpers import reference_report_json, report_from_json


# reference implementations (second route)

def ref_ndcg(ranked_ids, judgments, k):
    def d(g, r):
        return (2.0 ** g - 1.0) / math.log2(r + 1.0)
    got = sum(d(judgments.get(doc, 0), r) for r, doc in enumerate(ranked_ids[:k], 1))
    ideal = sum(d(g, r) for r, g in enumerate(sorted(judgments.values(), reverse=True)[:k], 1))
    return got / ideal


def ref_mrr(ranked_ids, judgments, k):
    for r, doc in enumerate(ranked_ids[:k], 1):
        if judgments.get(doc, 0) > 0:
            return 1.0 / r
    return 0.0


# ---------------------------------------------------------------- ndcg / mrr


def test_dcg_hand_computed():
    # grades [1, 0, 1]: 1/log2(2) + 0 + 1/log2(4) = 1.5
    assert abs(dcg([1, 0, 1]) - 1.5) < 1e-12
    # graded gain: grade 2 contributes (2^2 - 1) = 3 at rank 1
    assert abs(dcg([2]) - 3.0) < 1e-12
    assert dcg([]) == 0.0


def test_ndcg_hand_computed():
    ranked = RankedList("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    judgments = {"a": 1, "c": 1}
    # dcg = 1.5, idcg = 1 + 1/log2(3)
    expected = 1.5 / (1.0 + 1.0 / math.log2(3.0))
    assert abs(ndcg_at_k(ranked, judgments, k=10) - expected) < 1e-12


def test_ndcg_perfect_ranking_is_one():
    ranked = RankedList("q", [("a", 2.0), ("b", 1.0)])
    assert abs(ndcg_at_k(ranked, {"a": 2, "b": 1}, k=10) - 1.0) < 1e-12


def test_ndcg_depth_cutoff():
    # relevant doc at rank 11 contributes nothing at depth 10
    entries = [(f"d{i}", float(20 - i)) for i in range(11)]
    ranked = RankedList("q", entries)
    assert ndcg_at_k(ranked, {"d10": 1}, k=10) == 0.0


def test_ndcg_no_relevant_rejected():
    with pytest.raises(ValueError):
        ndcg_at_k(RankedList("q", [("a", 1.0)]), {"a": 0}, k=10)


def test_mrr_hand_computed():
    ranked = RankedList("q", [("x", 3.0), ("y", 2.0), ("z", 1.0)])
    assert mrr_at_k(ranked, {"z": 1}, k=10) == pytest.approx(1.0 / 3.0)
    assert mrr_at_k(ranked, {"x": 1, "z": 1}, k=10) == 1.0
    assert mrr_at_k(ranked, {"absent": 1}, k=10) == 0.0
    assert mrr_at_k(ranked, {"z": 1}, k=2) == 0.0


def test_evaluate_run_excludes_queries_without_relevant():
    run = {
        "q1": RankedList("q1", [("a", 1.0)]),
        "q2": RankedList("q2", [("b", 1.0)]),
    }
    qrels = {"q1": {"a": 1}, "q2": {"b": 0}, "q3": {"c": 1}}
    ndcg, mrr = evaluate_run(run, qrels)
    # q2 has no relevant: excluded; q3 judged relevant but missing from run: 0
    assert set(ndcg) == {"q1", "q3"}
    assert ndcg["q1"] == 1.0 and ndcg["q3"] == 0.0
    assert mrr["q1"] == 1.0 and mrr["q3"] == 0.0
    with pytest.raises(ValueError):
        evaluate_run(run, {"q2": {"b": 0}})


def test_random_runs_match_reference():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_docs = int(rng.integers(1, 40))
        doc_ids = [f"d{i}" for i in range(n_docs)]
        scores = rng.random(n_docs)
        order = sorted(zip(doc_ids, scores), key=lambda e: (-e[1], e[0]))
        ranked = RankedList("q", [(d, float(s)) for d, s in order])
        judged = {d: int(rng.integers(0, 3)) for d in rng.choice(doc_ids, size=min(5, n_docs), replace=False)}
        if not any(g > 0 for g in judged.values()):
            judged[doc_ids[0]] = 1
        k = int(rng.integers(1, 15))
        assert abs(ndcg_at_k(ranked, judged, k) - ref_ndcg(ranked.doc_ids(), judged, k)) < 1e-9
        assert abs(mrr_at_k(ranked, judged, k) - ref_mrr(ranked.doc_ids(), judged, k)) < 1e-9


# ---------------------------------------------------------------- t-test


def test_ttest_frozen_example():
    # constant unit improvement over 4 queries
    result = paired_ttest([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    assert abs(result.t - 3.872983346207417) < 1e-12
    assert abs(result.p - 0.0305) < 1e-3
    assert result.df == 3


def test_ttest_zero_variance_cases():
    same = paired_ttest([0.4, 0.4], [0.4, 0.4])
    assert same.t == 0.0 and same.p == 1.0
    shifted = paired_ttest([1.4, 1.4], [0.4, 0.4])
    assert math.isinf(shifted.t) and shifted.t > 0 and shifted.p == 0.0
    down = paired_ttest([0.0, 0.0], [0.4, 0.4])
    assert math.isinf(down.t) and down.t < 0 and down.p == 0.0


def test_ttest_input_validation():
    with pytest.raises(ValueError):
        paired_ttest([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_ttest([1.0, 2.0], [1.0])


def test_ttest_matches_scipy_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        a = rng.random(n)
        b = np.clip(a + rng.normal(0, 0.2, n), 0, None)
        ours = paired_ttest(list(a), list(b))
        t_ref, p_ref = scipy_stats.ttest_rel(a, b)
        if math.isnan(t_ref):  # scipy returns nan on zero variance
            continue
        assert abs(ours.t - t_ref) < 1e-9
        assert abs(ours.p - p_ref) < 1e-10


@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=30),
       st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_ttest_p_in_unit_interval_and_symmetric(diffs, shift):
    base = [0.0] * len(diffs)
    r1 = paired_ttest(diffs, base)
    assert 0.0 <= r1.p <= 1.0
    r2 = paired_ttest(base, diffs)  # swapping negates t, keeps p
    assert abs(r1.p - r2.p) < 1e-12
    assert isinstance(r1, TTestResult)


# ---------------------------------------------------------------- sparsity


def test_sparsity_stats():
    vecs = [SparseVector({1: 1.0, 2: 1.0}), SparseVector({1: 1.0}), SparseVector({})]
    stats = sparsity_stats(vecs)
    assert stats["mean_l0"] == 1.0
    assert stats["median_l0"] == 1.0
    assert stats["max_l0"] == 2.0
    with pytest.raises(ValueError):
        sparsity_stats([])


# ---------------------------------------------------------------- run files


def test_run_round_trip_preserves_order(tmp_path):
    runs = {
        "q2": RankedList("q2", [("b", 2.5), ("a", 1.25)]),
        "q1": RankedList("q1", [("c", 0.123456789), ("d", 0.123456111)]),
    }
    path = tmp_path / "run.trec"
    write_run(runs, path, tag="system-x")
    text = path.read_text().splitlines()
    assert text[0].split() == ["q1", "Q0", "c", "1", "0.123457", "system-x"]
    loaded = read_run(path)
    assert set(loaded) == {"q1", "q2"}
    # scores rounded to 6 digits collide here, but the rank field keeps order
    assert loaded["q1"].doc_ids() == ["c", "d"]
    assert loaded["q2"].doc_ids() == ["b", "a"]


def test_run_round_trip_random_orderings(tmp_path):
    rng = np.random.default_rng(4)
    for trial in range(30):
        entries = [(f"d{i}", float(rng.random())) for i in range(int(rng.integers(1, 30)))]
        entries.sort(key=lambda e: (-e[1], e[0]))
        runs = {"q": RankedList("q", entries)}
        path = tmp_path / f"run{trial}.trec"
        write_run(runs, path)
        assert read_run(path)["q"].doc_ids() == [d for d, _ in entries]


def test_run_parse_errors(tmp_path):
    path = tmp_path / "bad.trec"
    path.write_text("q1 Q0 d1 1\n")
    with pytest.raises(ValueError) as exc:
        read_run(path)
    assert ":1" in str(exc.value)
    path.write_text("q1 Q0 d1 1 0.5 tag\nq1 Q0 d1 2 0.4 tag\n")
    with pytest.raises(ValueError) as exc:
        read_run(path)
    assert "duplicate" in str(exc.value)
    path.write_text("q1 Q0 d1 one 0.5 tag\n")
    with pytest.raises(ValueError):
        read_run(path)


def test_write_run_rejects_whitespace_ids(tmp_path):
    with pytest.raises(ValueError):
        write_run({"q 1": RankedList("q 1", [("d", 1.0)])}, tmp_path / "r.trec")
    with pytest.raises(ValueError):
        write_run({"q1": RankedList("q1", [("d 1", 1.0)])}, tmp_path / "r.trec")


@pytest.mark.parametrize("runs, tag, bad", [
    ({"q1": RankedList("q1\nq2", [("d1", 1.0)])}, "run", "query id"),
    ({"q1": RankedList("q1", [("d1\n", 1.0)])}, "run", "doc id"),
    ({"q1": RankedList("q1", [("d1", 1.0)])}, "my run", "run tag"),
    ({"q1": RankedList("q1", [("d1", 1.0)]), "q2": RankedList("q2", [("d 2", 0.5)])}, "run",
     "doc id"),
], ids=["newline_in_query_id", "newline_in_doc_id", "space_in_tag", "bad_doc_in_second_query"])
def test_write_run_refuses_what_read_run_would_before_writing(tmp_path, runs, tag, bad):
    """Ids and the tag must be whitespace-free tokens; a refused run leaves
    no file behind, not even the lines of the queries before the bad one."""
    path = tmp_path / "r.trec"
    with pytest.raises(ValueError, match=f"^{bad} "):
        write_run(runs, path, tag=tag)
    assert not path.exists()


def test_write_run_creates_parent_directories(tmp_path):
    path = tmp_path / "runs" / "nested" / "r.trec"
    write_run({"q1": RankedList("q1", [("d1", 1.0)])}, path)
    assert read_run(path)["q1"].doc_ids() == ["d1"]


# ---------------------------------------------------------------- report


def make_report():
    run_a = {"q1": RankedList("q1", [("a", 2.0), ("b", 1.0)]),
             "q2": RankedList("q2", [("c", 2.0), ("d", 1.0)])}
    run_b = {"q1": RankedList("q1", [("b", 2.0), ("a", 1.0)]),
             "q2": RankedList("q2", [("d", 2.0), ("c", 1.0)])}
    qrels = {"q1": {"a": 1}, "q2": {"c": 1}}
    report = EvalReport(dataset="toy", cutoff=100, metric_depth=10, methods=[
        MethodResult.from_run("good", run_a, qrels),
        MethodResult.from_run("bad", run_b, qrels),
    ])
    return report


def test_report_aggregation_and_significance():
    report = make_report()
    assert report.method("good").ndcg10 == 1.0
    assert report.method("bad").ndcg10 == pytest.approx(1.0 / math.log2(3.0))
    test = report.add_significance("good", "bad")
    assert test.p == 0.0  # constant positive difference on every query
    assert test.significant


def test_report_json_round_trip():
    report = make_report()
    report.method("good").doc_sparsity = {"mean_l0": 12.5, "median_l0": 12.0, "max_l0": 20.0}
    report.add_significance("good", "bad")
    report.metadata["seed"] = 7
    loaded = report_from_json(report.to_json())
    assert loaded.dataset == "toy" and loaded.cutoff == 100
    assert loaded.method("good").ndcg10 == report.method("good").ndcg10
    assert loaded.method("good").doc_sparsity == report.method("good").doc_sparsity
    assert loaded.significance[0].p == report.significance[0].p
    assert loaded.metadata == {"seed": 7}
    table = loaded.format_table()
    assert "good" in table and "nDCG@10" in table and "12.5" in table


def pinned_reports() -> dict[str, EvalReport]:
    plain = make_report()
    full = make_report()
    full.methods.append(MethodResult(
        "mid", 0.75, 0.5, per_query_ndcg={"q1": 1.0, "q2": 0.5},
        per_query_mrr={"q1": 1.0, "q2": 0.0},
        doc_sparsity={"mean_l0": 12.5, "median_l0": 12.0, "max_l0": 20.0},
        query_sparsity={"mean_l0": 3.0, "median_l0": 3.0, "max_l0": 4.0}))
    full.add_significance("good", "bad")
    full.add_significance("mid", "bad")
    full.metadata.update(mode="full", seed=7, k=1)
    return {"plain": plain, "full": full}


@pytest.mark.parametrize("name", ["plain", "full"])
def test_report_json_keeps_the_field_by_field_bytes(name):
    report = pinned_reports()[name]
    if name == "full":  # one infinite t, one finite; sparsity on one row only
        assert [math.isinf(s.t) for s in report.significance] == [True, False]
    text = report.to_json()
    assert text == reference_report_json(report)
    assert report_from_json(text) == report


def test_report_significance_requires_shared_queries():
    report = make_report()
    report.methods[1].per_query_ndcg = {"q1": 0.5}
    with pytest.raises(ValueError):
        report.add_significance("good", "bad")
