"""Boolean NOT (exclude terms) through reader / WAND / serve, and
query-biased snippet extraction."""

from __future__ import annotations

import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.snippet import (
    make_snippet,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.tokenize import (
    tokenize_filtered,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    query,
)


@pytest.fixture(scope="module")
def reader(ray_session, index_dir):
    return query.IndexReader(index_dir)


def _fmt(results):
    return [(r.doc_id, round(r.score, 6)) for r in results]


def _docs_with(reader, term):
    idx = reader._term(term).idx
    return set(int(reader._doc_ids[i]) for i in idx)


def test_not_drops_exactly_excluded_docs(reader, pages_dir):
    """exclude='window' == unfiltered results minus docs containing it,
    re-cut to k (checked against a big-k unfiltered run)."""
    banned = _docs_with(reader, "window")
    assert banned, "test corpus must contain the excluded term"
    base = reader.search_exhaustive("spark data join", reader.n_docs)
    want = [(r.doc_id, round(r.score, 6)) for r in base
            if r.doc_id not in banned][:10]
    got = _fmt(reader.search_exhaustive("spark data join", 10,
                                        exclude="window"))
    assert got == want
    for d, _ in got:
        assert d not in banned


def test_not_wand_equals_exhaustive(reader):
    for q in ("spark data join", "vector hash", "merge sort batch"):
        a = _fmt(reader.search_wand(q, 10, exclude="window table"))
        b = _fmt(reader.search_exhaustive(q, 10, exclude="window table"))
        assert a == b, q


def test_not_inline_syntax(reader):
    """'-term' words in search() parse as exclusions."""
    a = _fmt(reader.search("spark data join -window", 10))
    b = _fmt(reader.search("spark data join", 10, exclude="window"))
    assert a == b
    banned = _docs_with(reader, "window")
    assert all(d not in banned for d, _ in a)


def test_not_oov_exclusion_is_noop(reader):
    a = _fmt(reader.search_wand("spark data", 10,
                                exclude="zzz_not_a_term"))
    b = _fmt(reader.search_wand("spark data", 10))
    assert a == b


def test_not_distributed_serve(ray_session, index_dir, reader):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve import (
        DistributedSearcher,
    )
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        got = _fmt(ds.search("spark data join", 10, exclude="window"))
        want = _fmt(reader.search("spark data join", 10, exclude="window"))
        assert got == want
    finally:
        ds.shutdown()


# ------------------------------------------------------------- snippets ---

def test_snippet_picks_hit_window():
    filler = "lorem ipsum dolor sit amet " * 20
    text = filler + "the spark engine does a data join here " + filler
    s = make_snippet(text, "spark data join", width=12)
    assert s["n_terms"] == 3
    assert "spark" in s["snippet"] and "join" in s["snippet"]
    assert len(s["snippet"]) <= 300


def test_snippet_prefers_distinct_terms():
    text = ("spark spark spark spark spark spark spark spark . " * 3
            + "a spark data join in one place ") + "tail " * 40
    s = make_snippet(text, "spark data join", width=8)
    assert s["n_terms"] == 3  # window with all three beats the spark run


def test_snippet_no_hits_returns_head():
    s = make_snippet("plain text without query words", "zzz qqq")
    assert s["n_hits"] == 0
    assert s["snippet"].startswith("plain text")


def test_snippet_empty_text():
    s = make_snippet("", "spark")
    assert s == {"snippet": "", "n_hits": 0, "n_terms": 0}


def test_snippet_stopword_only_query():
    s = make_snippet("some text here", "the and of")
    assert s["n_terms"] == 0


def test_snippet_unicode_casefold():
    s = make_snippet("Les cafés de Paris CAFÉ", "café", width=5)
    assert s["n_hits"] >= 1
    assert tokenize_filtered("café") == ["café"]


# ------------------------------------------------------------- explain ---

def test_explain_matches_search_score(reader):
    hits = reader.search("spark data join", 3)
    for h in hits:
        ex = reader.explain("spark data join", h.doc_id)
        assert ex is not None
        assert abs(ex["total"] - h.score) < 1e-9
        assert {p["term"] for p in ex["parts"]} == {"spark", "data", "join"}
        assert all(p["score"] >= 0 for p in ex["parts"])


def test_explain_missing_doc(reader):
    assert reader.explain("spark", 10**15) is None


def test_explain_reports_exclusion(reader):
    banned = _docs_with(reader, "window")
    doc = sorted(banned)[0]
    ex = reader.explain("spark data -window", doc)
    assert ex["excluded_by"] == ["window"]


def test_explain_distributed(ray_session, index_dir, reader):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve import (
        DistributedSearcher,
    )
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        h = reader.search("spark data join", 1)[0]
        ex = ds.explain("spark data join", h.doc_id)
        assert ex is not None and abs(ex["total"] - h.score) < 1e-9
        assert ds.explain("spark", 10**15) is None
    finally:
        ds.shutdown()


# ----------------------------------------------------- search-after paging --

def _pages(search_fn, q, page, n_pages, **kw):
    out, cursor = [], None
    for _ in range(n_pages):
        hits = search_fn(q, page, after=cursor, **kw)
        if not hits:
            break
        out.extend(hits)
        cursor = (hits[-1].score, hits[-1].doc_id)
    return out


def test_paging_equals_one_shot(reader):
    for fn in (reader.search_exhaustive, reader.search_wand):
        got = _fmt(_pages(fn, "spark data join", 5, 3))
        want = _fmt(fn("spark data join", 15))
        assert got == want, fn.__name__


def test_paging_with_exclude(reader):
    got = _fmt(_pages(reader.search_wand, "spark data join", 4, 3,
                      exclude="window"))
    want = _fmt(reader.search_wand("spark data join", 12, exclude="window"))
    assert got == want


def test_paging_runs_dry(reader):
    n = len(reader.search_exhaustive("vector hash", 10_000, mode="and"))
    pages = _pages(reader.search_exhaustive, "vector hash", 7,
                   n // 7 + 3, mode="and")
    assert len(pages) == n
    assert len(set(p.doc_id for p in pages)) == n  # no dup across pages


def test_paging_distributed_serve(ray_session, index_dir, reader):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve import (
        DistributedSearcher,
    )
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        p1 = ds.search("spark data join", 5)
        p2 = ds.search("spark data join", 5,
                       after=(p1[-1].score, p1[-1].doc_id))
        want = _fmt(reader.search("spark data join", 10))
        assert _fmt(p1) + _fmt(p2) == want
    finally:
        ds.shutdown()
