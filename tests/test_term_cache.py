"""IndexReader's term cache: ONE LRU of per-term entries (decoded
postings plus the exhaustive scorer's final scores) under one budget.

A warm reader must be BIT-IDENTICAL to a budget-0 (uncached) reader on
every scorer path, the cache must never hold more than its budget, and
recency must follow every read, so a hot query interleaved with cold
traffic is never re-decoded.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    build,
    query,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
    QUERY_SET,
)


def _fmt(hits):
    return [(h.doc_id, h.score) for h in hits]  # FULL float equality


def _check_accounting(r):
    """The charge invariant: the reader's total is the sum of its entries'
    charges, each entry is charged exactly its postings plus its cached
    scores, and the total never exceeds the budget."""
    total = 0
    for e in r._terms.values():
        want = e.ids.size + (e.scores[1].size if e.scores is not None else 0)
        assert e.charge == want > 0
        total += e.charge
    assert r._cached_postings == total <= r._cache_budget


def _local_df(r, t):
    return sum(enc.df for enc in r._encs(t))


def test_warm_cache_bit_identical(ray_session, index_dir):
    cold = query.IndexReader(index_dir)                       # budget 0
    warm = query.IndexReader(index_dir, cache_postings_budget=1 << 26)
    for rep in range(3):  # rep 0 fills the cache; reps 1-2 hit it
        for q in QUERY_SET:
            for k in (1, 2, 3, q["k"], 50, 100):
                a = _fmt(warm.search_exhaustive(q["query_text"], k,
                                                q["mode"]))
                b = _fmt(cold.search_exhaustive(q["query_text"], k,
                                                q["mode"]))
                assert a == b, (rep, q["query_id"], k)
    # the warm reader cached dense score vectors for head terms
    assert any(e.scores is not None and e.scores[0]
               for e in warm._terms.values()), "no dense scores cached"
    assert not cold._terms and cold._cached_postings == 0
    _check_accounting(warm)


def test_warm_cache_on_tie_plateau(ray_session, tmp_path):
    """4000 byte-identical docs: every doc ties at every score, so the
    warm reader's cached dense vectors must still yield doc_id-ascending
    ties, identical to the cold reader."""
    d = tmp_path / "tied"
    d.mkdir()
    text = "alpha beta gamma delta common words here"
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(4000), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(4000)]),
        "text": pa.array([text] * 4000),
    }), str(d / "a.parquet"))
    idx = str(tmp_path / "idx")
    build.build_index(str(d / "a.parquet"), idx,
                      build.BuildParams(num_shards=1, num_salts=1))
    warm = query.IndexReader(idx, cache_postings_budget=1 << 26)
    cold = query.IndexReader(idx)
    for _ in range(2):
        for k in (1, 10, 100):
            a = _fmt(warm.search_exhaustive("alpha beta", k))
            b = _fmt(cold.search_exhaustive("alpha beta", k))
            assert a == b and len(a) == k
            assert [x[0] for x in a] == list(range(k))  # id-asc ties
    for t in ("alpha", "beta"):
        e = warm._terms[t]
        assert e.scores is not None and e.scores[0]  # dense entry cached
        assert e.scores[1].size == 4000


def test_cache_never_exceeds_budget(ray_session, index_dir):
    """After every call on every path that reads a term, the charged
    total equals the sum of the entries' charges and stays within the
    budget, even when score vectors are charged onto cached entries."""
    r = query.IndexReader(index_dir, cache_postings_budget=2000)
    for rep in range(2):
        for q in QUERY_SET:
            r.search_exhaustive(q["query_text"], q["k"], q["mode"])
            _check_accounting(r)
            r.search_wand(q["query_text"], q["k"], q["mode"])
            _check_accounting(r)
            r.search(q["query_text"], q["k"], q["mode"], exclude="hash")
            _check_accounting(r)
    assert r.cache_stats()["evictions"] > 0  # the budget really bound


def test_hot_query_never_redecoded(ray_session, index_dir, monkeypatch):
    """A hot OR query run before every cold query of a burst stays cached:
    the cold terms evict each other (least recently used first), never
    the hot terms, so the hot query decodes nothing after warm-up."""
    r = query.IndexReader(index_dir, cache_postings_budget=1)
    n_local = r._doc_ids.size
    dfs = {t: _local_df(r, t) for t in r._postings}
    hot = sorted(dfs, key=lambda t: (-dfs[t], t))[:2]
    cold = sorted(t for t in dfs
                  if t not in hot and r.query_terms(t) == [t])

    def charge(t):
        df = dfs[t]
        return df + (n_local if df >= max(1, n_local // 8) else df)

    r._cache_budget = (sum(charge(t) for t in hot)
                       + max(charge(t) for t in cold))
    assert sum(charge(t) for t in cold) > 2 * r._cache_budget

    calls = []
    real = query.decode_postings

    def counting(enc):
        calls.append(enc)
        return real(enc)

    monkeypatch.setattr(query, "decode_postings", counting)
    hot_q = " ".join(hot)
    want = _fmt(query.IndexReader(index_dir).search(hot_q, 10))
    assert _fmt(r.search(hot_q, 10)) == want  # warm-up fills the cache
    for t in cold:
        calls.clear()
        assert _fmt(r.search(hot_q, 10)) == want
        assert not calls, f"hot terms re-decoded before cold {t!r}"
        r.search(t, 10)
        _check_accounting(r)
    assert all(r._terms[t].scores is not None for t in hot)
    assert r.cache_stats()["evictions"] >= len(cold) // 2


def test_warm_equals_cold_under_eviction(ray_session, index_dir):
    """AND mode, a metadata mask, NOT terms and the search-after cursor,
    under both scorers, return exactly what a budget-0 reader returns
    while the cache evicts underneath them."""
    cold = query.IndexReader(index_dir)
    warm = query.IndexReader(index_dir, cache_postings_budget=2000)
    mask_w = warm.make_doc_mask(warm._doc_ids[::2])
    mask_c = cold.make_doc_mask(cold._doc_ids[::2])
    for rep in range(2):
        for q in QUERY_SET:
            text, mode = q["query_text"], q["mode"]
            for fn in ("search_exhaustive", "search_wand"):
                w, c = getattr(warm, fn), getattr(cold, fn)
                page = _fmt(c(text, 5, mode))
                assert _fmt(w(text, 5, mode)) == page, (fn, q["query_id"])
                assert _fmt(w(text, 10, "and")) == _fmt(c(text, 10, "and"))
                assert _fmt(w(text, 10, mode, mask=mask_w)) == \
                    _fmt(c(text, 10, mode, mask=mask_c))
                assert _fmt(w(text, 10, mode, exclude="data hash")) == \
                    _fmt(c(text, 10, mode, exclude="data hash"))
                if page:
                    after = (page[-1][1], page[-1][0])
                    assert _fmt(w(text, 10, mode, after=after)) == \
                        _fmt(c(text, 10, mode, after=after))
            _check_accounting(warm)
    assert warm.cache_stats()["evictions"] > 0
