"""Positional index (codec v3) + exact-phrase search.

Phrase semantics: positions are over the STOP-FILTERED token sequence (the
same basis as doc_len), so a stop word inside a phrase is transparent —
standard stop-filter phrase behavior.  The brute-force oracle here re-scans
the extracted docs with the engine's own tokenizer.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.codec import (
    BLOCK_SIZE, decode_positions, decode_postings, encode_postings)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.tokenize import (
    tokenize_filtered)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    query)


# ------------------------------------------------------------------ codec --

def _random_positional_postings(rng, n):
    doc_ids = np.sort(rng.choice(10 * n, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 6, size=n).astype(np.int64)
    # ascending positions per doc, gaps >= 1
    poss = np.concatenate([
        np.cumsum(rng.integers(1, 50, size=int(t))) + int(rng.integers(0, 5))
        for t in tfs]).astype(np.int64)
    dls = (rng.integers(1, 500, size=n)).astype(np.int64)
    return doc_ids, tfs, dls, poss


@pytest.mark.parametrize("n", [1, 7, BLOCK_SIZE, 3 * BLOCK_SIZE + 11])
def test_positions_roundtrip_codec(n):
    rng = np.random.default_rng(n)
    doc_ids, tfs, dls, poss = _random_positional_postings(rng, n)
    enc = encode_postings(doc_ids, tfs, dls, poss)
    ids2, tfs2 = decode_postings(enc)
    np.testing.assert_array_equal(ids2, doc_ids)
    np.testing.assert_array_equal(tfs2, tfs)
    np.testing.assert_array_equal(decode_positions(enc, tfs2), poss)


def test_positions_absent_when_not_given():
    rng = np.random.default_rng(0)
    doc_ids, tfs, dls, _ = _random_positional_postings(rng, 20)
    enc = encode_postings(doc_ids, tfs, dls)
    assert enc.pos_bytes == b""
    assert decode_positions(enc, tfs).size == 0


# ------------------------------------------------------------- end-to-end --

@pytest.fixture(scope="module")
def pos_reader(pos_index_dir):
    return query.IndexReader(pos_index_dir)


@pytest.fixture(scope="module")
def docs_tokens(pos_index_dir):
    """doc_id -> stop-filtered token list, from the index's own docs tables."""
    import pyarrow.parquet as pq
    out = {}
    shards_root = os.path.join(pos_index_dir, "shards")
    for s in sorted(os.listdir(shards_root)):
        t = pq.read_table(os.path.join(shards_root, s, "docs"),
                          columns=["doc_id", "text"])
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            out[did] = list(tokenize_filtered(text))
    return out


def _brute_phrase_docs(docs_tokens, phrase):
    seq = list(tokenize_filtered(phrase))
    out = set()
    for did, toks in docs_tokens.items():
        for i in range(len(toks) - len(seq) + 1):
            if toks[i:i + len(seq)] == seq:
                out.add(did)
                break
    return out


PHRASES = ["sort merge", "spark data join", "data join",
           "batch batch",              # repeated term
           "sort the merge",           # inner stop word is transparent
           "zzz qqq nope"]             # OOV -> no hits


@pytest.mark.parametrize("phrase", PHRASES)
def test_phrase_matches_brute_force(pos_reader, docs_tokens, phrase):
    expect = _brute_phrase_docs(docs_tokens, phrase)
    hits = pos_reader.search_phrase(phrase, k=10 ** 6)
    assert {h.doc_id for h in hits} == expect


def test_phrase_scores_equal_exhaustive_bm25(pos_reader):
    """A phrase is a match predicate; scores are the ordinary BM25 scores."""
    hits = pos_reader.search_phrase("sort merge", k=10 ** 6)
    assert hits, "fixture corpus should contain the phrase"
    ex = {h.doc_id: h.score
          for h in pos_reader.search_exhaustive("sort merge", k=10 ** 6)}
    for h in hits:
        assert abs(ex[h.doc_id] - h.score) < 1e-9


def test_phrase_topk_ordering(pos_reader):
    hits = pos_reader.search_phrase("sort merge", k=5)
    assert len(hits) == 5
    keys = [(-h.score, h.doc_id) for h in hits]
    assert keys == sorted(keys)


def test_phrase_mask_restricts(pos_reader):
    all_hits = pos_reader.search_phrase("sort merge", k=10 ** 6)
    allowed = {h.doc_id for h in all_hits[::2]}
    mask = pos_reader.make_doc_mask(allowed)
    masked = pos_reader.search_phrase("sort merge", k=10 ** 6, mask=mask)
    assert {h.doc_id for h in masked} == allowed


def test_phrase_refused_without_positions(reader_no_pos):
    with pytest.raises(ValueError, match="positions"):
        reader_no_pos.search_phrase("sort merge")


@pytest.fixture(scope="module")
def reader_no_pos(index_dir):
    return query.IndexReader(index_dir)


def test_positions_double_opt_in_payload(index_dir, pos_index_dir):
    """Positions are pay-for-what-you-use: the default index carries an
    empty positional stream, the positional one a non-trivial payload."""
    import json
    with open(os.path.join(index_dir, "manifest.json")) as f:
        plain = json.load(f)
    with open(os.path.join(pos_index_dir, "manifest.json")) as f:
        pos = json.load(f)
    assert plain["params"]["positions"] is False
    assert pos["params"]["positions"] is True
    assert pos["bytes_per_posting"] > plain["bytes_per_posting"]


# -------------------------------------------------------- sloppy (slop>0) --

def _brute_slop_docs(docs_tokens, phrase, slop):
    """Ordered occurrence chain with span <= len-1+slop (brute force)."""
    seq = list(tokenize_filtered(phrase))
    n = len(seq)
    out = set()
    for did, toks in docs_tokens.items():
        pos = {t: [i for i, x in enumerate(toks) if x == t]
               for t in set(seq)}

        def feasible(slot, prev):
            if slot == n:
                return True
            return any(feasible(slot + 1, p)
                       for p in pos.get(seq[slot], []) if p > prev)

        for start in pos.get(seq[0], []):
            # bounded window: only chains within the span limit
            window = start + n - 1 + slop

            def chain(slot, prev):
                if slot == n:
                    return True
                return any(chain(slot + 1, p)
                           for p in pos.get(seq[slot], [])
                           if prev < p <= window)

            if chain(1, start):
                out.add(did)
                break
    return out


SLOP_CASES = [("sort merge", 0), ("sort merge", 2), ("sort merge", 5),
              ("spark join", 3),          # skip a middle word
              ("data join table", 4),     # 3-term chain
              ("batch batch", 1)]         # repeated term


@pytest.mark.parametrize("phrase,slop", SLOP_CASES)
def test_slop_matches_bruteforce(pos_reader, docs_tokens, phrase, slop):
    want = _brute_slop_docs(docs_tokens, phrase, slop)
    got = {r.doc_id for r in
           pos_reader.search_phrase(phrase, k=10_000, slop=slop)}
    assert got == want, f"{phrase!r} slop={slop}"


def test_slop_widens_monotonically(pos_reader):
    sizes = [len(pos_reader.search_phrase("sort merge", 10_000, slop=s))
             for s in (0, 1, 3, 8)]
    assert sizes == sorted(sizes), sizes


def test_phrase_distributed_serve(ray_session, pos_index_dir, pos_reader):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve import (
        DistributedSearcher,
    )
    ds = DistributedSearcher(pos_index_dir, num_actors=2)
    try:
        for phrase, slop in (("sort merge", 0), ("spark join", 3)):
            want = [(r.doc_id, round(r.score, 6))
                    for r in pos_reader.search_phrase(phrase, 10, slop=slop)]
            got = [(r.doc_id, round(r.score, 6))
                   for r in ds.search_phrase(phrase, 10, slop=slop)]
            assert got == want, (phrase, slop)
    finally:
        ds.shutdown()
