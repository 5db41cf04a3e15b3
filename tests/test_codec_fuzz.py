"""Property-based codec fuzz (hypothesis): adversarial posting shapes —
sparse/dense id gaps, tf extremes, block-boundary sizes, optional
positional streams — must round-trip exactly, keep every block invariant,
and keep the impact-frontier bound EXACT (equal to the block's true max
per-doc score under any avg_dl).  Complements the seeded-rng tests in
test_codec.py with shrinking counter-examples.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover
    pytest.skip("hypothesis not installed", allow_module_level=True)

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions import (
    bm25,
    codec,
)


@st.composite
def postings(draw, with_positions=False):
    n = draw(st.integers(1, 3 * codec.BLOCK_SIZE + 2))
    seed = draw(st.integers(0, 2**31 - 1))
    dense = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if dense:  # consecutive ids: single-byte-gap fast path
        start = draw(st.integers(0, 1 << 40))
        ids = np.arange(start, start + n, dtype=np.int64)
    else:
        ids = np.sort(rng.choice(1 << 45, size=n, replace=False)).astype(
            np.int64)
    # positional streams carry tf positions PER POSTING — keep tf small
    # there or the stream explodes to ~1e8 values per example
    big_tf = draw(st.booleans()) and not with_positions
    tfs = (rng.integers(1, 1 << 20, size=n) if big_tf
           else rng.integers(1, 5, size=n)).astype(np.int64)
    dls = np.maximum(tfs, rng.integers(1, 2000, size=n)).astype(np.int64)
    poss = None
    if with_positions:
        poss = np.concatenate([
            np.cumsum(rng.integers(1, 9, size=int(t))) for t in tfs
        ]).astype(np.int64)
    return ids, tfs, dls, poss


@settings(max_examples=60, deadline=None)
@given(postings())
def test_roundtrip_and_block_invariants(p):
    ids, tfs, dls, _ = p
    enc = codec.encode_postings(ids, tfs, dls)
    d_ids, d_tfs = codec.decode_postings(enc)
    np.testing.assert_array_equal(d_ids, ids)
    np.testing.assert_array_equal(d_tfs, tfs)
    nb = enc.block_first.size
    assert nb == -(-ids.size // codec.BLOCK_SIZE)
    for bi in range(nb):
        lo = bi * codec.BLOCK_SIZE
        hi = min(ids.size, lo + codec.BLOCK_SIZE)
        b_ids, b_tfs = codec.decode_block(enc, bi)
        np.testing.assert_array_equal(b_ids, ids[lo:hi])
        np.testing.assert_array_equal(b_tfs, tfs[lo:hi])


@settings(max_examples=50, deadline=None)
@given(postings(), st.floats(1.0, 5000.0))
def test_frontier_bound_exact_any_avg_dl(p, avg_dl):
    """The v4 impact frontier's derived block bound equals the block's
    TRUE max per-doc tf_norm — exact, not just dominating — for any
    current avg_dl (the extend-safety property WAND relies on)."""
    ids, tfs, dls, _ = p
    enc = codec.encode_postings(ids, tfs, dls)
    off = np.concatenate(([0], np.cumsum(enc.imp_n, dtype=np.int64)))
    for bi in range(enc.block_first.size):
        lo = bi * codec.BLOCK_SIZE
        hi = min(ids.size, lo + codec.BLOCK_SIZE)
        truth = bm25.tf_norm_vec(tfs[lo:hi], dls[lo:hi], avg_dl).max()
        f_tf = enc.imp_tf[off[bi]:off[bi + 1]]
        f_dl = enc.imp_dl[off[bi]:off[bi + 1]]
        bound = bm25.tf_norm_vec(f_tf, f_dl.astype(np.int64), avg_dl).max()
        assert bound == pytest.approx(truth, rel=0, abs=0), \
            f"block {bi}: frontier bound {bound} != true max {truth}"


@settings(max_examples=40, deadline=None)
@given(postings(with_positions=True))
def test_positions_roundtrip(p):
    ids, tfs, dls, poss = p
    enc = codec.encode_postings(ids, tfs, dls, poss)
    _, d_tfs = codec.decode_postings(enc)
    np.testing.assert_array_equal(codec.decode_positions(enc, d_tfs), poss)


@settings(max_examples=50, deadline=None)
@given(postings())
def test_expand_dl_lower_bounds_valid_and_reencode_stable(p):
    """Recovered per-posting dl bounds are (a) true LOWER bounds and
    (b) re-encoding a block with them reproduces the SAME frontier —
    the single-row compaction byte-stability property."""
    ids, tfs, dls, _ = p
    enc = codec.encode_postings(ids, tfs, dls)
    bsizes = np.diff(np.r_[np.arange(0, ids.size, codec.BLOCK_SIZE),
                           ids.size])
    rec = codec.expand_dl_lower_bounds(
        tfs, enc.imp_tf, enc.imp_dl, enc.imp_n, bsizes)
    assert (rec <= dls).all(), "recovered dl exceeds the true doc_len"
    enc2 = codec.encode_postings(ids, tfs, rec)
    np.testing.assert_array_equal(enc2.imp_tf, enc.imp_tf)
    np.testing.assert_array_equal(enc2.imp_dl, enc.imp_dl)
    np.testing.assert_array_equal(enc2.imp_n, enc.imp_n)
