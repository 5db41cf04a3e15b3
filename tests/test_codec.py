"""Unit tests: varint/delta codec, block layout invariants (FIXTURES.md F5)."""

import numpy as np
import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions import (
    bm25,
    codec,
)


def test_varint_roundtrip_edges():
    cases = [
        np.array([], dtype=np.uint64),
        np.array([0], dtype=np.uint64),
        np.array([127, 128, 129], dtype=np.uint64),
        np.array([0, 1, (1 << 63) - 1, 1 << 62], dtype=np.uint64),
    ]
    for v in cases:
        assert (codec.varint_decode(codec.varint_encode(v)) == v).all()


def test_varint_single_byte_fast_path():
    # every value < 128 -> the decoder's direct-cast path must still be exact
    rng = np.random.RandomState(11)
    v = rng.randint(0, 128, size=5000).astype(np.uint64)
    enc = codec.varint_encode(v)
    assert len(enc) == v.size  # 1 byte per value
    assert (codec.varint_decode(enc) == v).all()


def test_varint_roundtrip_random():
    rng = np.random.RandomState(7)
    for _ in range(10):
        v = rng.randint(0, 1 << 62, size=2000).astype(np.uint64)
        v[rng.randint(0, 2000, 100)] = 0
        assert (codec.varint_decode(codec.varint_encode(v)) == v).all()


@pytest.fixture
def encoded():
    rng = np.random.RandomState(3)
    ids = np.unique(rng.randint(0, 1 << 45, size=1000).astype(np.int64))
    tfs = rng.randint(1, 40, size=ids.size).astype(np.int64)
    dls = rng.randint(5, 500, size=ids.size).astype(np.int64)
    return ids, tfs, dls, codec.encode_postings(ids, tfs, dls)


def test_postings_roundtrip(encoded):
    ids, tfs, _, enc = encoded
    d_ids, d_tfs = codec.decode_postings(enc)
    assert (d_ids == ids).all() and (d_tfs == tfs).all()
    assert enc.df == ids.size


def test_block_invariants(encoded):
    ids, tfs, dls, enc = encoded
    nb = enc.block_first.size
    assert nb == -(-ids.size // codec.BLOCK_SIZE)
    for bi in range(nb):
        b_ids, b_tfs = codec.decode_block(enc, bi)
        lo, hi = bi * codec.BLOCK_SIZE, min(ids.size, (bi + 1) * codec.BLOCK_SIZE)
        assert (b_ids == ids[lo:hi]).all()
        assert b_ids[0] == enc.block_first[bi] and b_ids[-1] == enc.block_last[bi]
        assert (np.diff(b_ids) > 0).all(), "doc_ids strictly ascending"


def test_empty_postings():
    enc = codec.encode_postings(np.zeros(0, np.int64), np.zeros(0, np.int64),
                                np.zeros(0))
    ids, tfs = codec.decode_postings(enc)
    assert enc.df == 0 and ids.size == 0 and tfs.size == 0


def test_block_ub_dominates_scores_without_margin():
    """A block bound idf*tf_norm(max_tf, min_dl) must be >= every
    posting's idf*tf_norm(tf, dl) EXACTLY in float64 — query.py prunes
    with no safety margin (ties must compare equal, not above), relying
    on (a) identical formula + dtype on both sides, (b) integer tf/dl
    inputs whose real-valued gaps dwarf rounding.  Adversarial sweep:
    huge tf/dl magnitudes, near-equal pairs, extreme avg_dl."""
    rng = np.random.RandomState(42)
    for trial in range(200):
        n = rng.randint(1, 129)
        scale = 10 ** rng.randint(0, 7)
        dls = rng.randint(1, 2 * scale, size=n).astype(np.int64)
        tfs = np.minimum(rng.randint(1, 2 * scale, size=n), dls).astype(
            np.int64)
        avg_dl = float(rng.randint(1, 2 * scale)) + rng.rand()
        idf_t = bm25.idf(int(2 * scale) + 1, rng.randint(1, 2 * scale))
        scores = bm25.score_vec(idf_t, tfs, dls, avg_dl)
        ub = idf_t * bm25.tf_norm_vec(
            np.array([tfs.max()], dtype=np.float64),
            np.array([dls.min()], dtype=np.float64), avg_dl)[0]
        assert ub >= scores.max(), (trial, ub, scores.max())
        # the tie case must be EXACT equality (a margin would break
        # tie pruning): all postings identical -> ub == score bitwise
        one_tf = np.full(n, tfs[0]); one_dl = np.full(n, dls[0])
        s_tie = bm25.score_vec(idf_t, one_tf, one_dl, avg_dl)
        ub_tie = idf_t * bm25.tf_norm_vec(
            one_tf[:1].astype(np.float64),
            one_dl[:1].astype(np.float64), avg_dl)[0]
        assert ub_tie == s_tie.max()


# ------------------------------------------------- v4 impact frontiers ---

def test_impact_frontier_exact_minimal(encoded):
    """Per block, the stored Pareto frontier (imp_tf/imp_dl/imp_n) gives
    the EXACT max per-doc tf_norm under ANY avg_dl (extend-safety), is
    minimal (a strict staircase: tf and dl both strictly descending in
    storage order), and its extremes reproduce max_tf / min_dl."""
    ids, tfs, dls, enc = encoded
    off = np.concatenate(([0], np.cumsum(enc.imp_n)))
    nb = enc.block_first.size
    assert off[-1] == enc.imp_tf.size == enc.imp_dl.size
    for bi in range(nb):
        lo, hi = bi * codec.BLOCK_SIZE, min(ids.size,
                                            (bi + 1) * codec.BLOCK_SIZE)
        ft = enc.imp_tf[off[bi]:off[bi + 1]]
        fd = enc.imp_dl[off[bi]:off[bi + 1]]
        assert ft.size >= 1
        assert (np.diff(ft) < 0).all() and (np.diff(fd) < 0).all()
        assert ft[0] == tfs[lo:hi].max()
        assert fd[-1] == dls[lo:hi].min()
        # every frontier pair is a REAL doc's (tf, dl) in this block
        real = set(zip(tfs[lo:hi].tolist(), dls[lo:hi].tolist()))
        assert set(zip(ft.tolist(), fd.tolist())) <= real
        for avg_dl in (3.7, 57.0, 1e5):
            true_max = bm25.tf_norm_vec(tfs[lo:hi], dls[lo:hi], avg_dl).max()
            got = bm25.tf_norm_vec(ft.astype(np.float64),
                                   fd.astype(np.float64), avg_dl).max()
            assert got == true_max, (bi, avg_dl)  # bitwise: same formula


def test_impact_frontier_multi_matches_single():
    """encode_postings_multi emits the same frontiers per segment as
    encode_postings, with correct per-segment pair spans (imp_offsets)."""
    rng = np.random.RandomState(9)
    gsizes = np.array([0, 5, 300, 0, 129], np.int64)
    n = int(gsizes.sum())
    tfs = rng.randint(1, 15, n).astype(np.int64)
    dls = rng.randint(2, 90, n).astype(np.int64)
    parts, pos = [], 0
    for g in gsizes:
        ids = np.unique(rng.randint(0, 1 << 40, int(g) * 2)
                        .astype(np.int64))[:int(g)]
        parts.append(ids)
        pos += int(g)
    ids_all = np.concatenate(parts)
    d = codec.encode_postings_multi(ids_all, tfs, dls, gsizes)
    io = d["imp_offsets"]
    assert io.size == gsizes.size + 1
    s = 0
    for gi, g in enumerate(gsizes):
        e = codec.encode_postings(parts[gi], tfs[s:s + int(g)],
                                  dls[s:s + int(g)])
        assert np.array_equal(d["imp_tf"][io[gi]:io[gi + 1]], e.imp_tf), gi
        assert np.array_equal(d["imp_dl"][io[gi]:io[gi + 1]], e.imp_dl), gi
        s += int(g)


def test_expand_dl_lower_bounds_roundtrip():
    """The frontier-derived per-posting dl surrogate (compaction's dl
    stand-in) is (a) a true lower bound, (b) at least as tight as the old
    block-min surrogate, and (c) re-encoding with it reproduces the SAME
    frontier, min_dl and posting bytes — the single-row compaction
    byte-identity invariant."""
    rng = np.random.RandomState(21)
    for _ in range(20):
        n = rng.randint(1, 700)
        ids = np.cumsum(rng.randint(1, 20, n)).astype(np.int64)
        tfs = rng.randint(1, 12, n).astype(np.int64)
        dls = rng.randint(1, 500, n).astype(np.int64)
        e = codec.encode_postings(ids, tfs, dls)
        nb = e.block_first.size
        sizes = np.full(nb, codec.BLOCK_SIZE, np.int64)
        sizes[-1] = n - (nb - 1) * codec.BLOCK_SIZE
        starts = np.arange(0, n, codec.BLOCK_SIZE)
        block_min_dl = np.minimum.reduceat(dls, starts)
        dl2 = codec.expand_dl_lower_bounds(tfs, e.imp_tf, e.imp_dl,
                                           e.imp_n, sizes)
        assert (dl2 <= dls).all()
        assert (dl2 >= np.repeat(block_min_dl, sizes)).all()
        e2 = codec.encode_postings(ids, tfs, dl2)
        assert np.array_equal(e2.imp_tf, e.imp_tf)
        assert np.array_equal(e2.imp_dl, e.imp_dl)
        assert np.array_equal(e2.imp_n, e.imp_n)
        assert np.array_equal(np.minimum.reduceat(dl2, starts),
                              block_min_dl)
        assert e2.doc_bytes == e.doc_bytes and e2.tf_bytes == e.tf_bytes


def test_impact_frontier_packed_sort_branches_agree():
    """block_impact_frontier picks one of three sort strategies by bit
    budget (full int64 pack / (tf,dl) pack + regroup / plain lexsort).
    All three must produce identical frontiers; the value scales below
    force each branch in turn and compare against the lexsort
    formulation the packed paths replaced."""
    def ref(tfs, dls, bstarts, bsizes):
        nb = bstarts.size
        blk = np.repeat(np.arange(nb, dtype=np.int64), bsizes)
        order = np.lexsort((dls, -tfs, blk))
        b_s, t_s, d_s = blk[order], tfs[order], dls[order]
        biased = -d_s + b_s * (np.int64(1) << np.int64(32))
        runmax = np.maximum.accumulate(biased)
        keep = np.ones(b_s.size, dtype=bool)
        keep[1:] = (b_s[1:] != b_s[:-1]) | (biased[1:] > runmax[:-1])
        return (t_s[keep], d_s[keep].astype(np.int32),
                np.bincount(b_s[keep], minlength=nb).astype(np.int32))

    rng = np.random.default_rng(7)
    hits = [0, 0, 0]
    for trial in range(120):
        nb = int(rng.integers(1, 9))
        bsizes = rng.integers(1, 40, nb).astype(np.int64)
        bstarts = np.concatenate(([0], np.cumsum(bsizes)[:-1]))
        n = int(bsizes.sum())
        scale = int(rng.choice([10, 2**20, 2**30, 2**45]))
        tfs = rng.integers(1, scale, n).astype(np.int64)
        dls = rng.integers(1, min(scale, 2**31 - 1), n).astype(np.int64)
        tb = (int(tfs.max()) + 1).bit_length()
        db = (int(dls.max()) + 1).bit_length()
        br = 0 if tb + db + nb.bit_length() <= 62 else (
            1 if tb + db <= 62 else 2)
        hits[br] += 1
        got = codec.block_impact_frontier(tfs, dls, bstarts, bsizes)
        exp = ref(tfs, dls, bstarts, bsizes)
        for g, e in zip(got, exp):
            assert np.array_equal(g, e), (trial, br)
    assert all(h > 0 for h in hits), hits  # every branch exercised
