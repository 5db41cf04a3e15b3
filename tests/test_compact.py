"""Segment compaction: compact_index merges shards at the ENCODED level
(no re-extraction/re-tokenization) into a NEW index dir whose search
results are rank+score identical, with fewer shards and identical global
stats.  Covers the positional (v3 phrase) stream and resume semantics."""

from __future__ import annotations

import glob
import os

import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    build,
    query,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
    QUERY_SET,
    SELECTIVE_QUERY_SET,
)


def _fmt(results):
    return [(r.doc_id, round(r.score, 6)) for r in results]


@pytest.fixture(scope="module")
def compacted(ray_session, pages_dir, tmp_path_factory):
    """base build (2 shards) + two extends (6 shards) -> compact to 2."""
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert len(files) >= 4
    h, q3 = len(files) // 2, 3 * len(files) // 4
    root = tmp_path_factory.mktemp("compact")

    d_grown = str(root / "idx_grown")
    build.build_index(files[:h], d_grown,
                      build.BuildParams(num_shards=2, num_salts=4))
    build.extend_index(files[h:q3], d_grown)
    m_grown = build.extend_index(files[q3:], d_grown)

    d_out = str(root / "idx_compact")
    m_out = build.compact_index(d_grown, d_out, target_shards=2)
    return d_grown, d_out, m_grown, m_out


def test_compact_shrinks_shards_keeps_stats(compacted):
    d_grown, d_out, m_grown, m_out = compacted
    assert m_grown["n_shards"] == 6
    assert m_out["n_shards"] == 2
    assert m_out["n_docs"] == m_grown["n_docs"]
    assert abs(m_out["avg_dl"] - m_grown["avg_dl"]) < 1e-12
    assert m_out["n_postings"] == m_grown["n_postings"]


def test_compact_scores_identical(compacted):
    d_grown, d_out, _, _ = compacted
    r_old = query.IndexReader(d_grown)
    r_new = query.IndexReader(d_out)
    assert r_old._df == r_new._df
    for q in list(QUERY_SET) + list(SELECTIVE_QUERY_SET):
        want = _fmt(r_old.search_wand(q["query_text"], q["k"], q["mode"]))
        assert _fmt(r_new.search_wand(q["query_text"], q["k"], q["mode"])) \
            == want, f"compact != source for q{q['query_id']}"
        assert _fmt(r_new.search_exhaustive(
            q["query_text"], q["k"], q["mode"])) == want


def test_compact_heavy_passthrough_scores_identical(compacted,
                                                    tmp_path_factory):
    """heavy_passthrough_bytes=0 forces EVERY multi-row (term, salt) group
    through un-merged (the head-term scaling escape hatch): the output
    keeps several doc-disjoint rows per term and the reader runs one
    cursor per row — results must stay rank+score identical and global
    stats exact."""
    d_grown, _, m_grown, _ = compacted
    d_pt = str(tmp_path_factory.mktemp("compact_pt") / "idx_pt")
    m_pt = build.compact_index(d_grown, d_pt, target_shards=1,
                               heavy_passthrough_bytes=0)
    assert m_pt["n_shards"] == 1
    assert m_pt["n_docs"] == m_grown["n_docs"]
    assert m_pt["n_postings"] == m_grown["n_postings"]
    # un-merged: the single output shard holds MORE term rows than a
    # fully merged compact-to-1 would (source shards' rows survive)
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.state import (
        checkpoint as ckpt,
    )
    d_merged = str(tmp_path_factory.mktemp("compact_m1") / "idx_m1")
    build.compact_index(d_grown, d_merged, target_shards=1)
    assert ckpt.read_shard_record(d_pt, 0)["n_term_shards"] > \
        ckpt.read_shard_record(d_merged, 0)["n_term_shards"]
    r_old = query.IndexReader(d_grown)
    r_new = query.IndexReader(d_pt)
    assert r_old._df == r_new._df
    for q in list(QUERY_SET) + list(SELECTIVE_QUERY_SET):
        want = _fmt(r_old.search_wand(q["query_text"], q["k"], q["mode"]))
        assert _fmt(r_new.search_wand(q["query_text"], q["k"], q["mode"])) \
            == want, f"passthrough compact != source for q{q['query_id']}"
        assert _fmt(r_new.search_exhaustive(
            q["query_text"], q["k"], q["mode"])) == want


def test_compact_resume_is_noop(compacted):
    d_grown, d_out, _, m_out = compacted
    import time
    t0 = time.time()
    m2 = build.compact_index(d_grown, d_out, target_shards=2)
    assert time.time() - t0 < 5, "resume over done markers should be ~free"
    assert m2["n_postings"] == m_out["n_postings"]
    assert m2["n_docs"] == m_out["n_docs"]


def test_compact_refuses_in_place(compacted):
    d_grown, *_ = compacted
    with pytest.raises(ValueError, match="NEW index dir"):
        build.compact_index(d_grown, d_grown, target_shards=1)


def test_compact_positional_phrase_parity(ray_session, pages_dir,
                                          tmp_path_factory):
    """v3 positional stream survives the encoded-level merge: phrase
    search over a compacted positional index matches the grown one."""
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    h = len(files) // 2
    root = tmp_path_factory.mktemp("compact_pos")
    d_grown = str(root / "pos_grown")
    build.build_index(files[:h], d_grown,
                      build.BuildParams(num_shards=2, num_salts=4,
                                        positions=True))
    build.extend_index(files[h:], d_grown)
    d_out = str(root / "pos_compact")
    build.compact_index(d_grown, d_out, target_shards=1)

    r_old = query.IndexReader(d_grown)
    r_new = query.IndexReader(d_out)
    assert r_new.has_positions
    for phrase in ("spark data", "query plan", "merge sort"):
        want = _fmt(r_old.search_phrase(phrase, 10))
        got = _fmt(r_new.search_phrase(phrase, 10))
        assert got == want, f"phrase {phrase!r}: {got} != {want}"


def _synthetic_groups(rng, n_groups=60, overlap=True):
    """Segment table of multi-row (term, salt) groups with interleaved
    (overlapping) doc ranges across member rows, plus the group run
    boundaries — the shape the compaction merge sees."""
    import numpy as np
    import pyarrow as pa
    cols = {k: [] for k in
            ("sid term salt df doc_bytes tf_bytes block_first block_last "
             "block_doc_off block_tf_off "
             "pos_bytes block_pos_off imp_tf imp_dl imp_n").split()}
    for g in range(n_groups):
        k = rng.randint(1, 4)
        pool = np.unique(rng.randint(
            0, 1 << 30, size=rng.randint(1, 500)).astype(np.int64))
        if overlap:  # round-robin: member doc ranges interleave
            pieces = [pool[j::k] for j in range(k)]
        else:
            pieces = np.array_split(pool, k)
        for p in pieces:
            if p.size == 0:
                continue
            tf = rng.randint(1, 9, p.size).astype(np.int64)
            dl = rng.randint(5, 80, p.size).astype(np.int64)
            e = build.encode_postings(p, tf, dl)
            cols["sid"].append(0)
            cols["term"].append(f"t{g:05d}")
            cols["salt"].append(0)
            cols["df"].append(e.df)
            cols["doc_bytes"].append(e.doc_bytes)
            cols["tf_bytes"].append(e.tf_bytes)
            cols["block_first"].append(e.block_first.tolist())
            cols["block_last"].append(e.block_last.tolist())
            cols["block_doc_off"].append(e.block_doc_off.tolist())
            cols["block_tf_off"].append(e.block_tf_off.tolist())
            cols["pos_bytes"].append(b"")
            cols["block_pos_off"].append([0] * len(e.block_first))
            cols["imp_tf"].append(e.imp_tf.tolist())
            cols["imp_dl"].append(e.imp_dl.tolist())
            cols["imp_n"].append(e.imp_n.tolist())
    t = pa.table({
        "sid": pa.array(cols["sid"], pa.int32()),
        "term": pa.array(cols["term"]),
        "salt": pa.array(cols["salt"], pa.int32()),
        "df": pa.array(cols["df"], pa.int64()),
        "doc_bytes": pa.array(cols["doc_bytes"], pa.binary()),
        "tf_bytes": pa.array(cols["tf_bytes"], pa.binary()),
        "block_first": pa.array(cols["block_first"], pa.list_(pa.int64())),
        "block_last": pa.array(cols["block_last"], pa.list_(pa.int64())),
        "block_doc_off": pa.array(cols["block_doc_off"],
                                  pa.list_(pa.int32())),
        "block_tf_off": pa.array(cols["block_tf_off"], pa.list_(pa.int32())),
        "pos_bytes": pa.array(cols["pos_bytes"], pa.binary()),
        "block_pos_off": pa.array(cols["block_pos_off"],
                                  pa.list_(pa.int32())),
        "imp_tf": pa.array(cols["imp_tf"], pa.list_(pa.int64())),
        "imp_dl": pa.array(cols["imp_dl"], pa.list_(pa.int32())),
        "imp_n": pa.array(cols["imp_n"], pa.list_(pa.int32()))})
    import numpy as np
    terms = t["term"].to_numpy(zero_copy_only=False)
    chg = np.zeros(t.num_rows, bool)
    chg[0] = True
    chg[1:] = terms[1:] != terms[:-1]
    starts = np.flatnonzero(chg)
    ends = np.r_[starts[1:], t.num_rows]
    return t, starts, ends


@pytest.mark.parametrize("with_ts", [False, True])
@pytest.mark.parametrize("overlap", [False, True])
def test_merge_groups_batched_equals_per_group(with_ts, overlap):
    """The vectorized multi-group merge is byte-identical, column for
    column, to merge_segment_rows per group — with and without a
    tombstone purge, with disjoint (pre-sorted fast path) and
    interleaved (posting-sort path) member ranges, small chunk size to
    exercise the chunking wrapper."""
    import numpy as np
    import pyarrow as pa
    rng = np.random.RandomState(42 + with_ts + 2 * overlap)
    t, starts, ends = _synthetic_groups(rng, overlap=overlap)
    ts = None
    if with_ts:
        # tombstone ~3% of all doc ids, incl. EVERY id of group 3
        import pyarrow.compute as pc
        all_ids = []
        for i in range(t.num_rows):
            enc = build._enc_from_row(t.to_pylist()[i])
            all_ids.append(build.decode_postings(enc)[0])
        flat = np.unique(np.concatenate(all_ids))
        ts = np.unique(np.concatenate(
            [flat[::33],
             np.concatenate([a for i, a in enumerate(all_ids)
                             if t["term"][i].as_py() == "t00003"])]))
    mi = np.arange(len(starts))
    ref = [build.merge_segment_rows(t.slice(starts[i], ends[i] - starts[i]),
                                    ts) for i in mi]
    ref = pa.concat_tables([r for r in ref if r.num_rows],
                           promote_options="default")
    out = build.merge_groups_batched(t, starts, ends, mi, ts,
                                     chunk_bytes=1 << 12)
    assert out.num_rows == ref.num_rows
    for col in ref.column_names:
        assert out[col].combine_chunks().equals(
            ref[col].combine_chunks()), col


def test_merge_groups_batched_rejects_duplicate_ids():
    import numpy as np
    ids = np.array([5, 9, 12], np.int64)
    tf = np.ones(3, np.int64)
    dl = np.full(3, 7, np.int64)
    e = build.encode_postings(ids, tf, dl)
    import pyarrow as pa
    row = {
        "sid": pa.array([0, 0], pa.int32()),
        "term": pa.array(["x", "x"]),
        "salt": pa.array([0, 0], pa.int32()),
        "df": pa.array([3, 3], pa.int64()),
        "doc_bytes": pa.array([e.doc_bytes] * 2, pa.binary()),
        "tf_bytes": pa.array([e.tf_bytes] * 2, pa.binary()),
        "block_first": pa.array([e.block_first.tolist()] * 2,
                                pa.list_(pa.int64())),
        "block_last": pa.array([e.block_last.tolist()] * 2,
                               pa.list_(pa.int64())),
        "block_doc_off": pa.array([e.block_doc_off.tolist()] * 2,
                                  pa.list_(pa.int32())),
        "block_tf_off": pa.array([e.block_tf_off.tolist()] * 2,
                                 pa.list_(pa.int32())),
        "pos_bytes": pa.array([b"", b""], pa.binary()),
        "block_pos_off": pa.array([[0], [0]], pa.list_(pa.int32())),
        "imp_tf": pa.array([e.imp_tf.tolist()] * 2, pa.list_(pa.int64())),
        "imp_dl": pa.array([e.imp_dl.tolist()] * 2, pa.list_(pa.int32())),
        "imp_n": pa.array([e.imp_n.tolist()] * 2, pa.list_(pa.int32()))}
    t = pa.table(row)
    starts = np.array([0])
    ends = np.array([2])
    with pytest.raises(ValueError, match="duplicate doc_id"):
        build.merge_groups_batched(t, starts, ends, np.array([0]), None)
