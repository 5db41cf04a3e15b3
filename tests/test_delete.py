"""Tombstone deletion (build.delete_docs): deleted docs never surface,
survivor scores are untouched until compaction, and a purge-compaction
is rank+score identical to a fresh build over the surviving corpus."""

import glob
import json
import os
import shutil

import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    build,
    query,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
    QUERY_SET,
)

SF = "/root/testdata/sf0.001"


def _fmt(results):
    return [(r.doc_id, round(r.score, 6)) for r in results]


@pytest.fixture()
def del_index(ray_session, pages_dir, tmp_path):
    d = str(tmp_path / "idx")
    build.build_index(pages_dir, d,
                      build.BuildParams(num_shards=2, num_salts=4,
                                        positions=True))
    return d


def test_delete_masks_everything(ray_session, del_index):
    rd_ = query.IndexReader(del_index)
    base = _fmt(rd_.search_wand("spark data join", 10))
    victims = [base[0][0], base[3][0]]
    m = build.delete_docs(del_index, victims)
    assert m["n_tombstones"] == 2

    rd2 = query.IndexReader(del_index)
    got = _fmt(rd2.search_wand("spark data join", 10))
    # victims gone, survivors in the same order with IDENTICAL scores
    # (delete keeps global stats — Lucene soft-delete semantics)
    want = [x for x in base if x[0] not in set(victims)]
    assert got[:len(want)] == want
    assert _fmt(rd2.search_exhaustive("spark data join", 10))[:len(want)] \
        == want
    # fetch / explain refuse deleted docs
    assert query.fetch_doc(del_index, victims[0]) is None
    assert rd2.explain("spark data join", victims[0]) is None
    # phrase path masks too (positions index)
    ph = rd2.search_phrase("spark data", 10)
    assert all(h.doc_id not in set(victims) for h in ph)


def test_delete_union_and_grace(ray_session, del_index):
    build.delete_docs(del_index, [1, 2])
    build.delete_docs(del_index, [2, 3])
    mf = json.load(open(os.path.join(del_index, "manifest.json")))
    assert mf["n_tombstones"] == 3
    ts_files = [f for f in os.listdir(del_index)
                if f.startswith("tombstones-")]
    # current + one-generation grace at most
    assert mf["tombstone_files"][0] in ts_files and len(ts_files) <= 2


def test_extend_preserves_tombstones(ray_session, pages_dir, tmp_path):
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    half = len(files) // 2
    d = str(tmp_path / "idx")
    build.build_index(files[:half], d,
                      build.BuildParams(num_shards=2, num_salts=4))
    rd1 = query.IndexReader(d)
    victim = _fmt(rd1.search_wand("data", 5))[0][0]
    build.delete_docs(d, [victim])
    build.extend_index(files[half:], d)
    mf = json.load(open(os.path.join(d, "manifest.json")))
    assert mf.get("tombstone_files"), "extend dropped the tombstones"
    rd2 = query.IndexReader(d)
    assert all(h.doc_id != victim
               for h in rd2.search_wand("data", 20))


def test_compact_purges_to_fresh_build(ray_session, pages_dir, tmp_path):
    """compact(delete(build(all))) scores rank+score identical to a
    fresh build over the surviving pages: the purge recomputes n_docs,
    avg_dl and per-term df from survivors only."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = str(tmp_path / "idx")
    build.build_index(pages_dir, d,
                      build.BuildParams(num_shards=2, num_salts=4))
    rd1 = query.IndexReader(d)
    victims = {h.doc_id for h in rd1.search_wand("data table", 6)[:3]}
    build.delete_docs(d, sorted(victims))
    cdir = str(tmp_path / "cidx")
    m = build.compact_index(d, cdir, target_shards=1)
    assert "tombstone_files" not in m

    # fresh build over the surviving pages
    surv_dir = tmp_path / "surv"
    surv_dir.mkdir()
    for i, f in enumerate(sorted(glob.glob(
            os.path.join(pages_dir, "*.parquet")))):
        t = pq.read_table(f)
        keep = [x not in victims for x in t["doc_id"].to_pylist()]
        pq.write_table(t.filter(pa.array(keep)),
                       str(surv_dir / f"p{i:02d}.parquet"))
    fdir = str(tmp_path / "fidx")
    build.build_index(str(surv_dir), fdir,
                      build.BuildParams(num_shards=1, num_salts=4))

    rc, rf = query.IndexReader(cdir), query.IndexReader(fdir)
    assert rc.n_docs == rf.n_docs
    assert abs(rc.avg_dl - rf.avg_dl) < 1e-9
    for q in QUERY_SET:
        assert _fmt(rc.search_wand(q["query_text"], q["k"], q["mode"])) \
            == _fmt(rf.search_wand(q["query_text"], q["k"], q["mode"])), \
            q["query_text"]


def test_serve_respects_deletes(ray_session, pages_dir, tmp_path):
    """Deletes made while ONE searcher runs are masked on its next
    request, on the per-request (``search``) and the bulk
    (``search_many``) paths alike, with survivor ranks and scores equal
    to a freshly opened reader's."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve import (
        DistributedSearcher,
    )
    d = str(tmp_path / "idx")
    build.build_index(pages_dir, d,
                      build.BuildParams(num_shards=2, num_salts=4))
    s = DistributedSearcher(d, num_actors=2)
    try:
        v1 = s.search("data", 5)[0].doc_id
        build.delete_docs(d, [v1])
        got = s.search("data", 20)
        assert all(h.doc_id != v1 for h in got)
        assert _fmt(got) == _fmt(query.IndexReader(d).search("data", 20))
        assert s.explain("data", v1) is None

        v2 = s.search_many([{"query_text": "data", "k": 5}])[0][0].doc_id
        assert v2 != v1
        build.delete_docs(d, [v2])
        got = s.search_many([{"query_text": "data", "k": 20}])[0]
        assert not {v1, v2} & {h.doc_id for h in got}
        assert _fmt(got) == _fmt(query.IndexReader(d).search("data", 20))
        assert _fmt(s.search("data", 20)) == _fmt(got)

        # a caller two deletes behind names a tombstone file that
        # delete_docs has already removed: each actor falls back to the
        # current manifest's list instead of failing the request
        manifest = s.snapshot()[0]
        s.snapshot = lambda: (manifest, ("tombstones-gone.parquet",))
        assert _fmt(s.search("data", 20)) == _fmt(got)
    finally:
        s.shutdown()


def test_purge_passes_untouched_groups_through(ray_session, pages_dir,
                                               tmp_path):
    """The purge's tombstone pre-screen (build._merge_range): a (term,
    salt) group whose block doc-id ranges contain no tombstone is NOT
    re-encoded — its encoded bytes survive the purge identically —
    while groups holding a victim are rewritten with the victim gone.
    Guards the optimization that lets a 1%-delete purge skip the long
    tail instead of re-encoding the whole index."""
    import numpy as np
    import pyarrow.dataset as pads

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.codec import (
        decode_postings,
    )
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.build import (
        _enc_from_row,
    )

    d = str(tmp_path / "idx")
    build.build_index(pages_dir, d,
                      build.BuildParams(num_shards=2, num_salts=4))

    def seg_rows(idx_dir):
        files = glob.glob(os.path.join(
            idx_dir, "shards", "shard-*", "seg", "*.parquet"))
        t = pads.dataset(files).to_table()
        return {(r["term"], r["salt"]): r for r in t.to_pylist()}

    before = seg_rows(d)

    def postings(row):
        return decode_postings(_enc_from_row(row))[0]

    # victim: any doc from a mid-df term, so SOME groups hold it and
    # the long tail (df=1 groups elsewhere in doc space) does not
    victim = int(postings(before[("data", 0)])[0])
    build.delete_docs(d, [victim])
    cdir = str(tmp_path / "cidx")
    m = build.compact_index(d, cdir, target_shards=2)
    assert "tombstone_files" not in m
    after = seg_rows(cdir)

    hit = untouched = rewritten = 0
    for key, row_b in before.items():
        ids_b = postings(row_b)
        row_a = after.get(key)
        if victim in set(ids_b.tolist()):
            hit += 1
            if row_a is None:  # df==1 group fully deleted
                continue
            assert victim not in set(postings(row_a).tolist())
            rewritten += 1
        else:
            # victim-free group: the pre-screen must pass its encoded
            # bytes through IDENTICALLY (2 -> 2 shard compaction keeps
            # every group single-source, so no merge rewrites them)
            assert row_a is not None, key
            assert row_a["doc_bytes"] == row_b["doc_bytes"], key
            assert row_a["tf_bytes"] == row_b["tf_bytes"], key
            untouched += 1
    assert hit >= 1 and rewritten >= 1 and untouched >= 1, \
        (hit, rewritten, untouched)
