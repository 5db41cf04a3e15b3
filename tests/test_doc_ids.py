"""Collision-safe doc ids (SCALE.md switch point 2, flipped):

* doc_id_mode="sharded" — position-based (file_seq << 40 | row) ids
  that cannot collide, stable across resume and extend generations;
* verify_doc_ids — loud failure on duplicate ids (the synthetic-
  collision case a 62-bit url hash would eventually hit at 10^12 docs);
* ids above 2^62 flow through codec, WAND and the oracle unchanged.
"""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    build,
    oracle,
    query,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.fragments import (
    ROW_BITS,
    load_ledger,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
    QUERY_SET,
)

PARAMS = dict(num_shards=2, num_salts=4)


def _fmt(results):
    return [(r.doc_id, round(r.score, 6)) for r in results]


def _docs_table(index_dir, columns=("doc_id", "text")):
    files = sorted(glob.glob(os.path.join(index_dir, "shards", "*", "docs",
                                          "*.parquet")))
    return pq.read_table(files, columns=list(columns))


def _oracle_from_index(index_dir):
    tbl = _docs_table(index_dir)
    return oracle.build_oracle_index(
        dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())))


@pytest.fixture(scope="module")
def sharded_index(ray_session, pages_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("shid") / "idx")
    build.build_index(pages_dir, d,
                      build.BuildParams(doc_id_mode="sharded", **PARAMS))
    return d


def test_sharded_ids_positional(sharded_index, pages_dir):
    """Every id decomposes to (file_seq, row) matching the ledger order
    and the row's position in its file; all ids unique."""
    ledger = load_ledger(sharded_index)
    assert ledger == sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    tbl = _docs_table(sharded_index, columns=("doc_id", "url"))
    ids = tbl["doc_id"].to_pylist()
    assert len(set(ids)) == len(ids)
    # reconstruct: for each file, the synthesized ids must be exactly
    # base + arange(rows) against that file's url order
    for seq, f in enumerate(ledger):
        urls_in_file = pq.read_table(f, columns=["url"])["url"].to_pylist()
        want = {(seq << ROW_BITS) + i for i in range(len(urls_in_file))}
        got = {i for i in ids if (i >> ROW_BITS) == seq}
        assert got == want, f


def test_sharded_query_parity(ray_session, sharded_index):
    oidx = _oracle_from_index(sharded_index)
    rd_ = query.IndexReader(sharded_index)
    for q in QUERY_SET:
        want = [(d, round(s, 6)) for d, s in oracle.oracle_topk(
            oidx, q["query_text"], q["k"], q["mode"])]
        assert _fmt(rd_.search_wand(q["query_text"], q["k"],
                                    q["mode"])) == want
        assert _fmt(rd_.search_exhaustive(q["query_text"], q["k"],
                                          q["mode"])) == want


def test_sharded_resume_identical(ray_session, pages_dir, sharded_index):
    """Re-running build over the existing dir resumes and leaves ids and
    results identical."""
    before = _docs_table(sharded_index)["doc_id"].to_pylist()
    build.build_index(pages_dir, sharded_index,
                      build.BuildParams(doc_id_mode="sharded", **PARAMS))
    after = _docs_table(sharded_index)["doc_id"].to_pylist()
    assert before == after


def test_sharded_extend_equals_fresh(ray_session, pages_dir,
                                     tmp_path_factory):
    """build(half) + extend(rest) assigns the SAME ids as a fresh build
    over everything (ledger order is identical), so results match
    exactly; generations never overlap ids."""
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    half = len(files) // 2
    p = build.BuildParams(doc_id_mode="sharded", **PARAMS)
    d_ext = str(tmp_path_factory.mktemp("shext") / "idx")
    build.build_index(files[:half], d_ext, p)
    ids_gen1 = set(_docs_table(d_ext)["doc_id"].to_pylist())
    build.extend_index(files[half:], d_ext)
    ids_all = _docs_table(d_ext)["doc_id"].to_pylist()
    assert len(set(ids_all)) == len(ids_all)
    d_all = str(tmp_path_factory.mktemp("shall") / "idx")
    build.build_index(files, d_all, p)
    assert sorted(ids_all) == sorted(
        _docs_table(d_all)["doc_id"].to_pylist())
    r_e, r_a = query.IndexReader(d_ext), query.IndexReader(d_all)
    for q in QUERY_SET:
        assert _fmt(r_e.search_wand(q["query_text"], q["k"], q["mode"])) \
            == _fmt(r_a.search_wand(q["query_text"], q["k"], q["mode"]))
    # gen-2 ids are new files' seqs — disjoint from gen 1 by ledger append
    assert ids_gen1 < set(ids_all)


def test_extend_refuses_reingested_file(ray_session, pages_dir,
                                        tmp_path_factory):
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    d = str(tmp_path_factory.mktemp("shre") / "idx")
    build.build_index(files[:2], d,
                      build.BuildParams(doc_id_mode="sharded", **PARAMS))
    with pytest.raises(ValueError, match="already indexed"):
        build.extend_index(files[:1], d)


def test_resume_refuses_mode_change(ray_session, pages_dir, sharded_index):
    with pytest.raises(ValueError, match="doc_id_mode"):
        build.build_index(pages_dir, sharded_index,
                          build.BuildParams(doc_id_mode="auto", **PARAMS))


def _write_pages(path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "url": pa.array([r[1] for r in rows], pa.string()),
        "html": pa.array([f"<html><body>{r[2]}</body></html>"
                          for r in rows], pa.string()),
    }), path)


def test_verify_doc_ids_catches_collision(ray_session, tmp_path):
    """Synthetic collision: the same doc_id arrives from two different
    files/shards with disjoint vocabularies (so the per-term merge can't
    see it) — verify_doc_ids fails the build loudly."""
    d = tmp_path / "pages"
    d.mkdir()
    _write_pages(str(d / "a.parquet"),
                 [(1, "http://a/1", "alpha beta gamma"),
                  (2, "http://a/2", "delta epsilon zeta")])
    _write_pages(str(d / "b.parquet"),
                 [(2, "http://b/1", "eta theta iota"),
                  (3, "http://b/2", "kappa lambda mu")])
    with pytest.raises(ValueError, match="duplicate doc_ids"):
        build.build_index(str(d), str(tmp_path / "idx"),
                          build.BuildParams(verify_doc_ids=True, **PARAMS))


def test_ids_above_2_62(ray_session, tmp_path):
    """Ids in 2^62..2^63 territory survive codec delta encoding, WAND,
    exhaustive scoring and the oracle — the id space the sharded scheme
    (and any future 63-bit scheme) occupies."""
    base = (1 << 62) + 12345
    rows = [(base + i, f"http://x/{i}",
             ("spark data join " if i % 2 else "window merge sort ")
             + f"tok{i} filler words here") for i in range(40)]
    d = tmp_path / "pages"
    d.mkdir()
    _write_pages(str(d / "p.parquet"), rows)
    idx = str(tmp_path / "idx")
    build.build_index(str(d), idx, build.BuildParams(**PARAMS))
    docs = _docs_table(idx)
    assert min(docs["doc_id"].to_pylist()) >= 1 << 62
    oidx = _oracle_from_index(idx)
    rd_ = query.IndexReader(idx)
    for qt, mode in (("spark data join", "or"), ("window merge", "and"),
                     ("tok3", "or")):
        want = [(dd, round(s, 6)) for dd, s in
                oracle.oracle_topk(oidx, qt, 10, mode)]
        assert _fmt(rd_.search_wand(qt, 10, mode)) == want
        assert _fmt(rd_.search_exhaustive(qt, 10, mode)) == want


def test_compact_preserves_ledger_then_extend(ray_session, pages_dir,
                                              tmp_path):
    """Compacting a sharded-id index carries the doc-id ledger, so a
    later extend cannot re-issue existing file_seqs/doc ids."""
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    half = len(files) // 2
    p = build.BuildParams(doc_id_mode="sharded", **PARAMS)
    d = str(tmp_path / "idx")
    build.build_index(files[:half], d, p)
    c = str(tmp_path / "cidx")
    build.compact_index(d, c, target_shards=1)
    assert load_ledger(c) == load_ledger(d)
    build.extend_index(files[half:], c)
    ids = _docs_table(c)["doc_id"].to_pylist()
    assert len(set(ids)) == len(ids)
    # ids equal a fresh sharded build over everything
    f = str(tmp_path / "fidx")
    build.build_index(files, f, p)
    assert sorted(ids) == sorted(_docs_table(f)["doc_id"].to_pylist())


def test_canon_passes_uris_through(tmp_path):
    """Ledger canonicalization must not realpath-mangle URI corpus
    inputs (s3://bucket/x would become a bogus CWD-relative local
    path); local spellings still collapse to one realpath."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources import (
        fragments,
    )
    assert fragments.canon("s3://bucket/pages/a.parquet") == \
        "s3://bucket/pages/a.parquet"
    assert fragments.canon("mock://x/y.parquet") == "mock://x/y.parquet"
    p = tmp_path / "f.parquet"
    p.write_bytes(b"")
    link = tmp_path / "ln.parquet"
    os.symlink(p, link)
    assert fragments.canon(str(link)) == fragments.canon(str(p)) \
        == os.path.realpath(str(p))


def test_file_uri_and_local_path_share_one_ledger_entry(ray_session,
                                                        pages_dir,
                                                        tmp_path_factory):
    """``file:///x/p.parquet`` and ``/x/p.parquet`` name one file: they
    canonicalize to one ledger entry, so extending with the URI spelling
    of an indexed file is refused like the plain spelling."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources import (
        fragments,
    )
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert fragments.canon("file://" + files[0]) == \
        fragments.canon(files[0]) == os.path.realpath(files[0])
    d = str(tmp_path_factory.mktemp("shuri") / "idx")
    build.build_index(files[:2], d,
                      build.BuildParams(doc_id_mode="sharded", **PARAMS))
    with pytest.raises(ValueError, match="already indexed"):
        build.extend_index("file://" + files[0], d)
    assert load_ledger(d) == [os.path.realpath(f) for f in files[:2]]
