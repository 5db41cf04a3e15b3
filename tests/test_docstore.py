"""Doc-store sidecar (state/docstore.py): sidecar-resolved point lookups
== filtered-scan fallback, column pruning, staleness fallback,
lifecycle coverage (delete visibility through fetch_docs), and the
decoded-data cache (warm == cold, rewrite and delete invalidation, byte
cap).

Reference analog: none — the reference re-reads the corpus through Spark
for every lookup (``webapp/backend`` fetch path); this is the Lucene
stored-fields-index design over the docs checkpoint."""

import glob
import os
from collections import OrderedDict

import pyarrow.parquet as pq
import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    build,
    query,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.state import (
    checkpoint as ckpt,
    docstore,
)


@pytest.fixture(scope="module")
def doc_ids(index_dir):
    files = glob.glob(os.path.join(index_dir, "shards", "shard-*",
                                   "docs", "*.parquet"))
    ids = pq.ParquetDataset(files).read(columns=["doc_id"])
    return sorted(ids["doc_id"].to_pylist())


def _hide_sidecars(index_dir, hide=True):
    for sd in glob.glob(os.path.join(index_dir, "shards", "shard-*")):
        a = os.path.join(sd, docstore.DOCS_IDX_PTR)
        b = a + ".hidden"
        src, dst = (a, b) if hide else (b, a)
        if os.path.exists(src):
            os.rename(src, dst)


def _sidecar_table(sd):
    """All parts of a shard's CURRENT sidecar generation, concatenated
    and sorted by doc_id (gen names are random, boundaries may differ
    between rebuilds — the logical content is what must match)."""
    import pyarrow as pa
    parts = docstore._resolve_parts(sd)
    assert parts, sd
    tables = [pq.read_table(q) for q in parts]
    return pa.concat_tables(tables).sort_by("doc_id"), tables


def test_sidecar_written_per_shard_and_counted(index_dir):
    mf = ckpt.read_json(os.path.join(index_dir, "manifest.json"))
    assert mf["docs_idx"]["version"] == docstore.IDX_VERSION
    assert mf["docs_idx"]["n_rows"] == mf["n_docs"]
    for sd in glob.glob(os.path.join(index_dir, "shards", "shard-*")):
        whole, parts = _sidecar_table(sd)
        for t in parts:
            # each part sorted by doc_id — the property row-group
            # pruning relies on
            col = t["doc_id"].to_pylist()
            assert col == sorted(col)
            assert t.schema.metadata and b"files" in t.schema.metadata
        # parts are range-DISJOINT: the concatenation has no duplicates
        col = whole["doc_id"].to_pylist()
        assert len(col) == len(set(col))


def test_fetch_docs_sidecar_equals_scan(index_dir, doc_ids):
    wanted = doc_ids[::7] + [doc_ids[0], 999_999_999_999]
    fast = query.fetch_docs(index_dir, wanted)
    _hide_sidecars(index_dir)
    try:
        scan = query.fetch_docs(index_dir, wanted)
    finally:
        _hide_sidecars(index_dir, hide=False)
    assert fast == scan
    assert set(fast) == set(doc_ids[::7]) | {doc_ids[0]}
    assert 999_999_999_999 not in fast


def test_fetch_docs_column_pruning(index_dir, doc_ids):
    got = query.fetch_docs(index_dir, doc_ids[:3], columns=["text"])
    assert set(got) == set(doc_ids[:3])
    for row in got.values():
        assert set(row) == {"doc_id", "text"}  # doc_id forced in


def test_single_id_and_empty(index_dir, doc_ids):
    one = query.fetch_docs(index_dir, [doc_ids[5]])
    assert list(one) == [doc_ids[5]]
    assert one[doc_ids[5]]["doc_len"] > 0
    assert query.fetch_docs(index_dir, []) == {}


def test_stale_sidecar_falls_back(index_dir, doc_ids, tmp_path):
    """A sidecar referencing a vanished part must not break lookups —
    lookup_shard_docs returns None and fetch_docs falls back to the
    scan.  Simulated by pointing one shard's sidecar at a bogus file
    list (metadata rewrite, data unchanged)."""
    sd = glob.glob(os.path.join(index_dir, "shards", "shard-*"))[0]
    p = docstore._resolve_parts(sd)[0]
    orig = pq.read_table(p)
    bogus = orig.replace_schema_metadata(
        {b"files": b'["does-not-exist.parquet"]',
         b"version": str(docstore.IDX_VERSION).encode()})
    try:
        pq.write_table(bogus, p)
        got = query.fetch_docs(index_dir, doc_ids[:5])
        assert set(got) == set(doc_ids[:5])
    finally:
        pq.write_table(orig, p, row_group_size=docstore.IDX_ROW_GROUP)


def test_lookup_shard_docs_missing_sidecar_none(tmp_path):
    assert docstore.lookup_shard_docs([str(tmp_path)], [1, 2]) is None


def test_row_beyond_rewritten_part_falls_back(pages_dir, tmp_path_factory):
    """A part rewritten SHORTER than the sidecar remembers (e.g. a purge
    that raced the rebuild) must degrade to the scan, not raise: the
    sidecar's row_i points past the part's rows."""
    d = str(tmp_path_factory.mktemp("ds_shrink_idx"))
    build.build_index(pages_dir, d, build.BuildParams(num_shards=1))
    sd = os.path.join(d, "shards", "shard-0000")
    parts = sorted(glob.glob(os.path.join(sd, "docs", "*.parquet")))
    t = pq.read_table(parts[0])
    assert t.num_rows > 1
    dropped = t["doc_id"][t.num_rows - 1].as_py()
    kept = t["doc_id"][0].as_py()
    pq.write_table(t.slice(0, t.num_rows - 1), parts[0])
    got = query.fetch_docs(d, [kept, dropped])  # must not raise
    assert kept in got and dropped not in got


def test_chunked_rebuild_equals_single(index_dir, doc_ids, monkeypatch,
                                       tmp_path_factory):
    """The fanned-out scan (SCAN_CHUNK-file tasks + merge) must produce a
    byte-equivalent sidecar to the single-task path: compact with
    SCAN_CHUNK=1 (forces one scan task PER FILE) and compare lookups +
    sidecar contents against a plain compact of the same index."""
    a = str(tmp_path_factory.mktemp("ds_chunk_a"))
    b = str(tmp_path_factory.mktemp("ds_chunk_b"))
    build.compact_index(index_dir, a, target_shards=1)
    monkeypatch.setattr(docstore, "SCAN_CHUNK", 1)
    build.compact_index(index_dir, b, target_shards=1)
    ta, _ = _sidecar_table(os.path.join(a, "shards", "shard-0000"))
    tb, _ = _sidecar_table(os.path.join(b, "shards", "shard-0000"))
    assert ta.equals(tb)
    wanted = doc_ids[::11]
    assert query.fetch_docs(b, wanted).keys() == \
        query.fetch_docs(a, wanted).keys() == set(wanted)


def test_delete_then_fetch_miss(pages_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("ds_del_idx"))
    build.build_index(pages_dir, d, build.BuildParams(num_shards=2))
    files = glob.glob(os.path.join(d, "shards", "shard-*",
                                   "docs", "*.parquet"))
    ids = sorted(pq.ParquetDataset(files).read(
        columns=["doc_id"])["doc_id"].to_pylist())
    victim, survivor = ids[0], ids[1]
    assert victim in query.fetch_docs(d, [victim, survivor])
    build.delete_docs(d, [victim])
    got = query.fetch_docs(d, [victim, survivor])
    assert victim not in got and survivor in got
    # purge-compact to a fresh dir: sidecars rebuilt there, victim gone
    out = str(tmp_path_factory.mktemp("ds_del_out"))
    build.compact_index(d, out, target_shards=1)
    mf = ckpt.read_json(os.path.join(out, "manifest.json"))
    assert mf["docs_idx"]["n_rows"] == mf["n_docs"]
    got2 = query.fetch_docs(out, [victim, survivor])
    assert victim not in got2 and survivor in got2


def test_multi_part_sidecar_purge_and_scan_paths(pages_dir, monkeypatch,
                                                 tmp_path_factory):
    """Force the range-parted sidecar build (PART_TARGET_ROWS tiny) on
    BOTH build paths — the piggybacked purge rewrite and the scan-chunk
    rebuild — and check the parts are sorted, range-disjoint, and the
    lookups equal the scan fallback."""
    monkeypatch.setattr(docstore, "PART_TARGET_ROWS", 64)
    monkeypatch.setattr(docstore, "SCAN_CHUNK", 1)
    d = str(tmp_path_factory.mktemp("ds_mp_idx"))
    build.build_index(pages_dir, d, build.BuildParams(num_shards=2))
    files = glob.glob(os.path.join(d, "shards", "shard-*",
                                   "docs", "*.parquet"))
    ids = sorted(pq.ParquetDataset(files).read(
        columns=["doc_id"])["doc_id"].to_pylist())
    build.delete_docs(d, ids[::10])
    survivors = [x for x in ids if x not in set(ids[::10])]

    for label, out in (("purge", str(tmp_path_factory.mktemp("ds_mp_p"))),
                       ("plain", str(tmp_path_factory.mktemp("ds_mp_s")))):
        src = d
        if label == "plain":
            # purge first so the second compact runs tombstone-free
            # (plain path = scan-chunk rebuild)
            build.compact_index(d, out + ".pre", target_shards=2)
            src = out + ".pre"
        build.compact_index(src, out, target_shards=1)
        sd = os.path.join(out, "shards", "shard-0000")
        parts = docstore._resolve_parts(sd)
        assert len(parts) > 1, (label, parts)
        spans = []
        for q in parts:
            t = pq.read_table(q)
            col = t["doc_id"].to_pylist()
            assert col == sorted(col), label
            if col:
                spans.append((col[0], col[-1]))
        spans.sort()
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi < b_lo, (label, spans)  # range-disjoint
        mf = ckpt.read_json(os.path.join(out, "manifest.json"))
        assert mf["docs_idx"]["n_rows"] == mf["n_docs"] == len(survivors)
        wanted = survivors[::5] + ids[:3]
        fast = query.fetch_docs(out, wanted)
        _hide_sidecars(out)
        try:
            assert fast == query.fetch_docs(out, wanted), label
        finally:
            _hide_sidecars(out, hide=False)


# ---- decoded-data cache ------------------------------------------------


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty decoded-data cache for one test (restored afterwards)."""
    monkeypatch.setattr(docstore, "_DATA_CACHE", OrderedDict())
    monkeypatch.setattr(docstore, "_data_bytes", 0)


def _count_reads(monkeypatch):
    """Count parquet handle opens on the lookup path (each cache miss
    opens one)."""
    n = {"reads": 0}
    real = docstore._thread_pf

    def counting(path):
        n["reads"] += 1
        return real(path)
    monkeypatch.setattr(docstore, "_thread_pf", counting)
    return n


def _ids(index_dir):
    files = glob.glob(os.path.join(index_dir, "shards", "shard-*",
                                   "docs", "*.parquet"))
    return sorted(pq.ParquetDataset(files).read(
        columns=["doc_id"])["doc_id"].to_pylist())


def test_cached_lookup_equals_uncached_multi_part(pages_dir, monkeypatch,
                                                  fresh_cache,
                                                  tmp_path_factory):
    """On a multi-part sidecar, a cold lookup (fills the cache), a warm
    one (served from it without a single parquet read) and the scan
    fallback all return the same rows, for pruned and full columns."""
    monkeypatch.setattr(docstore, "PART_TARGET_ROWS", 64)
    monkeypatch.setattr(docstore, "SCAN_CHUNK", 1)
    src = str(tmp_path_factory.mktemp("ds_cache_mp_src"))
    build.build_index(pages_dir, src, build.BuildParams(num_shards=2))
    d = str(tmp_path_factory.mktemp("ds_cache_mp"))
    build.compact_index(src, d, target_shards=1)
    assert len(docstore._resolve_parts(
        os.path.join(d, "shards", "shard-0000"))) > 1
    ids = _ids(d)
    wanted = ids[::9] + [999_999_999_999]
    reads = _count_reads(monkeypatch)
    for columns in (["text"], None):
        cold = query.fetch_docs(d, wanted, columns=columns)
        assert reads["reads"] > 0
        reads["reads"] = 0
        warm = query.fetch_docs(d, wanted, columns=columns)
        assert reads["reads"] == 0  # every piece came from the cache
        _hide_sidecars(d)
        try:
            scan = query.fetch_docs(d, wanted, columns=columns)
        finally:
            _hide_sidecars(d, hide=False)
        assert cold == warm == scan
        assert set(warm) == set(ids[::9])
    # callers get copies: mutating a result must not reach the cache
    warm[ids[0]]["text"] = "mutated"
    assert query.fetch_docs(d, [ids[0]])[ids[0]]["text"] != "mutated"


def test_rewrite_after_warmup_falls_back(pages_dir, fresh_cache,
                                         tmp_path_factory):
    """Warm the cache, then rewrite a docs part shorter: the sidecar
    now points past the part's rows, so the lookup must report the
    staleness (None -> scan fallback) instead of serving the cached
    row of the old file."""
    d = str(tmp_path_factory.mktemp("ds_cache_rw"))
    build.build_index(pages_dir, d, build.BuildParams(num_shards=1))
    sd = os.path.join(d, "shards", "shard-0000")
    parts = sorted(glob.glob(os.path.join(sd, "docs", "*.parquet")))
    t = pq.read_table(parts[0])
    dropped = t["doc_id"][t.num_rows - 1].as_py()
    kept = t["doc_id"][0].as_py()
    warm = query.fetch_docs(d, [kept, dropped])
    assert set(warm) == {kept, dropped}
    assert docstore.lookup_shard_docs([sd], [dropped]) is not None
    pq.write_table(t.slice(0, t.num_rows - 1), parts[0])
    assert docstore.lookup_shard_docs([sd], [kept, dropped]) is None
    got = query.fetch_docs(d, [kept, dropped])
    assert kept in got and dropped not in got
    assert got[kept] == warm[kept]


def test_live_serve_never_snippets_deleted_doc(ray_session, pages_dir,
                                               fresh_cache,
                                               tmp_path_factory):
    """On a running ServeState, a doc whose snippet row is cached and
    which is then deleted never comes back from the snippet or fetch
    paths (tombstones are applied before any cache lookup)."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve_front import (
        ServeState,
    )
    d = str(tmp_path_factory.mktemp("ds_cache_del"))
    build.build_index(pages_dir, d, build.BuildParams(num_shards=2))
    state = ServeState(d, num_actors=1)
    try:
        req = {"op": "search", "query": "spark data join", "k": 5,
               "snippets": True}
        rows = state.handle(req)[0]["results"]
        assert rows and all("snippet" in r for r in rows)
        victim = rows[0]["doc_id"]
        assert any(k[0] == "row" for k in docstore._DATA_CACHE)
        build.delete_docs(d, [victim])
        for _ in range(2):
            again = state.handle(req)[0]["results"]
            for r in again:
                if r["doc_id"] == victim:
                    assert "snippet" not in r
            assert all("snippet" in r for r in again
                       if r["doc_id"] != victim)
            assert state.handle({"op": "fetch",
                                 "doc_id": victim})[0]["doc"] is None
    finally:
        state.shutdown()


def test_cache_respects_byte_cap(index_dir, doc_ids, monkeypatch,
                                 fresh_cache):
    """Fetching more than the cap holds at most the cap, and the
    accounting matches the entries actually held."""
    cap = 20_000
    monkeypatch.setattr(docstore, "_DATA_CAP", cap)
    want = query.fetch_docs(index_dir, doc_ids)
    assert sum(len(r["text"]) for r in want.values()) > 2 * cap
    for _ in range(2):
        assert query.fetch_docs(index_dir, doc_ids) == want
        held = sum(n for _, n in docstore._DATA_CACHE.values())
        assert docstore._data_bytes == held <= cap


def test_cache_concurrent_lookups_keep_accounting(index_dir, doc_ids,
                                                  monkeypatch, fresh_cache):
    """More lookup threads than cores against a small cap with a short
    switch interval: every result stays correct and the byte accounting
    still equals the entries held (a lost update would break it)."""
    import sys
    import threading
    monkeypatch.setattr(docstore, "_DATA_CAP", 20_000)
    want = query.fetch_docs(index_dir, doc_ids)
    errors: list = []

    def worker(seed: int):
        try:
            for i in range(15):
                ids = doc_ids[(seed + i) % 7::5]
                got = query.fetch_docs(index_dir, ids)
                if got != {d: want[d] for d in ids}:
                    errors.append((seed, i))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]
    held = sum(n for _, n in docstore._DATA_CACHE.values())
    assert docstore._data_bytes == held <= docstore._DATA_CAP
