"""Similarity search + distributed query serving tests."""

import numpy as np
import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.stages import (
    similarity,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd
    return rd.read_parquet(f"{SF}/embeddings.parquet",
                           columns=["vec_id", "embedding"])


@pytest.fixture(scope="module")
def emb_mat():
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    m = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    return ids, m


def _numpy_oracle_topk(ids, m, q, k):
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    cos = mn @ qn
    order = np.lexsort((ids, -cos))[:k]
    return [(int(ids[i]), round(float(cos[i]), 6)) for i in order]


def test_knn_brute_matches_numpy(emb_ds, emb_mat):
    ids, m = emb_mat
    queries = m[:2]
    t = similarity.knn_brute(emb_ds, queries, k=10)
    got = {}
    for qid, rank, vid in zip(t["query_id"].to_pylist(), t["rank"].to_pylist(),
                              t["vec_id"].to_pylist()):
        got.setdefault(qid, []).append((rank, vid))
    for qi in (0, 1):
        want = [v for v, _ in _numpy_oracle_topk(ids, m, queries[qi], 10)]
        assert [v for _, v in sorted(got[qi])] == want


def test_knn_ivf_full_probe_equals_brute(emb_ds, emb_mat):
    ids, m = emb_mat
    queries = m[:2]
    brute = similarity.knn_brute(emb_ds, queries, k=5)
    ivf = similarity.knn_ivf(emb_ds, queries, k=5, nlist=4, nprobe=4)
    assert brute.to_pydict() == ivf.to_pydict()  # nprobe == nlist -> exact


def test_knn_ivf_partial_probe_recall(emb_ds, emb_mat):
    ids, m = emb_mat
    queries = m[:2]
    ivf = similarity.knn_ivf(emb_ds, queries, k=5, nlist=8, nprobe=2)
    # the probed cell containing the query itself is always scanned ->
    # rank-1 hit must be the query vector (cos 1.0)
    first = {q: v for q, r, v in zip(ivf["query_id"].to_pylist(),
                                     ivf["rank"].to_pylist(),
                                     ivf["vec_id"].to_pylist()) if r == 1}
    assert first[0] == int(ids[0]) and first[1] == int(ids[1])


def test_actor_pool_size_rule():
    """Never more shard actors than requested, than shards, or than the
    CPUs Ray was given; never fewer than one."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve import (
        actor_pool_size,
    )
    assert actor_pool_size(2, 2, 1) == 1   # default pool on one CPU
    assert actor_pool_size(8, 16, 4) == 4  # explicit request > CPUs
    assert actor_pool_size(8, 2, 32) == 2  # request > shards
    assert actor_pool_size(3, 8, 8) == 3   # within both caps
    assert actor_pool_size(0, 2, 4) == 1
    assert actor_pool_size(2, 2, 0) == 1


def test_distributed_searcher_matches_local(ray_session, index_dir):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
        query,
        serve,
    )
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
        QUERY_SET,
    )
    local = query.IndexReader(index_dir)
    dist = serve.DistributedSearcher(index_dir, num_actors=2)
    try:
        for q in QUERY_SET:
            want = [(r.doc_id, round(r.score, 6))
                    for r in local.search_wand(q["query_text"], q["k"], q["mode"])]
            got = [(r.doc_id, round(r.score, 6))
                   for r in dist.search(q["query_text"], q["k"], q["mode"])]
            assert got == want, f"distributed != local for q{q['query_id']}"
    finally:
        dist.shutdown()


def test_search_many_matches_per_query(ray_session, index_dir):
    """Bulk search (one batched call per actor) must be rank-identical
    to per-query search — same merge, amortized round-trips."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
        serve,
    )
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
        QUERY_SET,
    )
    dist = serve.DistributedSearcher(index_dir, num_actors=2)
    try:
        qs = [{"query_text": q["query_text"], "k": q["k"],
               "mode": q["mode"]} for q in QUERY_SET]
        bulk = dist.search_many(qs)
        assert len(bulk) == len(qs)
        for q, got in zip(QUERY_SET, bulk):
            want = dist.search(q["query_text"], q["k"], q["mode"])
            assert [(r.doc_id, round(r.score, 6)) for r in got] == \
                   [(r.doc_id, round(r.score, 6)) for r in want], \
                q["query_id"]
    finally:
        dist.shutdown()


def test_search_batched_concurrent_parity(ray_session, pos_index_dir):
    """Eight request threads on ONE searcher mix search, bulk search,
    explain, phrase search, suggest and a search on an unregistered
    filter.  Requests that queue behind a running graph execution are
    batched into the next one; every answer must equal the serial one
    (the bad filter fails only its own request), and each actor's term
    cache, budgeted to evict, must stay inside its budget."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    import pytest
    import ray

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
        serve,
    )
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
        QUERY_SET,
    )
    dist = serve.DistributedSearcher(pos_index_dir, num_actors=2)
    try:
        # the graph compiles on first use, so its actors can still be
        # swapped for ones with a budget small enough to evict
        shards = [ray.get(a.stats.remote())["shards"] for a in dist.actors]
        for a in dist.actors:
            ray.kill(a)
        dist.actors = [serve.QueryShardActor.remote(
            pos_index_dir, names, cache_postings_budget=2_000)
            for names in shards]

        def many(text, k, mode):
            return dist.search_many([{"query_text": text, "k": k,
                                      "mode": mode}] * 2)[1]

        def bad_filter(text):
            try:
                return dist.search(text, 5, filter_id="never-registered")
            except KeyError as exc:
                return type(exc).__name__

        ops = {"search": dist.search, "many": many, "bad": bad_filter,
               "explain": dist.explain, "phrase": dist.search_phrase,
               "suggest": dist.suggest}
        reqs = [(op, q["query_text"], q["k"], q["mode"])
                for q in QUERY_SET for op in ("search", "many")]
        reqs += [("bad", "spark data join"), ("bad", "data")]
        top = [h.doc_id for h in dist.search("spark data join", 4)]
        reqs += [("explain", "spark data join", doc) for doc in top]
        reqs += [("phrase", "sort merge", 10, 0),
                 ("phrase", "spark join", 10, 3)]
        reqs += [("suggest", p, 5) for p in ("da", "sp", "jo")]

        def one(req):
            got = ops[req[0]](*req[1:])
            if req[0] in ("search", "many", "phrase"):
                got = [(r.doc_id, round(r.score, 6)) for r in got]
            return got

        want = [one(r) for r in reqs]
        queued, execute = [], dist._execute
        dist._execute = lambda: (queued.append(len(dist._queue)), execute())
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads more often
        try:
            with ThreadPoolExecutor(8) as ex:
                for _ in range(3):
                    assert list(ex.map(one, reqs, timeout=120)) == want
        finally:
            sys.setswitchinterval(switch)
        assert max(queued) > 1  # some executions carried several requests
        for st in ray.get([a.stats.remote() for a in dist.actors]):
            tc = st["term_cache"]
            assert tc["postings"] <= tc["budget"] and tc["evictions"] > 0
    finally:
        dist.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        dist.search("data", 5)


def test_distributed_filtered_search(ray_session, index_dir):
    """register_filter broadcasts once; filtered distributed top-k equals
    the single-reader filtered top-k; unregistered filter ids fail loud."""
    import numpy as np
    import pytest as _pytest

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
        query,
        serve,
    )
    local = query.IndexReader(index_dir)
    allowed = local._doc_ids[::3]
    mask = local.make_doc_mask(allowed)
    dist = serve.DistributedSearcher(index_dir, num_actors=2)
    try:
        n = dist.register_filter("every3rd", allowed)
        assert n == int(mask.sum())
        for qtext in ("spark data join", "vector hash part"):
            want = [(r.doc_id, round(r.score, 6))
                    for r in local.search_wand(qtext, 10, mask=mask)]
            got = [(r.doc_id, round(r.score, 6))
                   for r in dist.search(qtext, 10, filter_id="every3rd")]
            assert got == want
        with _pytest.raises(Exception):
            dist.search("spark", 10, filter_id="nope")
        dist.drop_filter("every3rd")
        with _pytest.raises(Exception):
            dist.search("spark", 10, filter_id="every3rd")
    finally:
        dist.shutdown()


def test_embed_stage_deterministic(ray_session):
    import pyarrow as pa

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.stages.embed import (
        EMBED_DIM,
        EmbedDocs,
    )
    b = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["hello world engine", ""], pa.string())})
    e1 = EmbedDocs()(b)
    e2 = EmbedDocs()(b)
    assert e1.equals(e2)
    v = np.asarray(e1["embedding"][0].as_py())
    assert v.size == EMBED_DIM and abs(np.linalg.norm(v) - 1.0) < 1e-5


def test_ivf_index_persist_and_prune(ray_session, emb_ds, emb_mat, tmp_path):
    """build_ivf writes cell-partitioned parquet + manifest; ivf_search
    reuses the index without rebuilding and touches only probed cell dirs."""
    import os
    ids, m = emb_mat
    idx = str(tmp_path / "ivf")
    man = similarity.build_ivf(emb_ds, idx, nlist=8)
    assert os.path.exists(os.path.join(idx, "ivf_manifest.json"))
    cell_dirs = [d for d in os.listdir(os.path.join(idx, "cells"))
                 if d.startswith("cell=")]
    assert 1 < len(cell_dirs) <= 8
    # row conservation across partitions
    import pyarrow.parquet as pq
    total = sum(pq.read_table(os.path.join(idx, "cells", d)).num_rows
                for d in cell_dirs)
    assert total == emb_ds.count()
    # search from the persisted index only (no Dataset arg)
    out = similarity.ivf_search(idx, m[:2], k=5, nprobe=8)
    brute = similarity.knn_brute(emb_ds, m[:2], k=5)
    assert out.to_pydict() == brute.to_pydict()  # full probe == exact


def test_ivf_pq_shrinks_and_reranks_exact(ray_session, emb_ds, emb_mat,
                                          tmp_path):
    """PQ cells hold uint8 codes: >=4x smaller on disk than raw-vector
    cells; with full probe + a shortlist covering the corpus the exact
    re-rank reproduces brute-force results exactly."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd
    ids, m = emb_mat
    raw_idx = str(tmp_path / "ivf_raw")
    pq_idx = str(tmp_path / "ivf_pq")
    # x16 corpus so per-file parquet footer overhead (dominant at 500
    # rows) amortizes and the on-disk ratio reflects the column payloads
    big = rd.read_parquet(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"]) \
        .union(*[rd.read_parquet(f"{SF}/embeddings.parquet",
                                 columns=["vec_id", "embedding"])
                 for _ in range(15)])
    similarity.build_ivf(big, raw_idx, nlist=8)
    man = similarity.build_ivf(big, pq_idx, nlist=8, pq_m=8)
    assert man["pq"]["m"] == 8 and man["pq"]["ks"] <= 256

    def tree_size(d):
        return sum(os.path.getsize(os.path.join(r, f))
                   for r, _, fs in os.walk(d) for f in fs)

    raw_sz = tree_size(os.path.join(raw_idx, "cells"))
    pq_sz = tree_size(os.path.join(pq_idx, "cells"))
    assert pq_sz * 4 <= raw_sz, (pq_sz, raw_sz)
    # raw store exists for re-rank and conserves every row
    total = sum(pq.read_table(os.path.join(pq_idx, "raw", d)).num_rows
                for d in os.listdir(os.path.join(pq_idx, "raw")))
    assert total == 16 * 500
    # exactness: a fresh single-copy PQ index, full probe + corpus-wide
    # shortlist -> the exact re-rank reproduces brute force
    one_idx = str(tmp_path / "ivf_pq_one")
    similarity.build_ivf(emb_ds, one_idx, nlist=8, pq_m=8)
    n = emb_ds.count()

    brute = similarity.knn_brute(emb_ds, m[:2], k=5)
    out = similarity.ivf_search(one_idx, m[:2], k=5, nprobe=8, rerank=n)
    assert out.to_pydict() == brute.to_pydict()


def test_ivf_pq_default_rerank_recall(ray_session, emb_ds, emb_mat,
                                      tmp_path):
    """Default shortlist (4k) with full probe: ADC is approximate, but the
    exact re-rank must put the query vector itself at rank 1 and recall@5
    vs brute should be high on this fixture."""
    ids, m = emb_mat
    idx = str(tmp_path / "ivf_pq2")
    queries = m[:4]
    out = similarity.knn_ivf(emb_ds, queries, k=5, nlist=8, nprobe=8,
                             index_dir=idx, pq_m=8)
    brute = similarity.knn_brute(emb_ds, queries, k=5)

    def by_q(t):
        d = {}
        for qid, r, v in zip(t["query_id"].to_pylist(),
                             t["rank"].to_pylist(), t["vec_id"].to_pylist()):
            d.setdefault(qid, set()).add(v)
            if r == 1:
                d.setdefault((qid, "first"), v)
        return d

    g, b = by_q(out), by_q(brute)
    hits = tot = 0
    for qi in range(4):
        assert g[(qi, "first")] == int(ids[qi])  # self is always rank 1
        hits += len(g[qi] & b[qi]); tot += len(b[qi])
    assert hits / tot >= 0.8, (hits, tot)


def test_device_passthrough_and_gpu_plumbing(ray_session):
    """Reference ST1 picks a device per task; the actor pools plumb it:
    constructor receives the device, and embed_docs forwards num_gpus to
    map_batches (0 here — no GPU in this sandbox, the parameter path is
    what's under test)."""
    import pandas as pd
    import ray.data as rd

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.stages.embed import (
        EmbedDocs,
        embed_docs,
    )
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.stages.multimodal import (
        DecodeMedia,
    )
    assert EmbedDocs(device="cuda:0").device == "cuda:0"
    assert EmbedDocs().device == "cpu"          # no GPU framework here
    assert DecodeMedia(device="cuda:1").device == "cuda:1"

    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2],
                                      "text": ["alpha beta", "gamma"]}))
    out = embed_docs(ds, num_gpus=0, device="cpu", concurrency=1).to_pandas()
    assert len(out) == 2 and len(out["embedding"][0]) == 64
