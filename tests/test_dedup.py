"""Dedup operator tests over a synthetic corpus with KNOWN duplicates
(the driver's documents table has none, so these fixtures create them)."""

import numpy as np
import pyarrow as pa
import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.stages import (
    dedup,
)

BASE = [
    "the quick brown fox jumps over the lazy dog near the river bank today",
    "a completely different document about distributed query engines and shuffles",
    "numpy vectorized kernels make batch processing fast and memory friendly",
    "posting lists compress well with delta gaps and variable length integers",
]


@pytest.fixture(scope="module")
def dup_ds(ray_session):
    import ray.data as rd
    rows = []
    did = 0
    for i, text in enumerate(BASE):
        rows.append({"doc_id": did, "text": text}); did += 1
        # exact duplicate of every base doc
        rows.append({"doc_id": did, "text": text}); did += 1
        # near-duplicate: change the last word
        rows.append({"doc_id": did, "text": text.rsplit(" ", 1)[0] + " changed"})
        did += 1
    # unrelated singletons
    rows.append({"doc_id": did, "text": "orphan text one with unique words alpha beta"}); did += 1
    rows.append({"doc_id": did, "text": "another loner gamma delta epsilon entirely"}); did += 1
    return rd.from_items(rows)


def test_exact_dedup(dup_ds):
    out = dedup.exact_dedup(dup_ds).to_pandas()
    # 4 exact-dup pairs collapse -> 4 + 4 near + 2 singles = 10 survivors
    assert len(out) == 10
    # survivor is the min doc_id of each exact pair (0,3,6,9)
    for base_id in (0, 3, 6, 9):
        assert base_id in set(out["doc_id"])
        assert base_id + 1 not in set(out["doc_id"])


def test_exact_dedup_idempotent(dup_ds):
    once = dedup.exact_dedup(dup_ds)
    twice = dedup.exact_dedup(once).to_pandas()
    assert sorted(twice["doc_id"]) == sorted(dedup.exact_dedup(dup_ds).to_pandas()["doc_id"])


def test_minhash_groups(dup_ds):
    t = dedup.minhash_dedup_groups(dup_ds, threshold=0.5, num_perm=128,
                                   num_bands=32, shingle_k=3)
    groups: dict[int, list[int]] = {}
    for d, g in zip(t["doc_id"].to_pylist(), t["group_id"].to_pylist()):
        groups.setdefault(g, []).append(d)
    # each base triplet (exact dup + near dup) should land in one group
    for base_id in (0, 3, 6, 9):
        assert base_id in groups, f"base {base_id} found no group"
        members = set(groups[base_id])
        assert base_id + 1 in members  # exact dup always caught
    # singletons never grouped
    all_grouped = {d for mem in groups.values() for d in mem}
    assert 12 not in all_grouped and 13 not in all_grouped


def test_minhash_hot_bucket_cap(ray_session):
    """A corpus-wide identical doc makes every band bucket hot; with
    max_bucket below the corpus size those buckets are dropped, the drop
    count is stamped in the result metadata, and no B^2 blow-up happens."""
    import ray.data as rd
    rows = [{"doc_id": i, "text": BASE[0]} for i in range(50)]
    ds = rd.from_items(rows)
    t = dedup.minhash_verified_pairs(ds, threshold=0.5, num_bands=8,
                                     max_bucket=10)
    md = t.schema.metadata
    assert int(md[b"dropped_hot_buckets"]) > 0
    assert t.num_rows == 0  # every bucket hot -> no pairs emitted
    # with the cap lifted the same corpus yields all 50*49/2 pairs
    t2 = dedup.minhash_verified_pairs(ds, threshold=0.5, num_bands=8,
                                      max_bucket=4096)
    assert t2.num_rows == 50 * 49 // 2
    assert int(t2.schema.metadata[b"dropped_hot_buckets"]) == 0


def test_simhash_pairs(dup_ds):
    t = dedup.simhash_dedup_pairs(dup_ds, max_hamming=6)
    pairs = set(zip(t["a"].to_pylist(), t["b"].to_pylist()))
    for base_id in (0, 3, 6, 9):
        assert (base_id, base_id + 1) in pairs  # exact dups: hamming 0
    hams = dict(zip(zip(t["a"].to_pylist(), t["b"].to_pylist()),
                    t["hamming"].to_pylist()))
    assert hams[(0, 1)] == 0


def test_ngram_jaccard_pairs(dup_ds):
    t = dedup.ngram_jaccard_pairs(dup_ds, threshold=0.5, k=3, max_df=64)
    pairs = {(a, b): j for a, b, j in zip(t["a"].to_pylist(),
                                          t["b"].to_pylist(),
                                          t["jaccard_m"].to_pylist())}
    for base_id in (0, 3, 6, 9):
        assert pairs.get((base_id, base_id + 1)) == 1000  # identical sets
        assert (base_id, base_id + 2) in pairs  # near dup above 0.5
        assert pairs[(base_id, base_id + 2)] < 1000


def test_embedding_dup_pairs(ray_session):
    import ray.data as rd
    rng = np.random.RandomState(0)
    base = rng.randn(6, 16).astype(np.float32)
    base[1] = base[0] + 0.01 * rng.randn(16).astype(np.float32)  # near-dup of 0
    ds = rd.from_items([
        {"vec_id": i, "embedding": base[i].tolist()} for i in range(6)])
    t = dedup.embedding_dup_pairs(ds, threshold=0.95)
    pairs = set(zip(t["a"].to_pylist(), t["b"].to_pylist()))
    assert (0, 1) in pairs
    assert all(a == 0 and b == 1 for a, b in pairs)  # random others unrelated


def test_tile_join_matches_brute_multitile(ray_session):
    """Exact tile join (forced multi-tile) == local brute reference, at 10x
    the unit-fixture scale — the materialized pair volume must be
    output-bounded, not O(n^2)."""
    import ray.data as rd
    rng = np.random.RandomState(7)
    n, d = 600, 32
    base = rng.standard_normal((n, d))
    for i in range(30):  # plant near-dups across future tile boundaries
        j = (i * 37) % n
        k = (j + n // 2) % n
        base[k] = base[j] + 0.05 * rng.standard_normal(d)
    ds = rd.from_items([
        {"vec_id": i, "embedding": base[i].tolist()} for i in range(n)])
    got = dedup.embedding_dup_pairs(ds, threshold=0.9, tile_rows=64)
    bn = base / np.linalg.norm(base, axis=1, keepdims=True)
    cos = bn @ bn.T
    iu = np.triu_indices(n, 1)
    mask = cos[iu] >= 0.9
    want = set(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
    got_pairs = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    assert got_pairs == want and len(want) >= 25
    assert got.num_rows < n * (n - 1) // 4  # output-bounded materialization


def test_lsh_dup_pairs_recall_and_exact_verify(ray_session):
    """LSH band path: every emitted pair is EXACTLY verified (no false
    positives) and recall at cos>=0.9 matches the quantified bound."""
    import ray.data as rd
    rng = np.random.RandomState(3)
    n, d = 1000, 64
    base = rng.standard_normal((n, d))
    for i in range(40):
        base[2 * i + 1] = base[2 * i] + 0.25 * rng.standard_normal(d)
    bn = base / np.linalg.norm(base, axis=1, keepdims=True)
    cos = bn @ bn.T
    iu = np.triu_indices(n, 1)
    mask = cos[iu] >= 0.9
    want = set(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
    ds = rd.from_items([
        {"vec_id": i, "embedding": base[i].tolist()} for i in range(n)])
    got = dedup.embedding_dup_pairs_lsh(ds, threshold=0.9)
    got_pairs = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    assert got_pairs <= want                       # exact in-bucket verify
    assert len(want - got_pairs) <= max(1, len(want) // 20)  # >=95% recall


def test_simhash_no_driver_materialization(dup_ds):
    """Band-bucket verification returns identical pairs to a brute hamming
    scan (the round-1 driver-side sim_map is gone; parity is the contract)."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions import (
        textstats as ts,
    )
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.tokenize import (
        tokenize_filtered,
    )
    rows = dup_ds.to_pandas()
    sims = {int(r.doc_id): ts.simhash64(tokenize_filtered(r.text)) & ((1 << 63) - 1)
            for r in rows.itertuples()}
    brute = set()
    ids = sorted(sims)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if ts.hamming64(sims[a], sims[b]) <= 6:
                brute.add((a, b))
    t = dedup.simhash_dedup_pairs(dup_ds, max_hamming=6)
    got = set(zip(t["a"].to_pylist(), t["b"].to_pylist()))
    # banding finds a SUBSET (pigeonhole guarantees hamming<=3; 6 is used
    # to also catch the near-dup fixtures) — but every pair found must be
    # hamming-correct and include all hamming<=3 pairs
    assert got <= brute
    for a, b in brute:
        if ts.hamming64(sims[a], sims[b]) <= 3:
            assert (a, b) in got


def test_lsh_rejects_negative_ids(ray_session):
    """ADVICE r4: the hot-bucket count rides in-band as an (a,b)=(-1,-1)
    sentinel row — negative caller ids would collide with it, so both LSH
    entries refuse them loudly instead of silently dropping pairs."""
    import ray.data as rd
    docs = rd.from_items([{"doc_id": -5, "text": "alpha beta gamma " * 10},
                          {"doc_id": 3, "text": "alpha beta gamma " * 10}])
    with pytest.raises(Exception, match="non-negative"):
        dedup.minhash_verified_pairs(docs, num_perm=16, num_bands=4)
    vecs = rd.from_items([{"vec_id": -1, "embedding": [1.0, 0.0, 0.0]},
                          {"vec_id": 2, "embedding": [1.0, 0.0, 0.0]}])
    with pytest.raises(Exception, match="non-negative"):
        dedup.embedding_dup_pairs_lsh(vecs, num_bands=4, bits_per_band=2)


_TWO_CPU_CHILD = """
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False, _temp_dir=sys.argv[2])
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import queries
for name in ("q_embdup_lsh", "q_dedup_minhash"):
    print(name, getattr(queries, name)(sys.argv[1]).num_rows, flush=True)
ray.shutdown()
"""


def test_band_pools_finish_at_two_cpus():
    """At Ray num_cpus=2 the MinHash and hyperplane-LSH band actor pools
    must leave a CPU to the read_parquet tasks that feed them.  With a
    pool minimum of 2 the two actors held both CPUs, the reads never ran
    and both jobs waited forever; so this runs in its own Ray session, in
    a child process, under a deadline."""
    import os
    import shutil
    import signal
    import subprocess
    import sys
    import tempfile

    from conftest import SF_DIR
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # Ray's socket paths must fit in 107 bytes: a short session dir
    ray_tmp = tempfile.mkdtemp(prefix="rdd", dir="/tmp")
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
               PYTHONPATH=os.pathsep.join(
                   [root] + ([os.environ["PYTHONPATH"]]
                             if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.Popen(
        [sys.executable, "-c", _TWO_CPU_CHILD, SF_DIR, ray_tmp], cwd=root,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(ray_tmp, ignore_errors=True)
    assert out is not None, "band pools did not finish within 120 s"
    rows = dict(line.split() for line in out.splitlines())
    assert proc.returncode == 0, out
    assert int(rows["q_embdup_lsh"]) > 0 and int(rows["q_dedup_minhash"]) > 0
