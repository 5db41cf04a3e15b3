"""Incremental append: extend_index over new files must score identically
to a fresh build over the union (global df and avg_dl shift; stored
segments stay valid because block bounds are avg_dl-independent)."""

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
)


def _fmt(results):
    return [(r.doc_id, round(r.score, 6)) for r in results]


@pytest.fixture(scope="module")
def split_dirs(ray_session, pages_dir, tmp_path_factory):
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert len(files) >= 4
    half = len(files) // 2
    root = tmp_path_factory.mktemp("extend")

    d_base = str(root / "idx_base")
    m0 = build.build_index(files[:half], d_base,
                           build.BuildParams(num_shards=2, num_salts=4))
    m1 = build.extend_index(files[half:], d_base)

    d_full = str(root / "idx_full")
    build.build_index(files, d_full,
                      build.BuildParams(num_shards=2, num_salts=4))
    return d_base, d_full, m0, m1


def test_extend_updates_global_state(split_dirs):
    d_base, d_full, m0, m1 = split_dirs
    assert m1["n_shards"] == m0["n_shards"] + 2
    r_ext = query.IndexReader(d_base)
    r_full = query.IndexReader(d_full)
    assert r_ext.n_docs == r_full.n_docs
    assert abs(r_ext.avg_dl - r_full.avg_dl) < 1e-9
    assert r_ext._df == r_full._df, "global term dfs diverge after extend"


def test_extend_scores_equal_fresh_build(split_dirs):
    d_base, d_full, _, _ = split_dirs
    r_ext = query.IndexReader(d_base)
    r_full = query.IndexReader(d_full)
    for q in QUERY_SET:
        assert _fmt(r_ext.search_wand(q["query_text"], q["k"], q["mode"])) == \
            _fmt(r_full.search_wand(q["query_text"], q["k"], q["mode"])), \
            f"extend != fresh for q{q['query_id']}"
        assert _fmt(r_ext.search_exhaustive(q["query_text"], q["k"], q["mode"])) == \
            _fmt(r_full.search_exhaustive(q["query_text"], q["k"], q["mode"]))


def test_extend_does_not_rewrite_existing_segments(split_dirs):
    d_base, _, m0, _ = split_dirs
    # original shards keep their phase timings from the FIRST build run
    for sid in range(m0["n_shards"]):
        rec0 = m0["shards"][sid]
        seg = os.path.join(d_base, "shards", f"shard-{sid:04d}", "seg")
        assert os.path.exists(os.path.join(seg, "_SUCCESS"))
        assert rec0["n_postings"] > 0


def test_termdict_generation_grace(split_dirs):
    """The manifest is the commit point for a VERSIONED termdict; an extend
    keeps the previous generation's file (one-generation reader grace) and
    GCs older ones."""
    import json

    d_base, _, _, _ = split_dirs
    with open(os.path.join(d_base, "manifest.json")) as f:
        cur = json.load(f)["termdict_dir"]
    assert cur.startswith("termdict-") and os.path.exists(
        os.path.join(d_base, cur))
    tds = [f for f in os.listdir(d_base) if f.startswith("termdict-")]
    # base build + one extend: current + previous generation at most
    assert cur in tds and len(tds) <= 2


def test_extend_refuses_hash_version_mismatch(split_dirs):
    """Doc ids / salts derive from hash64; extending an index built under a
    different hash scheme would re-id every url (ADVICE r3) — refuse."""
    import json

    d_base, _, _, _ = split_dirs
    mf_path = os.path.join(d_base, "manifest.json")
    mf = json.loads(open(mf_path).read())
    orig = mf.get("hash_version")
    try:
        mf["hash_version"] = 1  # blake2b era
        open(mf_path, "w").write(json.dumps(mf))
        with pytest.raises(ValueError, match="hash_version"):
            build.extend_index([], d_base)
        del mf["hash_version"]  # legacy manifest with no key at all
        open(mf_path, "w").write(json.dumps(mf))
        with pytest.raises(ValueError, match="hash_version"):
            build.extend_index([], d_base)
    finally:
        mf["hash_version"] = orig
        open(mf_path, "w").write(json.dumps(mf))


def test_extend_keeps_current_sidecars(ray_session, pages_dir, tmp_path):
    """extend must not rebuild pre-existing shards' doc-store sidecars
    (their docs dirs are untouched): finalize cost scales with the new
    data.  Observable: the old shards' sidecar generation dirs survive
    the extend unchanged."""
    import glob as _glob
    import json as _json

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.state import (
        docstore,
    )

    files = sorted(_glob.glob(os.path.join(pages_dir, "*.parquet")))
    half = len(files) // 2
    d = str(tmp_path / "idx")
    build.build_index(files[:half], d,
                      build.BuildParams(num_shards=2, num_salts=2))

    def gens():
        out = {}
        for sd in sorted(_glob.glob(os.path.join(d, "shards", "shard-*"))):
            p = os.path.join(sd, docstore.DOCS_IDX_PTR)
            if os.path.exists(p):
                with open(p) as f:
                    out[os.path.basename(sd)] = _json.load(f)["dir"]
        return out

    before = gens()
    assert len(before) == 2
    build.extend_index(files[half:], d)
    after = gens()
    assert len(after) > len(before)  # new shards got sidecars
    for sid, gen in before.items():
        assert after[sid] == gen, f"{sid} sidecar was rebuilt"
    # and the manifest row count still covers every doc
    mf = query.IndexReader(d)
    assert mf.manifest["docs_idx"]["n_rows"] == mf.n_docs


_ONE_CPU_CHILD = """
import glob, os, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False, _temp_dir=sys.argv[3])
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import build
files = sorted(glob.glob(os.path.join(sys.argv[1], "*.parquet")))
half = len(files) // 2
build.build_index(files[:half], sys.argv[2],
                  build.BuildParams(num_shards=2, num_salts=4))
print("n_docs", build.extend_index(files[half:], sys.argv[2])["n_docs"],
      flush=True)
ray.shutdown()
"""


def test_build_and_extend_finish_at_one_cpu(pages_dir, index_dir, tmp_path):
    """At Ray num_cpus=1 the build's sort shuffle and its block merges
    must share the one CPU: build_index + extend_index finish, in their
    own Ray session in a child process, under a deadline, and index every
    page."""
    import json
    import shutil
    import signal
    import subprocess
    import sys
    import tempfile

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # Ray's socket paths must fit in 107 bytes: a short session dir
    ray_tmp = tempfile.mkdtemp(prefix="rd1", dir="/tmp")
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
               PYTHONPATH=os.pathsep.join(
                   [root] + ([os.environ["PYTHONPATH"]]
                             if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, pages_dir,
         str(tmp_path / "idx1cpu"), ray_tmp], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(ray_tmp, ignore_errors=True)
    assert out is not None, "build + extend did not finish within 180 s"
    assert proc.returncode == 0, out
    with open(os.path.join(index_dir, "manifest.json")) as f:
        want = json.load(f)["n_docs"]
    assert dict(line.split() for line in out.splitlines()) == \
        {"n_docs": str(want)}
