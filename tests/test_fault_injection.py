"""Fault injection: a Ray worker dies MID-BUILD (hard ``os._exit`` inside
the docs-checkpoint tee, after its side effects landed) and the task retry
must leave the index byte-equivalent to a never-crashed build.

This is the claim `build.DocsCheckpointWriter` makes in its docstring —
content-addressed part files make a retried task overwrite its own earlier
output instead of duplicating rows — exercised by an ACTUAL worker crash
(Ray system failure -> automatic task retry), not a simulated re-run.
"""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    build,
    query,
)


def _fmt(results):
    return [(r.doc_id, round(r.score, 6)) for r in results]


def _make_kill_once_writer(marker: str):
    """Docs tee that hard-kills its worker process exactly once across the
    whole cluster (marker file created with O_EXCL), AFTER the batch's
    checkpoint parts were written — the nastiest retry case: side effects
    persisted, then the task 'fails'.  Defined dynamically so cloudpickle
    ships the class BY VALUE (replacement workers can't import the test
    module by name)."""

    class _KillOnceWriter(build.DocsCheckpointWriter):
        def __call__(self, batch):
            out = super().__call__(batch)  # side effects land pre-crash
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                os._exit(1)  # worker death -> system failure -> task retry
            except FileExistsError:
                pass
            return out

    return _KillOnceWriter


def _docs_doc_ids(index_dir: str):
    ids = []
    for f in sorted(glob.glob(
            os.path.join(index_dir, "shards", "shard-*", "docs", "*.parquet"))):
        ids.extend(pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist())
    return sorted(ids)


def test_worker_crash_mid_build_retries_clean(ray_session, pages_dir,
                                              tmp_path, monkeypatch):
    params = build.BuildParams(num_shards=2, num_salts=2)

    d_clean = str(tmp_path / "idx_clean")
    build.build_index(pages_dir, d_clean, params)
    want = _fmt(query.IndexReader(d_clean).search_wand("spark data join", 10))
    want_ids = _docs_doc_ids(d_clean)
    assert len(want_ids) == len(set(want_ids)) > 0

    marker = str(tmp_path / "killed.marker")
    monkeypatch.setattr(build, "DocsCheckpointWriter",
                        _make_kill_once_writer(marker))
    d_fault = str(tmp_path / "idx_fault")
    build.build_index(pages_dir, d_fault, params)
    assert os.path.exists(marker), "fault was never injected"

    # docs checkpoint: same id multiset (no duplicated rows from the
    # pre-crash attempt's part files), and search is rank+score identical
    assert _docs_doc_ids(d_fault) == want_ids
    got = _fmt(query.IndexReader(d_fault).search_wand("spark data join", 10))
    assert got == want


def _within(seconds: float, fn):
    """``fn()``'s result, or fail the test if it has not returned within
    ``seconds`` (a daemon thread, so a hung call cannot hang the run)."""
    import threading
    out: list = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(seconds)
    assert out, f"no answer within {seconds} s"
    return out[0]


def test_killed_shard_actor_errors_not_hangs(ray_session, index_dir):
    """A shard actor killed under a live ServeState: the next searches
    come back at once as ``{"error": ...}`` saying a shard actor died,
    instead of waiting on the dead actor or naming the graph's in-flight
    limit, and shutdown() still returns."""
    import pytest
    import ray

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve_front import (
        ServeState,
    )
    req = {"op": "search", "query": "spark data join", "k": 5}
    state = ServeState(index_dir, num_actors=2)
    try:
        resp, _ = _within(60, lambda: state.handle(req))
        assert resp["results"]
        victim = state.searcher.actors[-1]
        ray.kill(victim)
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(victim.stats.remote(), timeout=30)  # the kill landed
        for _ in range(2):
            resp, _ = _within(10, lambda: state.handle(req))
            assert "a shard actor died" in resp.get("error", ""), resp
    finally:
        _within(30, state.shutdown)
