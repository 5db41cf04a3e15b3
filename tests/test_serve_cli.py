"""End-to-end test of the `serve` JSON front (cli.py): search + fetch +
enrich through the one curlable-analog entry point, driven in-process
with fake stdin/stdout (main() reuses the session Ray and never shuts it
down)."""

import io
import json

import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray import (
    cli,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    enrich,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def analytics_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("an") / "analytics")
    enrich.build_analytics(SF, d, n_buckets=8)
    return d


def _drive(index_dir, analytics_dir, requests, monkeypatch):
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    stdout = io.StringIO()
    monkeypatch.setattr("sys.stdin", stdin)
    monkeypatch.setattr("sys.stdout", stdout)
    rc = cli.main(["serve", "--index", index_dir, "--actors", "2",
                   "--analytics", analytics_dir])
    assert rc == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def test_serve_front_search_fetch_enrich(ray_session, index_dir,
                                         analytics_dir, monkeypatch):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.query import (
        IndexReader,
    )
    want = [(h.doc_id, round(h.score, 6))
            for h in IndexReader(index_dir).search("spark data join", 5)]

    # filtered search through the front: allow only the unfiltered hits at
    # even positions — the filtered result must be exactly those, same
    # scores (global stats)
    allowed = [d for d, _ in want[::2]]
    want_f = [(d, s) for d, s in want if d in set(allowed)]

    out = _drive(index_dir, analytics_dir, [
        {"op": "search", "query": "spark data join", "k": 5},
        {"op": "fetch", "doc_id": want[0][0]},
        {"op": "enrich", "ids": [0, 10**9]},
        {"op": "nope"},
        "not even an object",
        {"op": "stats"},
        {"op": "register_filter", "filter_id": "f1", "allowed_ids": allowed},
        {"op": "search", "query": "spark data join", "k": 5,
         "filter_id": "f1"},
        {"op": "search", "query": "spark data join", "k": 5,
         "filter_id": "unregistered"},
        {"op": "drop_filter", "filter_id": "f1"},
        {"op": "quit"},
    ], monkeypatch)

    assert [(r["doc_id"], r["score"]) for r in out[0]["results"]] == want
    assert out[1]["doc"]["doc_id"] == want[0][0]
    rows = out[2]["results"]
    assert rows[0]["event_id"] == 0 and rows[0]["fwci"] is not None
    assert rows[1]["fwci"] is None  # missing id -> null analytics
    assert "error" in out[3]
    assert "error" in out[4]
    assert len(out[5]["actors"]) == 2
    # the actors' shard lists partition the manifest's shards
    with open(f"{index_dir}/manifest.json") as f:
        n_shards = json.load(f)["n_shards"]
    shards = sorted(s for a in out[5]["actors"] for s in a["shards"])
    assert shards == [f"shard-{i:04d}" for i in range(n_shards)]
    assert out[6]["ok"] and out[6]["allowed_docs"] == len(allowed)
    assert [(r["doc_id"], r["score"]) for r in out[7]["results"]] == want_f
    assert "error" in out[8]  # unregistered filter fails loud
    assert out[9] == {"ok": True}
    assert out[10] == {"ok": True}


def test_serve_front_exclude_and_snippets(ray_session, index_dir,
                                          analytics_dir, monkeypatch):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.query import (
        IndexReader,
    )
    r = IndexReader(index_dir)
    want_not = [(h.doc_id, round(h.score, 6))
                for h in r.search("spark data join", 5, exclude="window")]
    out = _drive(index_dir, analytics_dir, [
        {"op": "search", "query": "spark data join", "k": 5,
         "exclude": "window"},
        {"op": "search", "query": "spark data join", "k": 3,
         "snippets": True},
        {"op": "quit"},
    ], monkeypatch)
    assert [(x["doc_id"], x["score"]) for x in out[0]["results"]] == want_not
    rows = out[1]["results"]
    assert len(rows) == 3
    for row in rows:
        assert row["snippet"]
        assert row["n_terms"] >= 1  # hits contain at least one query term


def test_search_snippets_one_batched_fetch(ray_session, index_dir,
                                           monkeypatch):
    """``search --snippets`` prints exactly the rows a per-hit fetch_doc
    + make_snippet would, from ONE fetch_docs call for all hits (the
    manifest and tombstones are read once, not once per hit)."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.snippet import (
        make_snippet,
    )
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
        query,
    )
    qt = "spark data join"
    want = []
    for rank, h in enumerate(query.IndexReader(index_dir).search(qt, 5), 1):
        row = {"rank": rank, "doc_id": h.doc_id, "score": round(h.score, 6)}
        doc = query.fetch_doc(index_dir, h.doc_id)
        if doc is not None:
            row.update(make_snippet(doc.get("text", ""), qt))
        want.append(row)

    calls = {"fetch_docs": 0}
    real = query.fetch_docs

    def counting(*a, **kw):
        calls["fetch_docs"] += 1
        return real(*a, **kw)
    monkeypatch.setattr(query, "fetch_docs", counting)
    stdout = io.StringIO()
    monkeypatch.setattr("sys.stdout", stdout)
    assert cli.main(["search", "--index", index_dir, "--query", qt,
                     "--k", "5", "--snippets"]) == 0
    got = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert got == want and all("snippet" in r for r in got)
    assert calls["fetch_docs"] == 1
