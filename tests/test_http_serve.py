"""End-to-end test of the HTTP serving front (pipelines/serve_front.py):
REAL HTTP requests (urllib against an ephemeral-port ThreadingHTTPServer)
for search + paper fetch + enrich + filters — the reference's FastAPI
surface (api/combined.py:159-278, api/enrich.py:208-240) over stdlib
http.server."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    enrich,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.serve_front import (
    ServeState,
    make_server,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def analytics_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("an") / "analytics")
    enrich.build_analytics(SF, d, n_buckets=8)
    return d


@pytest.fixture(scope="module")
def http_base(ray_session, index_dir, analytics_dir):
    state = ServeState(index_dir, num_actors=2, analytics_dir=analytics_dir)
    server = make_server(state, port=0)
    host, port = server.server_address[:2]
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    state.shutdown()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as r:
        return r.status, json.loads(r.read())


def _send(base, path, body, method="POST"):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.status, json.loads(r.read())


def test_root_health(http_base):
    code, obj = _get(http_base, "/")
    assert code == 200 and obj["ok"] and obj["n_docs"] > 0


def test_post_search_matches_reader(http_base, index_dir):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.query import (
        IndexReader,
    )
    want = [(h.doc_id, round(h.score, 6))
            for h in IndexReader(index_dir).search("spark data join", 5)]
    code, obj = _send(http_base, "/search",
                      {"query": "spark data join", "k": 5})
    assert code == 200
    got = [(r["doc_id"], r["score"]) for r in obj["results"]]
    assert got == want
    # reference body shape (query_text / top_k) answers identically
    code, obj2 = _send(http_base, "/search",
                       {"query_text": "spark data join", "top_k": 5})
    assert code == 200 and obj2["results"] == obj["results"]
    # GET query-string form too
    code, obj3 = _get(http_base, "/search?q=spark+data+join&k=5")
    assert code == 200 and obj3["results"] == obj["results"]


def test_search_many_matches_search(http_base):
    """POST /search_many: bulk replay answers rank-identical to N
    individual /search requests."""
    queries = [{"query": "spark data join", "k": 5},
               {"query": "vector hash", "k": 3, "mode": "and"},
               {"query": ""},  # empty query: [] per slot, never an error
               {"query": "café", "k": 4}]
    code, bulk = _send(http_base, "/search_many", {"queries": queries})
    assert code == 200 and len(bulk["results"]) == len(queries)
    for q, got in zip(queries, bulk["results"]):
        code, one = _send(http_base, "/search", q)
        assert code == 200 and got == one["results"]


def test_search_after_pagination(http_base):
    code, page1 = _send(http_base, "/search", {"query": "data", "k": 3})
    assert code == 200 and len(page1["results"]) == 3
    code, page2 = _send(http_base, "/search",
                        {"query": "data", "k": 3,
                         "after": page1["next_cursor"]})
    assert code == 200
    ids1 = {r["doc_id"] for r in page1["results"]}
    assert ids1.isdisjoint(r["doc_id"] for r in page2["results"])
    # pages concatenate to the unpaged top-6
    code, top6 = _send(http_base, "/search", {"query": "data", "k": 6})
    assert ([r["doc_id"] for r in page1["results"]]
            + [r["doc_id"] for r in page2["results"]]
            == [r["doc_id"] for r in top6["results"]])


def test_paper_fetch_and_404(http_base):
    code, obj = _send(http_base, "/search", {"query": "data", "k": 1})
    doc_id = obj["results"][0]["doc_id"]
    code, got = _get(http_base, f"/paper/{doc_id}")
    assert code == 200 and got["doc"]["doc_id"] == doc_id
    assert "text" in got["doc"]
    with pytest.raises(urllib.error.HTTPError) as e:
        _get(http_base, "/paper/999999999999")
    assert e.value.code == 404


def test_enrich_endpoint(http_base):
    code, obj = _send(http_base, "/enrich", {"ids": [0, 10**9]})
    assert code == 200 and len(obj["results"]) == 2
    # reference alias
    code, obj2 = _send(http_base, "/enrich", {"corpus_ids": [0, 10**9]})
    assert code == 200 and obj2 == obj


def test_filters_roundtrip(http_base):
    code, all5 = _send(http_base, "/search", {"query": "data", "k": 5})
    allowed = [r["doc_id"] for r in all5["results"]][::2]
    code, reg = _send(http_base, "/filters/f1", {"allowed_ids": allowed},
                      method="PUT")
    assert code == 200 and reg["ok"]
    code, filt = _send(http_base, "/search",
                       {"query": "data", "k": 5, "filter_id": "f1"})
    got = [(r["doc_id"], r["score"]) for r in filt["results"]]
    want = [(r["doc_id"], r["score"]) for r in all5["results"]
            if r["doc_id"] in set(allowed)]
    assert got == want  # same scores: global stats under filtering
    code, _ = _send(http_base, "/filters/f1", {}, method="DELETE")
    assert code == 200


def test_explain_and_stats(http_base):
    code, obj = _send(http_base, "/search", {"query": "data", "k": 1})
    doc_id = obj["results"][0]["doc_id"]
    code, ex = _get(http_base, f"/explain?q=data&doc_id={doc_id}")
    assert code == 200 and ex["explain"]
    code, st = _get(http_base, "/stats")
    assert code == 200 and len(st["actors"]) == 2
    _, root = _get(http_base, "/")
    shards = sorted(s for a in st["actors"] for s in a["shards"])
    assert shards == [f"shard-{i:04d}" for i in range(root["shards"])]
    # the searches above went through each actor's term cache
    caches = [a["term_cache"] for a in st["actors"]]
    assert all(set(c) == {"terms", "postings", "budget", "evictions"}
               for c in caches), caches
    assert all(0 < c["postings"] <= c["budget"] for c in caches), caches
    assert all(c["terms"] >= 1 and c["evictions"] == 0 for c in caches)


def test_bad_requests_dont_kill_server(http_base):
    for path, code in (("/nope", 404), ("/paper/notanint", 400)):
        with pytest.raises(urllib.error.HTTPError) as e:
            _get(http_base, path)
        assert e.value.code == code
    # malformed body
    with pytest.raises(urllib.error.HTTPError) as e:
        req = urllib.request.Request(
            http_base + "/search", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        urllib.request.urlopen(req, timeout=30)
    assert e.value.code == 400
    # server still alive
    code, obj = _get(http_base, "/")
    assert code == 200 and obj["ok"]


def test_concurrent_http_clients(http_base):
    from concurrent.futures import ThreadPoolExecutor
    code, want = _send(http_base, "/search", {"query": "data", "k": 5})

    def one(_):
        return _send(http_base, "/search", {"query": "data", "k": 5})[1]

    with ThreadPoolExecutor(8) as ex:
        outs = list(ex.map(one, range(32)))
    assert all(o["results"] == want["results"] for o in outs)


def test_concurrent_snippet_requests(http_base):
    """Snippets fan each request over the persistent fetch/reader pools
    (pipelines/query.py + state/docstore.py); 8 client threads exercise
    concurrent nested-pool use — the hazard this guards is a deadlock
    or cross-request row mix-up in the shared pools/caches."""
    from concurrent.futures import ThreadPoolExecutor
    code, want = _send(http_base, "/search",
                       {"query": "data", "k": 5, "snippets": True})
    assert code == 200 and want["results"]
    assert all("snippet" in r for r in want["results"])

    def one(_):
        return _send(http_base, "/search",
                     {"query": "data", "k": 5, "snippets": True})[1]

    with ThreadPoolExecutor(8) as ex:
        outs = list(ex.map(one, range(32)))
    assert all(o["results"] == want["results"] for o in outs)


def test_suggest_endpoint(http_base, index_dir):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines.query import (
        IndexReader,
    )
    rd_ = IndexReader(index_dir)
    terms = rd_.expand_prefix("s", max_expansions=None)
    want = sorted(((t, rd_._df.get(t, 0)) for t in terms),
                  key=lambda x: (-x[1], x[0]))[:5]
    code, obj = _get(http_base, "/suggest?q=s&k=5")
    assert code == 200
    got = [(s["term"], s["df"]) for s in obj["suggestions"]]
    assert got == [(t, int(d)) for t, d in want]
    # suggestions actually search: the top suggestion returns hits
    code, sr = _send(http_base, "/search", {"query": got[0][0], "k": 3})
    assert code == 200 and sr["results"]


def test_snippets_one_batched_lookup(http_base, monkeypatch):
    """Snippets do ONE bucketed multi-id lookup per request (VERDICT r4
    #5), not k per-hit fetch_doc round-trips, and the tombstone parquet
    reads are cached across requests."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
        query as qmod,
    )
    calls = {"fetch_docs": 0, "fetch_doc": 0, "load_tombstones": 0}
    real_docs, real_doc = qmod.fetch_docs, qmod.fetch_doc
    real_ts = qmod.load_tombstones

    def count_docs(*a, **kw):
        calls["fetch_docs"] += 1
        return real_docs(*a, **kw)

    def count_doc(*a, **kw):
        calls["fetch_doc"] += 1
        return real_doc(*a, **kw)

    def count_ts(*a, **kw):
        calls["load_tombstones"] += 1
        return real_ts(*a, **kw)

    monkeypatch.setattr(qmod, "fetch_docs", count_docs)
    monkeypatch.setattr(qmod, "fetch_doc", count_doc)
    monkeypatch.setattr(qmod, "load_tombstones", count_ts)

    for _ in range(2):
        code, obj = _send(http_base, "/search",
                          {"query": "spark data join", "k": 5,
                           "snippets": True})
        assert code == 200
        rows = obj["results"]
        assert len(rows) == 5 and all(r["snippet"] for r in rows)
    assert calls["fetch_doc"] == 0          # no per-hit round trips
    assert calls["fetch_docs"] == 2         # exactly one pass per request
    assert calls["load_tombstones"] <= 1    # cached across requests
