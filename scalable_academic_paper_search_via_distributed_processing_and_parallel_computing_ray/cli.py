"""Command-line entry points (the reference's spark-submit scripts analog).

    python -m scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.cli \
        build  --pages DIR --index DIR [--shards N] [--salts N]
    ... search --index DIR --query "spark data join" [--k 10] [--mode or]
    ... serve-demo --index DIR --actors 2 --query "..."

Owns its Ray session (guarded init; the driver-contract module never inits).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session(num_cpus: int | None):
    """Returns (ray, owned): shutdown only a session this CLI started, so
    `main()` is callable from a host that already holds one (e.g. tests)."""
    import ray
    owned = not ray.is_initialized()
    if owned:
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ray, owned


_ACTORS_HELP = ("shard actors to start, at most; the pool never has more "
                "actors than shards or than the CPUs Ray was given (each "
                "is a single-threaded process of ~190 MB resident, and "
                "each holds its own postings cache budget)")


def _serve_loop(ray, args, stdin, stdout) -> int:
    """Dispatch newline-delimited JSON requests against long-lived serving
    state (:class:`pipelines.serve_front.ServeState` — the same dispatcher
    behind the HTTP front).  Ops mirror the reference's three endpoints:

      {"op": "search", "query": "...", "k": 10, "mode": "or",
       "filter_id": "en"?, "exclude": "boolean not terms"?,
       "snippets": true?, "phrase": true?, "slop": 0?,
       "after": [score, doc_id]?}    -> /search; responses carry a
       full-precision "next_cursor" to feed back as "after" (paging)
      {"op": "fetch", "doc_id": 7}                             -> /paper/{id}
      {"op": "explain", "query": "...", "doc_id": 7}   per-term BM25 parts
      {"op": "enrich", "ids": [3, 9]}                          -> /enrich
      {"op": "register_filter", "filter_id": "en",
       "allowed_ids": [..]}  |  {"op": "drop_filter", ...}
      {"op": "stats"} | {"op": "quit"}

    One JSON object per response line; malformed requests answer
    {"error": ...} and the loop continues (a serving front must not die on
    a bad request)."""
    from .pipelines.serve_front import ServeState
    state = ServeState(args.index, num_actors=args.actors, lazy=args.lazy,
                       analytics_dir=args.analytics)

    def respond(obj) -> None:
        stdout.write(json.dumps(obj) + "\n")
        stdout.flush()

    try:
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                req = json.loads(line)
            except ValueError as exc:
                respond({"error": f"{type(exc).__name__}: {exc}"})
                continue
            resp, quit_ = state.handle(req)
            respond(resp)
            if quit_:
                break
    finally:
        state.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ray-bm25")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an index")
    b.add_argument("--pages", required=True, help="pages parquet file/dir")
    b.add_argument("--index", required=True, help="output index dir")
    b.add_argument("--shards", type=int, default=4)
    b.add_argument("--salts", type=int, default=16)

    e = sub.add_parser("extend", help="append new input files to an existing "
                       "index as new shards (no segment rewrite)")
    e.add_argument("--pages", required=True)
    e.add_argument("--index", required=True)
    e.add_argument("--shards", type=int, default=None,
                   help="number of NEW shards (default: build-time setting)")

    k = sub.add_parser("compact", help="merge an index's shards into fewer "
                       "shards under a NEW dir (encoded-level segment "
                       "merge; results rank+score identical)")
    k.add_argument("--index", required=True, help="source index dir")
    k.add_argument("--out", required=True, help="output index dir (new)")
    k.add_argument("--shards", type=int, default=1,
                   help="target shard count (default 1)")

    s = sub.add_parser("search", help="query an index")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--mode", choices=("or", "and"), default="or")
    s.add_argument("--phrase", action="store_true",
                   help="treat the query as a phrase (positions=True "
                   "index required); see --slop")
    s.add_argument("--slop", type=int, default=0,
                   help="phrase proximity window: terms in order within "
                   "span len-1+slop (0 = exact consecutive)")
    s.add_argument("--exclude", default=None,
                   help="boolean-NOT terms: drop docs containing any "
                   "(also available inline as '-term' in --query)")
    s.add_argument("--snippets", action="store_true",
                   help="attach a query-biased snippet per hit")
    s.add_argument("--lazy", action="store_true",
                   help="open the index lazily (on-demand row-group reads)")

    d = sub.add_parser("serve-demo", help="distributed actor-pool query demo")
    d.add_argument("--index", required=True)
    d.add_argument("--actors", type=int, default=2, help=_ACTORS_HELP)
    d.add_argument("--query", required=True)
    d.add_argument("--k", type=int, default=10)
    d.add_argument("--lazy", action="store_true",
                   help="actors open lazily (on-demand row-group reads)")

    c = sub.add_parser("clean", help="training-data cleaning pipeline: "
                       "quality filter -> optional test-set decontamination "
                       "-> exact dedup -> optional MinHash near-dup removal "
                       "-> partitioned parquet + manifest")
    c.add_argument("--input", required=True,
                   help="parquet file/dir with (doc_id, text)")
    c.add_argument("--out", required=True)
    c.add_argument("--min-tokens", type=int, default=5)
    c.add_argument("--max-stop-m", type=int, default=700)
    c.add_argument("--max-punct-m", type=int, default=300)
    c.add_argument("--near-dup", action="store_true")
    c.add_argument("--decontaminate", default=None, metavar="PARQUET",
                   help="benchmark/eval parquet (text column); docs sharing "
                   "any --decon-n-gram with it are dropped")
    c.add_argument("--decon-n", type=int, default=13)
    c.add_argument("--buckets", type=int, default=16)
    c.add_argument("--drop-text", action="store_true")

    v = sub.add_parser(
        "serve", help="long-lived serving front: newline-JSON over stdio "
        "by default, or REAL HTTP with --http PORT (stdlib http.server — "
        "the reference serves /search, /paper/{id} and /enrich over "
        "FastAPI, api/combined.py:159-278 + api/enrich.py:208-240; both "
        "fronts share one dispatcher, pipelines/serve_front.py)")
    v.add_argument("--index", required=True)
    v.add_argument("--actors", type=int, default=2, help=_ACTORS_HELP)
    v.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve real HTTP on this port instead of stdio "
                   "(0 = ephemeral; the bound address is printed as one "
                   "JSON line)")
    v.add_argument("--analytics", default=None,
                   help="analytics dir for the enrich op (pipelines.enrich)")
    v.add_argument("--lazy", action="store_true")

    dl = sub.add_parser("delete", help="tombstone-delete doc ids from a "
                        "live index (Lucene-style soft delete; compaction "
                        "purges)")
    dl.add_argument("--index", required=True)
    dl.add_argument("--doc-ids", required=True,
                    help="comma-separated doc ids")

    f = sub.add_parser("fetch", help="point lookup by doc_id -> JSON "
                       "(reference /paper/{id} + fetch_paper_job analog)")
    f.add_argument("--index", required=True)
    f.add_argument("--doc-id", type=int, required=True)
    f.add_argument("--out", default=None,
                   help="write result JSON to this file instead of stdout")

    args = p.parse_args(argv)
    ray, owned = _ray_session(args.num_cpus)
    try:
        if args.cmd == "build":
            from .pipelines import build
            m = build.build_index(args.pages, args.index,
                                  build.BuildParams(num_shards=args.shards,
                                                    num_salts=args.salts))
            print(json.dumps({k: m[k] for k in
                              ("n_docs", "avg_dl", "build_secs", "docs_per_sec",
                               "n_shards")}))
        elif args.cmd == "extend":
            from .pipelines import build
            m = build.extend_index(args.pages, args.index,
                                   num_new_shards=args.shards)
            print(json.dumps({k: m[k] for k in
                              ("n_docs", "avg_dl", "build_secs", "n_shards")}))
        elif args.cmd == "compact":
            from .pipelines import build
            m = build.compact_index(args.index, args.out,
                                    target_shards=args.shards)
            print(json.dumps({k: m[k] for k in
                              ("n_docs", "avg_dl", "build_secs",
                               "n_shards", "n_postings")}))
        elif args.cmd == "search":
            from .pipelines.query import IndexReader
            r = IndexReader(args.index, lazy=args.lazy)
            if args.phrase:
                hits = r.search_phrase(args.query, args.k, slop=args.slop)
            else:
                hits = r.search(args.query, args.k, args.mode,
                                exclude=args.exclude)
            docs = {}
            if args.snippets:
                # one batched lookup for every hit: the manifest and the
                # tombstone parquets are read once, not once per hit
                from .functions.snippet import make_snippet
                from .pipelines.query import fetch_docs
                docs = fetch_docs(args.index, [h.doc_id for h in hits],
                                  columns=["text"])
            for rank, h in enumerate(hits, 1):
                row = {"rank": rank, "doc_id": h.doc_id,
                       "score": round(h.score, 6)}
                doc = docs.get(h.doc_id)
                if doc is not None:
                    row.update(make_snippet(doc.get("text", ""),
                                            args.query))
                print(json.dumps(row))
        elif args.cmd == "serve-demo":
            from .pipelines.serve import DistributedSearcher
            ds = DistributedSearcher(args.index, num_actors=args.actors,
                                     lazy=args.lazy)
            try:
                for rank, h in enumerate(ds.search(args.query, args.k), 1):
                    print(json.dumps({"rank": rank, "doc_id": h.doc_id,
                                      "score": round(h.score, 6)}))
            finally:
                ds.shutdown()
        elif args.cmd == "clean":
            import ray.data as rd

            from .pipelines import corpus
            ds = rd.read_parquet(args.input, columns=["doc_id", "text"])
            bench = (rd.read_parquet(args.decontaminate)
                     if args.decontaminate else None)
            cleaned = corpus.clean_corpus(
                ds, min_tokens=args.min_tokens, max_stop_m=args.max_stop_m,
                max_punct_m=args.max_punct_m, near_dup=args.near_dup,
                benchmark=bench, decon_n=args.decon_n)
            m = corpus.write_clean_corpus(cleaned, args.out,
                                          n_buckets=args.buckets,
                                          drop_text=args.drop_text)
            print(json.dumps(m))
        elif args.cmd == "delete":
            from .pipelines import build
            m = build.delete_docs(args.index,
                                  [int(x) for x in args.doc_ids.split(",")])
            print(json.dumps({"n_tombstones": m["n_tombstones"]}))
        elif args.cmd == "serve":
            if args.http is not None:
                from .pipelines.serve_front import run_http
                return run_http(args.index, args.http,
                                num_actors=args.actors, lazy=args.lazy,
                                analytics_dir=args.analytics)
            return _serve_loop(ray, args, sys.stdin, sys.stdout)
        elif args.cmd == "fetch":
            from .pipelines.query import fetch_doc
            doc = fetch_doc(args.index, args.doc_id)
            payload = json.dumps(doc, default=str)
            if args.out:  # point-result JSON file (reference S7 writer)
                with open(args.out, "w") as fh:
                    fh.write(payload + "\n")
            else:
                print(payload)
            return 0 if doc is not None else 2
        return 0
    finally:
        if owned:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
