"""The benchmark workloads.  Each runs in its own fresh process with its
own Ray session (see ``run.py``), drives the engine only through its
public functions, times each layer from outside by timing the calls into
it, and checks every result against the independent oracle.

Every workload runs whole rounds until ``--seconds`` pass.  A round is the
index lifecycle -- ``build_index`` over most of the corpus, ``extend_index``
with the rest, ``delete_docs`` of 1% (one call per doc) and a purge
``compact_index`` -- followed by the workload's query phase on the
compacted index:

* ``search-warm``: a fixed query batch on a reader with the shard actors'
  budget, after an untimed warm-up pass;
* ``serve``: ``ServeState`` snippet searches with live deletes;
* ``search-cold`` (not in ``BENCHMARK.json``): the search-warm batch on a
  budget-0 ``IndexReader``.

The query phase runs in ``SLICES`` slices.  Before every slice but the
first the round takes one more sample of its short lifecycle operations (a
purge compaction of the round's tombstoned index, a reader open), and the
search phases delete canary pages after each slice, so every metric's
samples are spread evenly over the run rather than bunched in one burst.
Each round does the same operations, so every workload reports every
end-to-end metric as a median (or, for the few build samples, a mean)
over samples spread across the run.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import inspect
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

import corpus
from oracle import BM25Oracle, compare, self_check
from tracing import Tracer

PKG = ("scalable_academic_paper_search_via_distributed_processing_and_"
       "parallel_computing_ray")
build = importlib.import_module(PKG + ".pipelines.build")
query = importlib.import_module(PKG + ".pipelines.query")
serve = importlib.import_module(PKG + ".pipelines.serve")
serve_front = importlib.import_module(PKG + ".pipelines.serve_front")
spimi = importlib.import_module(PKG + ".stages.spimi")
codec = importlib.import_module(PKG + ".functions.codec")
snippet = importlib.import_module(PKG + ".functions.snippet")

N_DOCS = 120          # seeded pages; see README for why the corpus is small
N_FILES = 8           # seeded pages files; build_index takes the canary
BUILD_FILES = 5       # file and 5 of them, extend_index the other 3
N_CANARY = 32         # fixed single-token pages: serve deletes from the
                      # front, the search phases' bursts from the back
DELETE_SHARE = 0.01
STREAM_LEN = 4000     # query stream length (~1000 distinct queries)
CHECK_QUERIES = 60    # distinct queries checked after each lifecycle step
PHASE_QUERIES = {"search-cold": 10_000, "search-warm": 80_000}
SERVE_CYCLES = 8      # canary cycles per serve phase
SERVE_CYCLE = 60      # regular requests per canary cycle
DELETE_BURST = 20     # single-doc deletes per search phase, spread over
                      # its slices
SLICES = 4            # query slices per round; see the module docstring
OVERHEAD_OPS = 400    # searches timed with and without spans (traced run)
SERVE_OVERHEAD_OPS = 80
K = 10

# the shard actors' default postings-cache budget, read from the actor's
# signature so the warm reader always runs the serving configuration
ACTOR_BUDGET = inspect.signature(
    serve.QueryShardActor.__ray_metadata__.modified_class.__init__
).parameters["cache_postings_budget"].default


def nproc() -> int:
    """CPUs as ``nproc`` counts them (it honours OMP_NUM_THREADS)."""
    import subprocess
    try:
        return int(subprocess.run(["nproc"], capture_output=True,
                                  text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def clock() -> float:
    return time.perf_counter()


def settle() -> None:
    """Collect garbage before a timed engine call.  A full collection
    fires when enough allocations pile up, wherever that happens to be,
    and in this process it walks the benchmark's own objects too (one
    measured open read 0.20 s without a collection inside, 0.30 s with
    one), so collections run here, untimed."""
    gc.collect()


def pct(xs: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


def rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def segment_files(idx: str) -> list[str]:
    return sorted(os.path.join(d, f) for d, _, fs in os.walk(idx)
                  if os.path.basename(d) == "seg"
                  for f in fs if f.endswith(".parquet"))


class CheckFailed(Exception):
    pass


@dataclasses.dataclass
class Inputs:
    seed: int
    build_files: list[str]
    extend_files: list[str]
    texts: dict[int, str]
    stream: list[dict]
    canaries: list[int]
    distinct: list[dict] = dataclasses.field(init=False)

    def __post_init__(self):
        seen: dict[tuple, dict] = {}
        for q in self.stream:
            seen.setdefault((q["query"], q["mode"]), q)
        self.distinct = list(seen.values())


def make_inputs(seed: int, work: str) -> Inputs:
    vocab = corpus.make_vocab(np.random.default_rng([seed, 0]))
    table = corpus.generate_pages(seed, N_DOCS, vocab)
    canary = corpus.canary_pages(N_CANARY, N_DOCS)
    pages = os.path.join(work, "pages")
    files = corpus.write_pages(table, pages, N_FILES)
    canary_file = corpus.write_pages(canary, pages, 1, prefix="canary")
    texts = dict(zip(table["doc_id"].to_pylist(), table["text"].to_pylist()))
    texts.update(zip(canary["doc_id"].to_pylist(),
                     canary["text"].to_pylist()))
    return Inputs(seed, canary_file + files[:BUILD_FILES],
                  files[BUILD_FILES:], texts,
                  corpus.query_stream(seed, vocab, STREAM_LEN),
                  canary["doc_id"].to_pylist())


class Run:
    """State of one workload run: inputs, tracer, counters, samples."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: str):
        self.seconds = seconds
        self.work = work
        self.tr = Tracer(trace)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.layers: dict[str, float] = {}
        self.setup_steps: list[float] = []   # once per run
        t = clock()
        self_check()
        self.inp = make_inputs(seed, work)
        self.setup_steps.append(clock() - t)
        self.oracle_all = BM25Oracle(self.inp.texts)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, what: str, got, ranking, k: int = K) -> None:
        msg = compare([(h.doc_id, h.score) for h in got]
                      if got and hasattr(got[0], "doc_id") else got,
                      ranking, k)
        if msg:
            raise CheckFailed(f"{what}: {msg}")

    # ---------------------------------------------------------- lifecycle --

    def check_reader(self, idx: str, what: str, oracle: BM25Oracle,
                     dead: set[int] = frozenset()) -> list[int]:
        """Check the first distinct queries on a budget-0 reader; returns
        the top hit of each (the delete step picks its victims there)."""
        rd = query.IndexReader(idx)
        tops = []
        for q in self.inp.distinct[:CHECK_QUERIES]:
            hits = rd.search(q["query"], K, q["mode"])
            if dead & {h.doc_id for h in hits}:
                raise CheckFailed(f"{what}: deleted doc surfaced for "
                                  f"{q['query']!r}")
            self.check(f"{what} {q['query']!r}/{q['mode']}", hits,
                       oracle.rank(q["query"], q["mode"], dead))
            tops.extend(h.doc_id for h in hits[:1])
        return tops

    def lifecycle(self, root: str, checked: bool) -> tuple[str, str, int]:
        """build -> extend -> delete 1% -> purge compact under ``root``;
        returns the compacted index dir, the tombstoned index it was
        compacted from, and the number of engine calls made.
        ``checked``: check each step against the oracle before the next
        one runs (later rounds check only the final index, through their
        query phase's checks)."""
        tr, inp = self.tr, self.inp
        idx, out = os.path.join(root, "idx"), os.path.join(root, "compact")
        params = build.BuildParams(num_shards=1)
        settle()
        with tr.span("build.build_index"):
            t = clock()
            m = build.build_index(inp.build_files, idx, params)
            t_build = clock() - t
        n_build = int(m["n_docs"])
        settle()
        with tr.span("build.extend_index"):
            t = clock()
            m = build.extend_index(inp.extend_files, idx)
            t_extend = clock() - t
        self.add("build_docs_per_s", n_build / t_build)
        self.add("extend_docs_per_s", (int(m["n_docs"]) - n_build) / t_extend)
        self.add("build.build_index_s", t_build)
        self.add("build.extend_index_s", t_extend)
        if checked:
            tops = self.check_reader(idx, "after build+extend",
                                     self.oracle_all)
        else:
            tops = [r[0][0] for r in (
                self.oracle_all.rank(q["query"], q["mode"])
                for q in self.inp.distinct[:CHECK_QUERIES]) if r]

        # victims: top hits of the first check queries, so "no deleted doc
        # surfaces" is tested on docs that would otherwise surface
        n_victims = max(1, round(DELETE_SHARE * len(self.inp.texts)))
        victims = list(dict.fromkeys(tops))[:n_victims]
        if len(victims) < n_victims:
            raise CheckFailed("too few distinct top hits to delete")
        for v in victims:
            settle()
            with tr.span("build.delete_docs"):
                t = clock()
                build.delete_docs(idx, [v])
                self.add("delete_ms", (clock() - t) * 1e3)
        if checked:
            self.check_reader(idx, "after delete", self.oracle_all,
                              set(victims))

        settle()
        with tr.span("build.compact_index"):
            t = clock()
            mc = build.compact_index(idx, out, target_shards=2)
            self.add("purge_compact_s", clock() - t)
        survivors = {d: s for d, s in self.inp.texts.items()
                     if d not in victims}
        self.oracle = BM25Oracle(survivors)
        if checked:
            self.check_reader(out, "after purge", self.oracle)
        seg = segment_files(out)
        n_post = sum(int(pc.sum(pq.read_table(f, columns=["df"])["df"])
                         .as_py() or 0) for f in seg)
        self.add("index_bytes_per_doc", dir_bytes(out) / int(mc["n_docs"]))
        self.add("codec.bytes_per_posting",
                 sum(os.path.getsize(f) for f in seg) / max(1, n_post))
        return out, idx, 3 + len(victims)

    def resample(self, src: str, idx: str, out: str, budget: int) -> None:
        """One more sample of the round's short lifecycle operations: the
        purge compaction of the tombstoned index ``src`` (into ``out``,
        removed afterwards) and a reader open on the compacted ``idx``."""
        settle()
        with self.tr.span("build.compact_index"):
            t = clock()
            build.compact_index(src, out, target_shards=2)
            self.add("purge_compact_s", clock() - t)
        self.attempted += 1
        self.open_reader(idx, budget)
        shutil.rmtree(out)

    def delete_canaries(self, idx: str, ids: list[int]) -> None:
        """Delete canary pages one call at a time.  A canary holds only its
        own token, so no stream query returns it and the open reader's
        results do not depend on whether it sees the delete."""
        for d in ids:
            settle()
            with self.tr.span("build.delete_docs"):
                t = clock()
                build.delete_docs(idx, [d])
                self.add("delete_ms", (clock() - t) * 1e3)
        self.attempted += len(ids)

    def check_deleted(self, idx: str) -> None:
        """A fresh reader returns none of the search phase's deleted
        canaries (``serve`` deletes from the front, the search phases the
        last ``DELETE_BURST``)."""
        rd = query.IndexReader(idx)
        for j in range(N_CANARY - DELETE_BURST, N_CANARY):
            tok = corpus.canary_token(j)
            self.check(f"after canary deletes {tok!r}", rd.search(tok, K), [])

    def open_reader(self, idx: str, budget: int = 0):
        settle()
        with self.tr.span("query.open"):
            t = clock()
            rd = query.IndexReader(idx, cache_postings_budget=budget)
            self.add("open_s", clock() - t)
        return rd

    # ----------------------------------------------------------- searches --

    def search_loop(self, rd, start: int, n_ops: int,
                    first: dict[tuple, list]) -> None:
        """Closed loop, one client: ``n_ops`` queries of the stream in
        order from position ``start``.  Keeps the first result of every
        distinct query in ``first``, for the checks."""
        stream, tr = self.inp.stream, self.tr
        lat = self.samples.setdefault("search_s", [])
        settle()
        for i in range(start, start + n_ops):
            q = stream[i % len(stream)]
            with tr.request("query.search"):
                t = clock()
                hits = rd.search(q["query"], q["k"], q["mode"])
                lat.append(clock() - t)
            first.setdefault((q["query"], q["mode"]), hits)
        self.attempted += n_ops

    def check_searches(self, rd, first: dict[tuple, list]) -> None:
        """Every distinct query run is checked against the oracle, and
        search == search_wand == search_exhaustive on this reader."""
        for (qt, mode), hits in first.items():
            want = self.oracle.rank(qt, mode)
            self.check(f"search {qt!r}/{mode}", hits, want)
            for name in ("search_wand", "search_exhaustive"):
                other = getattr(rd, name)(qt, K, mode)
                if [h.doc_id for h in other] != [h.doc_id for h in hits] \
                        or any(abs(a.score - b.score) > 1e-9
                               for a, b in zip(other, hits)):
                    raise CheckFailed(f"{name} != search for {qt!r}/{mode}")

    # ------------------------------------------------- traced layer probes --

    def probe_build_stages(self) -> None:
        """Time the build's stages in this process over the build files:
        ExtractDocs per 256-page batch, PartialPostingsBuilder per input
        file (one Ray block per file in the real build), merge_postings
        per (sid, term, salt) group."""
        tr, p = self.tr, build.BuildParams()
        ex = spimi.ExtractDocs()
        pb = spimi.PartialPostingsBuilder(num_salts=p.num_salts,
                                          head_df_frac=p.head_df_frac)
        parts = []
        n_docs = 0
        for f in self.inp.build_files:
            pages = pq.read_table(f, columns=["doc_id", "url", "html"])
            docs = []
            for b in pages.to_batches(max_chunksize=p.extract_batch_size):
                with tr.span("spimi.extract", docs=b.num_rows):
                    docs.append(ex(pa.Table.from_batches([b])))
            docs = pa.concat_tables(docs)
            n_docs += docs.num_rows
            with tr.span("spimi.partials", docs=docs.num_rows):
                parts.append(pb(docs))
        partials = pa.concat_tables(parts).sort_by(
            [("sid", "ascending"), ("term", "ascending"),
             ("salt", "ascending")])
        key = list(zip(partials["sid"].to_pylist(),
                       partials["term"].to_pylist(),
                       partials["salt"].to_pylist()))
        cuts = [0] + [i for i in range(1, len(key)) if key[i] != key[i - 1]]
        cuts.append(len(key))
        for a, b in zip(cuts[:-1], cuts[1:]):
            g = partials.slice(a, b - a)
            with tr.span("build.merge_postings", groups=1):
                build.merge_postings(g)
        st = tr.self_times()
        ext, par = sum(st["spimi.extract"]), sum(st["spimi.partials"])
        mrg = sum(st["build.merge_postings"])
        n_groups = len(cuts) - 1
        self.layers["spimi.extract_us_per_doc"] = ext / n_docs * 1e6
        self.layers["spimi.partials_us_per_doc"] = par / n_docs * 1e6
        self.layers["build.merge_us_per_group"] = mrg / n_groups * 1e6
        self.layers["build.merge_groups"] = n_groups
        self.layers["build.orchestration_s"] = (
            statistics.median(self.samples["build.build_index_s"])
            - (ext + par + mrg))

    def probe_queries(self, idx: str) -> None:
        """Per-layer query costs over the distinct queries on budget-0 and
        warm readers of ``idx``."""
        tr = self.tr
        qs = self.inp.distinct
        rd = query.IndexReader(idx)
        seg = pa.concat_tables(pq.read_table(f) for f in segment_files(idx))
        rows: dict[str, list[int]] = {}
        for i, t in enumerate(seg["term"].to_pylist()):
            rows.setdefault(t, []).append(i)
        fields = [f.name for f in dataclasses.fields(codec.EncodedPostings)]
        cols = {f: seg[f].to_pylist() for f in fields}

        def enc(i: int):
            kw = {f: cols[f][i] for f in fields}
            for f in fields:
                if isinstance(kw[f], list):
                    kw[f] = np.asarray(kw[f], dtype=np.int64)
            return codec.EncodedPostings(**kw)

        n_dec = n_tot = n_post = 0
        for q in qs:
            with tr.span("query.query_terms"):
                terms = rd.query_terms(q["query"])
            for t in terms:
                for i in rows.get(t, ()):
                    e = enc(i)
                    with tr.span("codec.decode_postings"):
                        codec.decode_postings(e)
                    n_post += e.df
            with tr.span("query.search_wand"):
                rd.search_wand(q["query"], K, q["mode"])
            st = rd.last_wand_stats or {}
            n_dec += st.get("blocks_decoded", 0)
            n_tot += st.get("blocks_total", 0)
            with tr.span("query.search_exhaustive"):
                rd.search_exhaustive(q["query"], K, q["mode"])
        st = tr.self_times()
        self.layers["query.preprocess_us"] = pct(
            st["query.query_terms"], 50) * 1e6
        self.layers["codec.decode_ns_per_posting"] = (
            sum(st["codec.decode_postings"]) / max(1, n_post) * 1e9)
        self.layers["query.wand_ms_p50"] = pct(
            st["query.search_wand"], 50) * 1e3
        self.layers["query.exhaustive_ms_p50"] = pct(
            st["query.search_exhaustive"], 50) * 1e3
        self.layers["query.wand_blocks_decoded_ratio"] = n_dec / max(1, n_tot)
        if "query.warm_fill_s" not in self.samples:
            warm = query.IndexReader(idx, cache_postings_budget=ACTOR_BUDGET)
            t = clock()
            for q in qs:
                warm.search(q["query"], K, q["mode"])
            self.add("query.warm_fill_s", clock() - t)

    def trace_overhead(self, op, n: int) -> None:
        """Tracing overhead: each of ``n // 2`` ops runs twice, once with
        spans off and once on, the order alternating between pairs (so
        neither machine-speed drift nor the second call's warmer caches
        favour one side)."""
        lat: dict[bool, list[float]] = {False: [], True: []}
        for i in range(n):
            on = self.tr.enabled = bool(i % 2) != bool(i // 2 % 2)
            with self.tr.request("overhead"):
                t = clock()
                op(i // 2)
                lat[on].append(clock() - t)
        self.tr.enabled = True
        self.layers["trace.overhead_pct"] = (
            pct(lat[True], 50) / pct(lat[False], 50) - 1) * 100

    # -------------------------------------------------------------- serve --

    def serve_phase(self, idx: str, src: str | None, cycles: int,
                    main: bool = True) -> None:
        """``cycles`` times: search a canary's token (snippets on), delete
        the doc it returned, search the token again (the probe), then
        ``SERVE_CYCLE`` regular snippet searches from the stream.  A search
        that returns a doc deleted before it was sent counts as failed.
        The cycles run in ``SLICES`` slices, with a ``resample`` of the
        tombstoned index ``src`` before every slice but the first.
        ``main=False`` (the short serve pass of a traced non-serve run)
        feeds only the per-layer metrics, not the run's counts."""
        t = clock()
        state = serve_front.ServeState(idx)
        if main:
            self.add("round_setup_s", clock() - t)
            self.open_reader(idx, ACTOR_BUDGET)
        try:
            self._serve_cycles(state, idx, src, cycles, main)
            if main:
                pids = ray.get([a.__ray_call__.remote(
                    lambda _self: os.getpid())
                    for a in state.searcher.actors])
                self.add("resident_mb", sum(rss_mb(p) for p in pids))
        finally:
            state.shutdown()

    def _serve_cycles(self, state, idx, src, cycles, main) -> None:
        tr = self.tr
        dead: set[int] = set()
        lat = self.samples.setdefault("search_s", [])
        texts = self.inp.texts
        traced = tr.enabled
        if traced:
            n_actors = len(state.searcher.actors)
            n_shards = len(os.listdir(os.path.join(idx, "shards")))
            subs = [query.IndexReader(
                idx, cache_postings_budget=ACTOR_BUDGET,
                shard_subset=[f"shard-{i:04d}" for i in range(n_shards)
                              if i % n_actors == a])
                for a in range(n_actors)]
            parallel = nproc() >= n_actors
            restore = self._wrap_serve_layers(state)

        # responses are checked after the phase, so the oracle's work and
        # garbage never land inside a timed request
        sent: list[tuple[str, str, list[dict], frozenset]] = []

        def request(qt: str, mode: str) -> list[dict]:
            req = {"op": "search", "query": qt, "k": K, "mode": mode,
                   "snippets": True}
            with tr.request("serve_front.handle"):
                t = clock()
                resp, _ = state.handle(req)
                lat.append(clock() - t)
            if traced:
                ts = []
                for rd in subs:
                    t = clock()
                    rd.search(qt, K, mode)
                    ts.append(clock() - t)
                self.add("actor_compute_s", max(ts) if parallel else sum(ts))
            if "error" in resp:
                raise CheckFailed(f"serve error for {qt!r}: {resp['error']}")
            self.attempted += main
            rows = resp["results"]
            sent.append((qt, mode, rows, frozenset(dead)))
            return rows

        def check_sent() -> None:
            for qt, mode, rows, gone in sent:
                if gone & {r["doc_id"] for r in rows}:
                    self.failed += main
                    self.layers["serve.stale_hits"] = self.layers.get(
                        "serve.stale_hits", 0) + 1
                    continue
                self.check(f"serve {qt!r}/{mode}",
                           [(r["doc_id"], r["score"]) for r in rows],
                           self.oracle.rank(qt, mode, gone))
                for r in rows:
                    if r.get("snippet", "\0") not in texts[r["doc_id"]]:
                        raise CheckFailed(
                            f"bad snippet for doc {r['doc_id']}")

        stream = self.inp.stream
        try:
            per_slice = max(1, cycles // SLICES)
            for c in range(cycles):
                if main and c and c % per_slice == 0:
                    self.resample(src, idx, os.path.join(
                        os.path.dirname(idx), f"resample{c}"), ACTOR_BUDGET)
                tok = corpus.canary_token(c)
                settle()
                rows = request(tok, "or")
                if not rows:
                    raise CheckFailed(f"serve {tok!r}: canary page missing")
                victim = rows[0]["doc_id"]
                settle()
                with tr.request("build.delete_docs"):
                    t = clock()
                    build.delete_docs(idx, [victim])
                    self.add("delete_ms", (clock() - t) * 1e3)
                self.attempted += main
                dead.add(victim)
                request(tok, "or")
                for i in range(SERVE_CYCLE):
                    q = stream[(c * SERVE_CYCLE + i) % len(stream)]
                    request(q["query"], q["mode"])
            check_sent()
            if traced:
                self._serve_layers()
                if main and "trace.overhead_pct" not in self.layers:
                    self.trace_overhead(lambda i: state.handle(
                        {"op": "search", "query": stream[i]["query"],
                         "k": K, "mode": stream[i]["mode"],
                         "snippets": True}), SERVE_OVERHEAD_OPS)
        finally:
            if traced:
                restore()

    def _wrap_serve_layers(self, state):
        """Wrap the calls ServeState makes into the layers below it."""
        tr = self.tr
        searcher = state.searcher
        orig = (searcher.search, query.fetch_docs, snippet.make_snippet)

        def search(*a, **kw):
            with tr.span("serve.search"):
                return orig[0](*a, **kw)

        def fetch_docs(*a, **kw):
            with tr.span("query.fetch_docs"):
                return orig[1](*a, **kw)

        def make_snippet(*a, **kw):
            with tr.span("snippet.make_snippet"):
                return orig[2](*a, **kw)

        searcher.search = search
        query.fetch_docs = fetch_docs
        snippet.make_snippet = make_snippet

        def restore():
            del searcher.search
            query.fetch_docs, snippet.make_snippet = orig[1], orig[2]
        return restore

    def _serve_layers(self) -> None:
        """Per-request self times of the serving layers."""
        per: dict[int, dict[str, float]] = {}
        child: dict[int, float] = {}
        spans = self.tr.spans
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0) + (
                    s["end_ns"] - s["start_ns"]) / 1e9
        for s in spans:
            if s["name"] in ("serve_front.handle", "serve.search",
                             "query.fetch_docs", "snippet.make_snippet"):
                d = per.setdefault(s["req"], {})
                dur = (s["end_ns"] - s["start_ns"]) / 1e9
                d[s["name"]] = d.get(s["name"], 0.0) + dur
                if s["name"] == "serve_front.handle":
                    d["self"] = dur - child.get(s["id"], 0.0)
        reqs = [d for d in per.values() if "serve_front.handle" in d]
        compute = self.samples["actor_compute_s"]
        search = [d.get("serve.search", 0.0) for d in reqs]
        rpc = [s - c for s, c in zip(search, compute)]
        fetch = [d.get("query.fetch_docs", 0.0) for d in reqs]
        snip = [d.get("snippet.make_snippet", 0.0) for d in reqs]
        other = [d["self"] for d in reqs]
        hits = self.tr.durations("snippet.make_snippet")
        L = self.layers
        L["serve.search_ms_p50"] = pct(search, 50) * 1e3
        L["serve.actor_compute_ms_p50"] = pct(compute, 50) * 1e3
        L["serve.rpc_merge_ms_p50"] = pct(rpc, 50) * 1e3
        L["query.fetch_docs_ms_p50"] = pct(fetch, 50) * 1e3
        L["snippet.make_snippet_us_p50"] = pct(hits, 50) * 1e6
        L["serve_front.other_ms_p50"] = pct(other, 50) * 1e3
        request = [d["serve_front.handle"] for d in reqs]
        L["serve.layer_sum_ratio"] = (
            (pct(compute, 50) + pct(rpc, 50) + pct(fetch, 50)
             + pct(snip, 50) + pct(other, 50)) / pct(request, 50))
        L.setdefault("serve.stale_hits", 0)


# ------------------------------------------------------------------ runs --

def _warmup(run: Run) -> None:
    """build, delete and compact a 16-page index, so Ray worker start-up
    and first-call costs land in set-up, not in the measured lifecycle
    (``extend_index`` runs the same pipeline as ``build_index``)."""
    t = clock()
    tiny = os.path.join(run.work, "warm")
    pages = corpus.write_pages(
        pq.read_table(run.inp.extend_files[0]).slice(0, 16),
        os.path.join(tiny, "pages"), 1)
    idx = os.path.join(tiny, "idx")
    build.build_index(pages, idx, build.BuildParams(num_shards=1))
    build.delete_docs(idx, [0])
    build.compact_index(idx, os.path.join(tiny, "compact"))
    run.setup_steps.append(clock() - t)


def search_phase(run: Run, idx: str, src: str, warm: bool) -> None:
    """Open the round's reader, (warm) run the warm-up pass, then a fixed
    batch of stream queries in ``SLICES`` slices -- a ``resample`` before
    every slice but the first, canary deletes after each -- and the
    checks."""
    budget = ACTOR_BUDGET if warm else 0
    t = clock()
    rd = run.open_reader(idx, budget)
    if warm:
        t_fill = clock()
        for q in run.inp.distinct:
            rd.search(q["query"], K, q["mode"])
        run.add("query.warm_fill_s", clock() - t_fill)
    run.add("round_setup_s", clock() - t)
    n = PHASE_QUERIES["search-warm" if warm else "search-cold"] // SLICES
    gone = run.inp.canaries[-DELETE_BURST:]
    per = DELETE_BURST // SLICES
    first: dict[tuple, list] = {}
    for j in range(SLICES):
        if j:
            run.resample(src, idx, os.path.join(
                os.path.dirname(idx), f"resample{j}"), budget)
        run.search_loop(rd, j * n, n, first)
        run.delete_canaries(idx, gone[j * per:(j + 1) * per])
    run.add("resident_mb", rss_mb())
    run.check_searches(rd, first)
    run.check_deleted(idx)
    if run.tr.enabled and "trace.overhead_pct" not in run.layers:
        st = run.inp.stream
        run.trace_overhead(lambda i: rd.search(st[i]["query"], K,
                                               st[i]["mode"]), OVERHEAD_OPS)


def rounds(run: Run, phase) -> None:
    """Whole rounds of [lifecycle, ``phase``] until ``run.seconds`` pass;
    the first round checks every lifecycle step against the oracle.  A
    traced run then probes the layers the rounds cannot time."""
    _warmup(run)
    # the inputs, the oracle and everything imported stay alive for the
    # whole run: keep them out of every later collection
    gc.collect()
    gc.freeze()
    t0 = clock()
    t_end = t0 + run.seconds
    r = 0
    while True:
        idx, src, n_ops = run.lifecycle(
            os.path.join(run.work, f"round{r}"), checked=r == 0)
        run.attempted += n_ops
        phase(idx, src)
        r += 1
        # no round that would end more than half a round past the deadline
        if clock() + (clock() - t0) / r / 2 >= t_end:
            break
    if run.tr.enabled:
        run.probe_build_stages()
        run.probe_queries(idx)
        if "serve.search_ms_p50" not in run.layers:
            run.serve_phase(idx, None, 2, main=False)


WORKLOADS = {
    "search-warm": lambda run: rounds(
        run, lambda idx, src: search_phase(run, idx, src, warm=True)),
    "serve": lambda run: rounds(
        run, lambda idx, src: run.serve_phase(idx, src, SERVE_CYCLES)),
    "search-cold": lambda run: rounds(
        run, lambda idx, src: search_phase(run, idx, src, warm=False)),
}


def end_to_end(run: Run) -> dict[str, float]:
    s = run.samples
    med = statistics.median
    lat = s["search_s"]
    return {
        "setup_s": sum(run.setup_steps) + med(s["round_setup_s"]),
        "build_docs_per_s": statistics.fmean(s["build_docs_per_s"]),
        "extend_docs_per_s": statistics.fmean(s["extend_docs_per_s"]),
        "purge_compact_s": med(s["purge_compact_s"]),
        "index_bytes_per_doc": med(s["index_bytes_per_doc"]),
        "open_s": med(s["open_s"]),
        "search_p50_ms": pct(lat, 50) * 1e3,
        "search_qps": len(lat) / sum(lat),
        "delete_p50_ms": med(s["delete_ms"]),
        "resident_mb": med(s["resident_mb"]),
    }


def per_layer(run: Run) -> dict[str, float]:
    s, L = run.samples, dict(run.layers)
    med = statistics.median
    L["build.build_index_s"] = med(s["build.build_index_s"])
    L["build.extend_index_s"] = med(s["build.extend_index_s"])
    L["build.compact_index_s"] = med(s["purge_compact_s"])
    L["build.delete_docs_ms"] = med(s["delete_ms"])
    L["codec.bytes_per_posting"] = med(s["codec.bytes_per_posting"])
    L["query.open_s"] = med(s["open_s"])
    L["query.warm_fill_s"] = med(s["query.warm_fill_s"])
    return L
