"""Distributed query serving: a pool of per-shard query actors + driver-side
top-k merge.

Ray-native replacement for the reference's serving layer
(``api/combined.py:100-126`` loads the whole index into ONE FastAPI process;
``/paper/{id}`` even spawns a spark-submit per request,
``combined.py:227-278``).  Here each :class:`QueryShardActor` holds a
disjoint subset of index shards in memory (segments + its doc-length
slice) and answers with a LOCAL top-k; because build shards partition the
document space, the global top-k is exactly the k best of the union of the
local top-ks — a tiny driver-side merge, no shuffle, no full-index copy on
any single node.

Scores are globally correct from a shard subset because global stats ride
the manifest (N, avg_dl) and per-term global df rides ``termdict.parquet``
(written at build finalize).
"""

from __future__ import annotations

import os
import threading
import traceback

import ray
from ray.exceptions import RayActorError, RayChannelError, RayTaskError

from ..state import fsio
from .query import IndexReader, TopkResult, load_tombstones


def actor_pool_size(requested: int, n_shards: int, n_cpus: int) -> int:
    """Number of shard actors to start: the requested count, capped at the
    shard count (an actor needs a shard to score) and at the CPUs Ray was
    given.  Each actor is a single-threaded process, so past the CPU count
    extra actors score nothing in parallel; they only add one process hop
    per request and ~190 MB resident each.  Never fewer than one."""
    return max(1, min(requested, n_shards, n_cpus))


def _ray_cpus() -> int:
    """CPUs Ray was given (``build._ncpu`` without its floor of 2)."""
    try:
        return int(ray.cluster_resources().get("CPU", 1))
    except Exception:
        return os.cpu_count() or 1


@ray.remote
class QueryShardActor:
    """Holds a subset of index shards; state loads once per actor
    (reference ST3 pattern, SURVEY.md §2.3).

    Every op that touches the reader arrives through :meth:`call`, the one
    method :class:`DistributedSearcher`'s compiled graph binds, so all of
    them run on the graph's one execution thread.  A plain ``.remote()``
    call runs on a second actor thread, concurrently with a graph call, and
    would race the reader's term-cache LRU and live-mask; only the
    read-only :meth:`stats` is called that way.

    Query ops carry the caller's tombstone file list (the manifest's
    ``tombstone_files``); the actor reloads its live-mask only when that
    list changes, so a running actor masks docs deleted after it opened."""

    def __init__(self, index_dir: str, shard_names: list[str],
                 cache_postings_budget: int = 20_000_000,
                 lazy: bool = False):
        # decoded hot terms, ~20 B per posting -> ~400 MB/actor by default.
        # A head term also charges its dense score vector, so an
        # undersized budget thrashes (measured 12x collapse), as
        # stats()["term_cache"]["evictions"] shows.  lazy=True serves at
        # once and faults posting row groups in on demand.
        self.reader = IndexReader(index_dir, shard_subset=shard_names,
                                  cache_postings_budget=cache_postings_budget,
                                  lazy=lazy)
        self._shards = list(shard_names)
        self._ts_files = tuple(self.reader.manifest.get("tombstone_files",
                                                        []))
        self._masks: dict[str, "object"] = {}

    def call(self, calls: list[tuple[str, tuple]]) -> list:
        """Run each ``(op, args)`` as ``_op_<op>(*args)``, in order:
        ``search``, ``phrase``, ``explain``, ``suggest``,
        ``register_filter`` or ``drop_filter``.  An op that raises yields
        its ``RayTaskError`` in its place, so it fails only its own
        request, not the others that share the execution."""
        out = []
        for op, args in calls:
            try:
                out.append(getattr(self, f"_op_{op}")(*args))
            except Exception as exc:  # noqa: BLE001 — returned, not lost
                out.append(RayTaskError(f"QueryShardActor.{op}",
                                        traceback.format_exc(), exc))
        return out

    def _sync_tombstones(self, ts_files: tuple[str, ...] | None) -> None:
        """Follow the caller's tombstone generation: O(deleted), and only
        when the file list differs from the one this actor holds."""
        if ts_files is None or tuple(ts_files) == self._ts_files:
            return
        index_dir = self.reader.index_dir
        try:
            ts = load_tombstones(index_dir,
                                 {"tombstone_files": list(ts_files)})
        except OSError:
            # delete_docs keeps one older generation; a caller two deletes
            # behind reads the current manifest's list (a superset)
            m = fsio.read_json(fsio.join(index_dir, "manifest.json"))
            ts_files = m.get("tombstone_files", [])
            ts = load_tombstones(index_dir, m)
        self.reader.set_tombstones(ts)
        self._ts_files = tuple(ts_files)

    def _op_register_filter(self, filter_id: str, allowed_ref) -> int:
        """Cache this actor's LOCAL doc mask (O(local docs) booleans) for a
        named filter from ``allowed_ref``, one driver-side ``ray.put`` of
        the allowed ids.  Returns the local allowed-doc count."""
        mask = self.reader.make_doc_mask(ray.get(allowed_ref))
        self._masks[filter_id] = mask
        return int(mask.sum())

    def _op_drop_filter(self, filter_id: str) -> None:
        self._masks.pop(filter_id, None)

    def _op_search(self, query_text: str, k: int, mode: str,
                   filter_id: str | None = None,
                   exclude: str | None = None,
                   after: tuple[float, int] | None = None,
                   ts_files: tuple[str, ...] | None = None
                   ) -> list[tuple[int, float]]:
        """``exclude`` (boolean-NOT terms) and ``after`` (a (score,
        doc_id) pagination cursor) apply shard-locally, as filters do: the
        merge of local pages is the global page, since shards partition
        docs.  ``ts_files``: the caller's tombstone file list (see the
        class docstring); None keeps the current live-mask."""
        self._sync_tombstones(ts_files)
        if filter_id is not None and filter_id not in self._masks:
            raise KeyError(f"filter {filter_id!r} not registered "
                           "(call register_filter first)")
        mask = self._masks[filter_id] if filter_id is not None else None
        hits = self.reader.search(
            query_text, k, mode, mask=mask, exclude=exclude,
            after=tuple(after) if after is not None else None)
        return [(h.doc_id, h.score) for h in hits]

    def _op_phrase(self, query_text: str, k: int, slop: int = 0,
                   ts_files: tuple[str, ...] | None = None
                   ) -> list[tuple[int, float]]:
        """Shard-local phrase top-k (exact when slop=0, proximity window
        otherwise); needs a positions=True index.  Local-then-merge is
        exact for phrases too: shards partition the doc space."""
        self._sync_tombstones(ts_files)
        hits = self.reader.search_phrase(query_text, k, slop=slop)
        return [(h.doc_id, h.score) for h in hits]

    def _op_explain(self, query_text: str, doc_id: int,
                    ts_files: tuple[str, ...] | None = None) -> dict | None:
        """Per-term BM25 breakdown if this actor's shards hold the doc."""
        self._sync_tombstones(ts_files)
        return self.reader.explain(query_text, doc_id)

    def _op_suggest(self, prefix: str, k: int = 10
                    ) -> list[tuple[str, int]] | None:
        """Prefix autocomplete over the GLOBAL dictionary (df desc, term
        asc), which any subset reader holds: only the actor holding
        ``shard-0000`` answers; the others return None."""
        if "shard-0000" not in self._shards:
            return None
        terms = self.reader.expand_prefix(prefix, max_expansions=None)
        items = sorted(((t, int(self.reader._df.get(t, 0)))
                        for t in terms), key=lambda x: (-x[1], x[0]))
        return items[:k]

    def stats(self) -> dict:
        r = self.reader
        n_terms = len(r._loc) if r._lazy else len(r._postings)
        return {"shards": self._shards,
                "n_docs_local": int(r._doc_ids.size),
                "n_terms_local": n_terms,
                "term_cache": r.cache_stats()}


def _merge(parts, k: int) -> list[TopkResult]:
    """Global top-k from the actors' local top-ks (shards partition the
    doc space): score desc, doc_id asc."""
    merged = [h for part in parts for h in part]
    merged.sort(key=lambda ds: (-ds[1], ds[0]))
    return [TopkResult(d, s) for d, s in merged[:k]]


class DistributedSearcher:
    """Partition the index's shards over ``num_actors`` query actors,
    round-robin, never more actors than shards or than the CPUs Ray was
    given (:func:`actor_pool_size`).  An actor holding several shards
    scores them in one reader, with identical results, and spends its
    postings cache budget (``cache_postings_budget``) over all of them.

    Every request reaches the actors through :meth:`_scatter` and ONE Ray
    Compiled Graph (``ray.dag``): an ``InputNode`` fanned out to each
    actor's :meth:`QueryShardActor.call`, gathered by a
    ``MultiOutputNode``.  Its shared-memory channels replace a
    ``.remote()`` round trip per request (trivial actor, one pinned CPU:
    p50 1.77 ms plain, 0.53 ms compiled).  In short:

    * the graph compiles on first use, so opening a searcher does not
      wait for the actors to start;
    * the graph admits one execution in flight (each in-flight slot maps
      ~1 MB of channel memory into every actor).  Requests that arrive
      while it runs queue, and the next execution carries all of them, so
      concurrent requests share round trips instead of taking turns.  A
      lone request runs at once, with no batching window to wait out;
    * an op that raises in an actor (an unregistered filter, say) comes
      back as the same ``RayTaskError`` a plain call raises, fails only
      its own request, and leaves the graph usable.  A dead actor fails
      the request at once, and every request after it, with a
      ``RuntimeError`` that says a shard actor died (the unfinished
      execution holds the one slot); nothing restarts.

    While the graph is live an idle actor reads ~100% CPU in ``/proc``:
    its loop polls the input channel, but yields the CPU to any other
    runnable process.  :meth:`shutdown` waits out a running execution and
    tears the graph down before it kills the actors.

    Deletes stay visible to a running searcher: every query reads the
    manifest's tombstone file list through :meth:`snapshot` and passes it
    to the actors, which reload their live-masks when it changes."""

    def __init__(self, index_dir: str, num_actors: int = 2,
                 lazy: bool = False):
        self._lock = threading.Lock()  # held over each graph execution
        self._qlock = threading.Lock()  # guards _queue and _busy
        self._graph, self._queue, self._busy = None, [], False
        self._dead: str | None = None  # set once an actor has died
        self._mf_path = fsio.join(index_dir, "manifest.json")
        self._snap: tuple = (None, None, None)
        manifest, _ = self.snapshot()
        n_shards = int(manifest["n_shards"])
        # manifest-driven discovery: partial shard dirs from an in-flight
        # extend must stay invisible (same rule as IndexReader)
        shard_names = [f"shard-{i:04d}" for i in range(n_shards)]
        num_actors = actor_pool_size(num_actors, n_shards, _ray_cpus())
        assign: list[list[str]] = [[] for _ in range(num_actors)]
        for i, s in enumerate(shard_names):
            assign[i % num_actors].append(s)
        self.actors = [QueryShardActor.remote(index_dir, names, lazy=lazy)
                       for names in assign if names]

    def snapshot(self) -> tuple[dict, tuple[str, ...]]:
        """(manifest, tombstone file list) of the index as of now.  The
        manifest is re-read only when the ``(st_ino, st_mtime_ns,
        st_size)`` of ``manifest.json`` changes (a stat is ~3 us, a read
        ~54 us; every publish is an atomic replace, hence a new inode).
        URI-backed indexes have no cheap stat and re-read every call."""
        fs, p = fsio.resolve(self._mf_path)
        key = None
        if fs is None:
            st = os.stat(p)
            key = (st.st_ino, st.st_mtime_ns, st.st_size)
        snap = self._snap
        if key is None or key != snap[0]:
            m = fsio.read_json(self._mf_path)
            snap = (key, m, tuple(m.get("tombstone_files", [])))
            self._snap = snap  # one tuple: safe across request threads
        return snap[1], snap[2]

    def _scatter(self, *calls: tuple[str, tuple]) -> list[tuple]:
        """Run each ``(op, args)`` on every actor through the compiled
        graph: per call, one result per actor, in actor order.  Calls
        that arrive while an execution runs queue, and the next execution
        carries all of them.  Waits without a deadline, as a plain
        ``ray.get`` does."""
        slot = {"calls": calls, "ev": threading.Event(), "lead": False,
                "out": None, "err": None}
        with self._qlock:
            self._queue.append(slot)
            slot["lead"] = not self._busy
            self._busy = True
        if not slot["lead"]:
            slot["ev"].wait()  # answered, or handed the next execution
        if slot["lead"]:
            self._execute()
        if slot["err"] is not None:
            raise slot["err"]
        return slot["out"]

    def _execute(self) -> None:
        """Run every queued call as ONE graph execution, then hand the
        graph to the first request that queued meanwhile."""
        with self._qlock:
            batch, self._queue = self._queue, []
        try:
            with self._lock:
                if not self.actors:
                    raise RuntimeError("searcher is shut down")
                if self._dead is not None:
                    raise RuntimeError(self._dead)
                if self._graph is None:
                    from ray.dag import InputNode, MultiOutputNode
                    with InputNode() as inp:
                        dag = MultiOutputNode([a.call.bind(inp)
                                               for a in self.actors])
                    self._graph = dag.experimental_compile(
                        _max_inflight_executions=1)
                try:
                    per_actor = ray.get(self._graph.execute(
                        [c for s in batch for c in s["calls"]]), timeout=-1)
                except (RayActorError, RayChannelError) as exc:
                    # a killed actor surfaces as ActorDiedError, or as
                    # "Channel closed" once Ray has torn the graph down
                    self._dead = ("a shard actor died; this searcher cannot "
                                  f"serve again ({type(exc).__name__}: {exc})")
                    raise RuntimeError(self._dead) from exc
            cols = list(zip(*per_actor))  # per call: one result per actor
            for s in batch:
                s["out"], cols = cols[:len(s["calls"])], cols[len(s["calls"]):]
                s["err"] = next((p.as_instanceof_cause() for ps in s["out"]
                                 for p in ps if isinstance(p, RayTaskError)),
                                None)
        except BaseException as exc:
            for s in batch:
                s["err"] = exc
        finally:
            with self._qlock:
                if self._queue:
                    self._queue[0]["lead"] = True
                    self._queue[0]["ev"].set()
                else:
                    self._busy = False
            for s in batch:
                s["ev"].set()

    def register_filter(self, filter_id: str, allowed_ids) -> int:
        """Broadcast an allowed-doc-id filter to every shard actor (ONE
        ray.put; actors build shard-local masks).  Returns the total
        allowed-doc count across shards (shards partition the doc space,
        so the sum is exact)."""
        import numpy as np
        ref = ray.put(np.asarray(list(allowed_ids), dtype=np.int64))
        return sum(self._scatter(("register_filter", (filter_id, ref)))[0])

    def drop_filter(self, filter_id: str) -> None:
        self._scatter(("drop_filter", (filter_id,)))

    def suggest(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """The dictionary (and df) is global: the actor holding
        ``shard-0000`` answers, the others return None."""
        return next(p for p in self._scatter(("suggest", (prefix, k)))[0]
                    if p is not None)

    def search(self, query_text: str, k: int = 10, mode: str = "or",
               filter_id: str | None = None,
               exclude: str | None = None,
               after: tuple[float, int] | None = None) -> list[TopkResult]:
        return _merge(self._scatter(("search", (
            query_text, k, mode, filter_id, exclude, after,
            self.snapshot()[1])))[0], k)

    def search_many(self, queries: list[dict]) -> list[list[TopkResult]]:
        """Bulk search: ONE graph execution for the whole query list
        (query replay, eval runs, offline scoring).  Each query dict:
        ``{"query_text", "k", "mode"}``.  Rank-identical to per-query
        :meth:`search`."""
        ts = self.snapshot()[1]
        ks = [int(q.get("k", 10)) for q in queries]
        outs = self._scatter(*[("search", (
            q["query_text"], k, q.get("mode", "or"), None, None, None,
            ts)) for q, k in zip(queries, ks)])
        return [_merge(parts, k) for parts, k in zip(outs, ks)]

    def explain(self, query_text: str, doc_id: int) -> dict | None:
        """Shards partition docs: at most one actor answers non-None."""
        return next((a for a in self._scatter(("explain", (
            query_text, doc_id, self.snapshot()[1])))[0] if a is not None),
            None)

    def search_phrase(self, query_text: str, k: int = 10,
                      slop: int = 0) -> list[TopkResult]:
        return _merge(self._scatter(("phrase", (
            query_text, k, slop, self.snapshot()[1])))[0], k)

    def shutdown(self) -> None:
        """Waits out a running execution; requests after it fail."""
        with self._lock:
            if self._graph is not None:
                self._graph.teardown()
                self._graph = None
            for a in self.actors:
                ray.kill(a)
            self.actors = []
