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

import ray

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

    Query calls carry the caller's tombstone file list (the manifest's
    ``tombstone_files``); the actor reloads its live-mask only when that
    list changes, so a running actor masks docs deleted after it opened."""

    def __init__(self, index_dir: str, shard_names: list[str],
                 cache_postings_budget: int = 20_000_000,
                 lazy: bool = False):
        # long-lived actor: cache decoded hot terms (~20B per posting-
        # equivalent -> default budget ~400MB/actor; the reference's
        # serving process similarly holds its index resident).  A head
        # term charges its postings plus its f64 dense score vector
        # (~2 n_local), so an undersized budget THRASHES (evict/re-decode
        # per query: measured 12x collapse) rather than degrading
        # gracefully — stats()["term_cache"]["evictions"] shows it.
        # lazy=True starts serving immediately and faults posting row
        # groups in on demand.
        self.reader = IndexReader(index_dir, shard_subset=shard_names,
                                  cache_postings_budget=cache_postings_budget,
                                  lazy=lazy)
        self._shards = list(shard_names)
        self._ts_files = tuple(self.reader.manifest.get("tombstone_files",
                                                        []))
        self._masks: dict[str, "object"] = {}

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

    def register_filter(self, filter_id: str, allowed_ids) -> int:
        """Build + cache this actor's LOCAL doc mask for a named filter.
        ``allowed_ids`` arrives via one driver-side ``ray.put`` (broadcast:
        every actor reads the same object-store copy); the stored mask is
        O(local docs) booleans.  Returns the local allowed-doc count."""
        mask = self.reader.make_doc_mask(allowed_ids)
        self._masks[filter_id] = mask
        return int(mask.sum())

    def drop_filter(self, filter_id: str) -> None:
        self._masks.pop(filter_id, None)

    def search(self, query_text: str, k: int, mode: str,
               method: str = "auto",
               filter_id: str | None = None,
               exclude: str | None = None,
               after: tuple[float, int] | None = None,
               ts_files: tuple[str, ...] | None = None
               ) -> list[tuple[int, float]]:
        """``exclude``: boolean-NOT terms — each actor builds its own
        shard-LOCAL not-mask (O(local df) decode, LRU-cached), exactly as
        filters stay local; nothing global ships per query.  ``after``:
        (score, doc_id) pagination cursor, applied locally — the driver
        merge of local after-pages is the global after-page (shards
        partition docs and the cursor predicate is per-doc).
        ``ts_files``: the caller's tombstone file list (see the class
        docstring); None keeps the current live-mask."""
        self._sync_tombstones(ts_files)
        if filter_id is not None and filter_id not in self._masks:
            raise KeyError(f"filter {filter_id!r} not registered "
                           "(call register_filter first)")
        mask = self._masks[filter_id] if filter_id is not None else None
        after = tuple(after) if after is not None else None
        if method == "wand":
            hits = self.reader.search_wand(query_text, k, mode, mask=mask,
                                           exclude=exclude, after=after)
        elif method == "exhaustive":
            hits = self.reader.search_exhaustive(query_text, k, mode,
                                                 mask=mask, exclude=exclude,
                                                 after=after)
        else:
            hits = self.reader.search(query_text, k, mode, mask=mask,
                                      exclude=exclude, after=after)
        return [(h.doc_id, h.score) for h in hits]

    def search_many(self, queries: list[dict], method: str = "auto",
                    ts_files: tuple[str, ...] | None = None
                    ) -> list[list[tuple[int, float]]]:
        """Shard-local bulk search (one remote call for the whole list;
        see DistributedSearcher.search_many)."""
        self._sync_tombstones(ts_files)
        return [self.search(q["query_text"], int(q.get("k", 10)),
                            q.get("mode", "or"), method)
                for q in queries]

    def phrase(self, query_text: str, k: int, slop: int = 0,
               ts_files: tuple[str, ...] | None = None
               ) -> list[tuple[int, float]]:
        """Shard-local phrase top-k (exact when slop=0, proximity window
        otherwise); needs a positions=True index.  Local-then-merge is
        exact for phrases too: shards partition the doc space."""
        self._sync_tombstones(ts_files)
        hits = self.reader.search_phrase(query_text, k, slop=slop)
        return [(h.doc_id, h.score) for h in hits]

    def explain(self, query_text: str, doc_id: int,
                ts_files: tuple[str, ...] | None = None) -> dict | None:
        """Per-term BM25 breakdown if this actor's shards hold the doc."""
        self._sync_tombstones(ts_files)
        return self.reader.explain(query_text, doc_id)

    def suggest(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix autocomplete over the GLOBAL dictionary (df desc, term
        asc).  Any single actor answers globally: subset readers score
        from the global termdict, and the partitioned-termdict reader
        loads only the parts the prefix range touches."""
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


class DistributedSearcher:
    """Partition the index's shards over ``num_actors`` query actors,
    round-robin.  The pool never has more actors than shards or than the
    CPUs Ray was given (:func:`actor_pool_size`, explicit counts included):
    each actor is a single-threaded process of ~190 MB resident, and on a
    host with fewer CPUs than actors the extra ones only add a process hop
    per request.  An actor holding several shards scores them in one
    reader, with identical results.  The postings cache budget
    (``QueryShardActor``'s ``cache_postings_budget``) is per ACTOR, spent
    over all the shards it holds.

    Deletes stay visible to a running searcher: every query reads the
    manifest's tombstone file list through :meth:`snapshot` and passes it
    to the actors, which reload their live-masks when it changes.

    ``batch_window_ms > 0`` enables request micro-batching on the
    interactive path (:meth:`search_batched`): concurrent requests
    arriving within the window ride ONE ``search_many`` scatter instead
    of one scatter each.  The per-request scatter-gather costs the
    router O(actors) Python work, so a single router's interactive
    throughput DEGRADES as the pool widens (measured 136 -> 37 q/s from
    8 to 32 actors); batching amortizes it to O(actors / batch).  The
    window adds up to that many ms of latency at idle — keep it 0 for
    latency-critical single-client use."""

    def __init__(self, index_dir: str, num_actors: int = 2,
                 lazy: bool = False, batch_window_ms: float = 0.0):
        import threading
        self._bw = float(batch_window_ms) / 1000.0
        self._block = threading.Lock()
        self._pending: list[dict] = []
        self._leader = False
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

    def register_filter(self, filter_id: str, allowed_ids) -> int:
        """Broadcast an allowed-doc-id filter to every shard actor (ONE
        ray.put; actors build shard-local masks).  Returns the total
        allowed-doc count across shards (shards partition the doc space,
        so the sum is exact)."""
        import numpy as np
        ref = ray.put(np.asarray(list(allowed_ids), dtype=np.int64))
        return sum(ray.get([a.register_filter.remote(filter_id, ref)
                            for a in self.actors]))

    def drop_filter(self, filter_id: str) -> None:
        ray.get([a.drop_filter.remote(filter_id) for a in self.actors])

    def suggest(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """One actor suffices — the dictionary (and df) is global."""
        return ray.get(self.actors[0].suggest.remote(prefix, k))

    def search(self, query_text: str, k: int = 10, mode: str = "or",
               method: str = "auto",
               filter_id: str | None = None,
               exclude: str | None = None,
               after: tuple[float, int] | None = None) -> list[TopkResult]:
        ts_files = self.snapshot()[1]
        futs = [a.search.remote(query_text, k, mode, method, filter_id,
                                exclude, after, ts_files)
                for a in self.actors]
        merged: list[tuple[int, float]] = []
        for part in ray.get(futs):
            merged.extend(part)
        merged.sort(key=lambda ds: (-ds[1], ds[0]))
        return [TopkResult(d, s) for d, s in merged[:k]]

    def search_batched(self, query_text: str, k: int = 10,
                       mode: str = "or",
                       method: str = "auto") -> list[TopkResult]:
        """Interactive search through the micro-batching gate
        (leader/follower: the first request in a window sleeps the
        window out, drains the queue, and issues ONE search_many for
        everyone; followers block on an event).  Rank-identical to
        :meth:`search`.  Falls through to plain search when batching is
        disabled.  Requests needing filters/exclude/pagination use
        :meth:`search` directly — they don't ride the batch."""
        if self._bw <= 0:
            return self.search(query_text, k, mode, method)
        import threading
        import time as _time
        slot: dict = {"q": {"query_text": query_text, "k": k, "mode": mode},
                      "method": method, "ev": threading.Event(),
                      "res": None, "err": None}
        with self._block:
            self._pending.append(slot)
            lead = not self._leader
            if lead:
                self._leader = True
        if not lead:
            slot["ev"].wait()
            if slot["err"] is not None:
                raise slot["err"]
            return slot["res"]
        _time.sleep(self._bw)
        with self._block:
            batch, self._pending = self._pending, []
            self._leader = False
        by_m: dict[str, list[dict]] = {}
        for s in batch:
            by_m.setdefault(s["method"], []).append(s)
        for m, group in by_m.items():
            try:
                res = self.search_many([s["q"] for s in group], m)
                for s, r in zip(group, res):
                    s["res"] = r
            except BaseException:
                # per-request error isolation: one bad query (or a
                # failed batched call) must not error its window-mates —
                # retry each request individually and stamp its own
                # outcome (the slow path only ever runs on failure)
                for s in group:
                    try:
                        s["res"] = self.search(
                            s["q"]["query_text"], s["q"]["k"],
                            s["q"]["mode"], m)
                    except BaseException as e1:
                        s["err"] = e1
        for s in batch:
            s["ev"].set()
        if slot["err"] is not None:
            raise slot["err"]
        return slot["res"]

    def search_many(self, queries: list[dict],
                    method: str = "auto") -> list[list[TopkResult]]:
        """Bulk search: ONE batched remote call per actor for the whole
        query list (query replay, eval runs, offline scoring).  The
        interactive :meth:`search` pays one scatter-gather per request —
        its throughput through a single router process is bounded by
        that process, not by the actor pool; batching amortizes the
        round-trip to one per actor so bulk throughput scales with the
        scoring tier.  Each query dict: ``{"query_text", "k", "mode"}``.
        Results are rank-identical to per-query :meth:`search`."""
        ts_files = self.snapshot()[1]
        futs = [a.search_many.remote(queries, method, ts_files)
                for a in self.actors]
        parts = ray.get(futs)  # [actor][query] -> [(doc, score)]
        out: list[list[TopkResult]] = []
        for qi, q in enumerate(queries):
            merged: list[tuple[int, float]] = []
            for part in parts:
                merged.extend(part[qi])
            merged.sort(key=lambda ds: (-ds[1], ds[0]))
            out.append([TopkResult(d, s)
                        for d, s in merged[: int(q.get("k", 10))]])
        return out

    def explain(self, query_text: str, doc_id: int) -> dict | None:
        """Ask every shard actor (shards partition docs: at most one
        answers non-None)."""
        ts_files = self.snapshot()[1]
        for ans in ray.get([a.explain.remote(query_text, doc_id, ts_files)
                            for a in self.actors]):
            if ans is not None:
                return ans
        return None

    def search_phrase(self, query_text: str, k: int = 10,
                      slop: int = 0) -> list[TopkResult]:
        ts_files = self.snapshot()[1]
        futs = [a.phrase.remote(query_text, k, slop, ts_files)
                for a in self.actors]
        merged: list[tuple[int, float]] = []
        for part in ray.get(futs):
            merged.extend(part)
        merged.sort(key=lambda ds: (-ds[1], ds[0]))
        return [TopkResult(d, s) for d, s in merged[:k]]

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
