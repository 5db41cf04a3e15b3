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

from .query import IndexReader, TopkResult


@ray.remote
class QueryShardActor:
    """Holds a subset of index shards; state loads once per actor
    (reference ST3 pattern, SURVEY.md §2.3)."""

    def __init__(self, index_dir: str, shard_names: list[str],
                 cache_postings_budget: int = 32_000_000,
                 lazy: bool = False):
        # long-lived actor: cache decoded postings for hot terms (~20B per
        # posting -> default budget ~640MB/actor; the reference's serving
        # process similarly holds its index resident).  The budget unit is
        # posting-EQUIVALENTS: a head term charges postings + f64 dense
        # score vector + its f32 twin (~2.5 n_local per term), so the
        # default is sized to hold the same hot-term count as the
        # pre-f32-twin 20M default — an undersized budget THRASHES (evict/
        # re-decode per query: measured 12x collapse), it does not degrade
        # gracefully.  lazy=True starts serving immediately and faults
        # posting row groups in on demand.
        self.reader = IndexReader(index_dir, shard_subset=shard_names,
                                  cache_postings_budget=cache_postings_budget,
                                  lazy=lazy)
        self._masks: dict[str, "object"] = {}

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
               after: tuple[float, int] | None = None
               ) -> list[tuple[int, float]]:
        """``exclude``: boolean-NOT terms — each actor builds its own
        shard-LOCAL not-mask (O(local df) decode, LRU-cached), exactly as
        filters stay local; nothing global ships per query.  ``after``:
        (score, doc_id) pagination cursor, applied locally — the driver
        merge of local after-pages is the global after-page (shards
        partition docs and the cursor predicate is per-doc)."""
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

    def search_many(self, queries: list[dict],
                    method: str = "auto") -> list[list[tuple[int, float]]]:
        """Shard-local bulk search (one remote call for the whole list;
        see DistributedSearcher.search_many)."""
        return [self.search(q["query_text"], int(q.get("k", 10)),
                            q.get("mode", "or"), method)
                for q in queries]

    def phrase(self, query_text: str, k: int,
               slop: int = 0) -> list[tuple[int, float]]:
        """Shard-local phrase top-k (exact when slop=0, proximity window
        otherwise); needs a positions=True index.  Local-then-merge is
        exact for phrases too: shards partition the doc space."""
        hits = self.reader.search_phrase(query_text, k, slop=slop)
        return [(h.doc_id, h.score) for h in hits]

    def explain(self, query_text: str, doc_id: int) -> dict | None:
        """Per-term BM25 breakdown if this actor's shards hold the doc."""
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
        return {"n_docs_local": int(r._doc_ids.size),
                "n_terms_local": n_terms}


class DistributedSearcher:
    """Partition the index's shards over ``num_actors`` query actors.

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
        from ..state import fsio
        n_shards = int(fsio.read_json(
            fsio.join(index_dir, "manifest.json"))["n_shards"])
        # manifest-driven discovery: partial shard dirs from an in-flight
        # extend must stay invisible (same rule as IndexReader)
        shard_names = [f"shard-{i:04d}" for i in range(n_shards)]
        num_actors = max(1, min(num_actors, len(shard_names)))
        assign: list[list[str]] = [[] for _ in range(num_actors)]
        for i, s in enumerate(shard_names):
            assign[i % num_actors].append(s)
        self.actors = [QueryShardActor.remote(index_dir, names, lazy=lazy)
                       for names in assign if names]

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
        futs = [a.search.remote(query_text, k, mode, method, filter_id,
                                exclude, after)
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
        futs = [a.search_many.remote(queries, method) for a in self.actors]
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
        for ans in ray.get([a.explain.remote(query_text, doc_id)
                            for a in self.actors]):
            if ans is not None:
                return ans
        return None

    def search_phrase(self, query_text: str, k: int = 10,
                      slop: int = 0) -> list[TopkResult]:
        futs = [a.phrase.remote(query_text, k, slop) for a in self.actors]
        merged: list[tuple[int, float]] = []
        for part in ray.get(futs):
            merged.extend(part)
        merged.sort(key=lambda ds: (-ds[1], ds[0]))
        return [TopkResult(d, s) for d, s in merged[:k]]

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
