"""Query side: segment reader, exhaustive BM25 scorer, block-max WAND top-k.

Replaces the reference's brute-force full-scan scorer
(``bm25_searcher.py:64-111`` — ``repartition(1)`` + score every doc, then
``orderBy(score desc).limit(10)``) with posting-list traversal:

* :meth:`IndexReader.search_exhaustive` — decode the query terms' postings
  and score them all (NOT the whole corpus).  Serves as the in-engine
  correctness oracle for WAND (SURVEY.md §2.6 O1).
* :meth:`IndexReader.search_wand` — **block-at-a-time** block-max WAND:
  doc-id space is processed in windows bounded by posting-block boundaries;
  a window whose summed block-max upper bound cannot beat the heap
  threshold is skipped WITHOUT decoding, otherwise its blocks decode once
  and score vectorized (numpy).  Python-level iteration count scales with
  the number of BLOCKS (128 postings each), never with postings — a
  doc-at-a-time Python WAND measured 50-80x slower on dense lists.

Correctness notes (tested rank-identical vs the exhaustive path and the
brute-force oracle):
* windows end at the MIN current-block-last over live cursors, so every doc
  in a window is fully covered by the contributing cursors' current blocks
  -> single-window full scores;
* windows advance in ascending doc order and ties keep the earliest
  (smallest) doc_ids, which matches the (score desc, doc_id asc) tie-break,
  so pruning with ``ub <= theta`` never drops a tie that should win;
* block bounds carry no safety margin (see below).

A term's postings may live in several (salt, shard) rows; each row becomes
its own cursor — doc sets are disjoint, so correctness is unaffected and
head-term skew never concentrates in one list (SURVEY.md §4.3.1).
"""

from __future__ import annotations

import os
import threading as _threading
from dataclasses import dataclass

import numpy as np

from ..functions import bm25
from ..functions.codec import (FORMAT_VERSION, EncodedPostings,
                               decode_block, decode_positions,
                               decode_postings)
from ..functions.tokenize import tokenize_filtered
from ..state import checkpoint as ckpt
from ..state import fsio
from ..state.termdict import TermDict

# Block upper bounds carry NO safety margin: the bound and the score are
# the SAME float64 expression (bm25.tf_norm_vec; idf multiply) evaluated
# at a block's impact-frontier (tf, dl) pairs vs each posting's (tf, dl)
# — integer inputs, so a differing input differs by >= 1 and moves the
# real value by >= ~1e-10 relative, 5 orders above the <= ~1e-15
# accumulated rounding of the 5 flops involved; equal inputs give
# bit-identical outputs.  Cross-term sums accumulate in the same cursor
# order on both sides and float addition is monotone with non-negative
# terms, so ub >= score holds exactly in float64.  This matters for pruning under score TIES
# (replicated corpora, boilerplate pages): any positive margin makes a
# tied block's ub exceed theta and forces its decode — a 1e-5 margin
# cost 12x on dense queries over the x256 bench corpus.


def split_not_terms(query_text: str) -> tuple[str, str]:
    """Split leading-minus NOT syntax: ``"spark join -hive"`` ->
    ``("spark join", "hive")``.  Done BEFORE tokenization (the tokenizer
    strips punctuation, so a ``-`` prefix would silently turn an exclusion
    into a positive term).  A bare ``-`` is ignored."""
    pos, neg = [], []
    for w in query_text.split():
        if w.startswith("-") and len(w) > 1:
            neg.append(w[1:])
        else:
            pos.append(w)
    return " ".join(pos), " ".join(neg)


def load_tombstones(index_dir: str, manifest: dict) -> np.ndarray:
    """Sorted unique deleted doc_ids from the manifest's tombstone files
    (``build.delete_docs``); empty array when none."""
    files = manifest.get("tombstone_files", [])
    if not files:
        return np.zeros(0, dtype=np.int64)
    parts = [fsio.pq_read_table(os.path.join(index_dir, f),
                           columns=["doc_id"])["doc_id"]
             .to_numpy(zero_copy_only=False).astype(np.int64)
             for f in files]
    return np.unique(np.concatenate(parts))


def fetch_doc(index_dir: str, doc_id: int, *, manifest: dict | None = None,
              tombstones: np.ndarray | None = None) -> dict | None:
    """Point lookup by doc_id over the per-shard docs tables (SURVEY.md §2.4
    J6/J8).  The reference spawns a fresh spark-submit per request and
    full-scans the corpus for one id (``api/combined.py:227-278`` ->
    ``api/fetch_paper_job.py:19``); here parquet row-group statistics prune
    the scan (predicate pushdown) and no new process or session is needed.
    ``manifest``/``tombstones`` let a long-lived caller (ServeState) skip
    the per-call manifest + tombstone-parquet reads.
    Returns the doc row as a dict, or None."""
    docs = fetch_docs(index_dir, [int(doc_id)], manifest=manifest,
                      tombstones=tombstones)
    return docs.get(int(doc_id))


def fetch_docs(index_dir: str, doc_ids, *, manifest: dict | None = None,
               tombstones: np.ndarray | None = None,
               columns: list[str] | None = None) -> dict[int, dict]:
    """BATCHED point lookup: ONE filtered read per shard for the whole id
    set, instead of one fetch round-trip per id (the serving snippets path
    needs k docs per request — per-hit ``fetch_doc`` re-read the manifest,
    every tombstone parquet, and the shard footers k times).  Tombstoned
    and absent ids are simply missing from the result.

    Fast path: each shard's doc-store sidecar (``state/docstore.py``)
    resolves ids to exact (file, row group, row) in O(k) pruned reads —
    a lookup never scans a shard — and hot rows come from the doc store's
    in-process cache.  Tombstoned ids are dropped before it is consulted.
    Missing/stale sidecars fall back to a filtered scan of every shard,
    run concurrently on the doc store's read pool (the filtered parquet
    reads release the GIL).  ``columns`` prunes the doc payload read
    (``doc_id`` is always included — the result is keyed on it)."""
    ids = sorted({int(i) for i in doc_ids})
    if not ids:
        return {}
    shards_root = os.path.join(index_dir, "shards")
    if manifest is None:
        manifest = ckpt.read_json(os.path.join(index_dir, "manifest.json"))
    ts = load_tombstones(index_dir, manifest) if tombstones is None \
        else tombstones
    if ts.size:
        arr = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(ts, arr)
        dead = (pos < ts.size) & (ts[np.minimum(pos, ts.size - 1)] == arr)
        ids = arr[~dead].tolist()
        if not ids:
            return {}
    if columns is not None and "doc_id" not in columns:
        columns = ["doc_id", *columns]
    from ..state import docstore
    n_shards = int(manifest["n_shards"])
    if manifest.get("docs_idx"):
        # sidecar fast path; None = a missing/stale sidecar in some shard
        # -> whole-call fallback to the scan (the sidecar is an
        # accelerator, not a correctness dependency)
        got = docstore.lookup_shard_docs(
            [ckpt.shard_dir(index_dir, i) for i in range(n_shards)],
            ids, columns=columns)
        if got is not None:
            return got
    flt = [("doc_id", "in", ids)]
    tables = docstore._read_pool().map(
        lambda s: fsio.pq_read_table(
            os.path.join(shards_root, s, "docs"), filters=flt,
            columns=columns),
        (f"shard-{i:04d}" for i in range(n_shards)))
    out: dict[int, dict] = {}
    for t in tables:
        for row in t.to_pylist():
            out.setdefault(int(row["doc_id"]), row)
    return out


@dataclass
class TopkResult:
    doc_id: int
    score: float


class _BlockCursor:
    """Block-granular view over one (term, salt) shard."""

    __slots__ = ("enc", "term_i", "idf", "ub", "rest", "bi", "nb",
                 "_ids", "_tfs")

    def __init__(self, enc: EncodedPostings, term_i: int, idf: float,
                 avg_dl: float):
        self.enc = enc
        self.term_i = term_i
        self.idf = idf
        # bounds depend only on (avg_dl, idf), both fixed for a reader's
        # lifetime (extend_index re-opens readers), so cache them on the
        # enc — the frontier tf_norm pass otherwise re-runs per search
        cached = getattr(enc, "_wand_bounds", None)
        if cached is not None and cached[0] == avg_dl and cached[1] == idf:
            self.ub, self.rest = cached[2], cached[3]
        else:
            # v4 impact frontier: the block bound is the EXACT max
            # per-doc tf_norm under the CURRENT avg_dl — max over the
            # block's Pareto (tf, dl) pairs (codec.block_impact_frontier).
            # Every pair is a real doc's (tf, dl), so a tied block's
            # bound EQUALS theta bitwise and ``ub > theta`` pruning
            # skips it — the cross-doc (max_tf, min_dl) pairing could
            # not (its bound exceeded theta on nearly every block of a
            # tie-heavy corpus).
            off = np.concatenate(
                ([0], np.cumsum(enc.imp_n[:-1], dtype=np.int64)))
            vals = bm25.tf_norm_vec(enc.imp_tf.astype(np.float64),
                                    enc.imp_dl.astype(np.float64),
                                    avg_dl)
            bound = np.maximum.reduceat(vals, off)
            self.ub = idf * bound
            # suffix max of block ubs: rest_ub() bounds every posting this
            # cursor can still produce, enabling whole-query early
            # termination
            self.rest = np.maximum.accumulate(self.ub[::-1])[::-1] \
                if self.ub.size else self.ub
            enc._wand_bounds = (avg_dl, idf, self.ub, self.rest)
        self.bi = 0
        self.nb = enc.block_first.size
        self._ids = self._tfs = None

    @property
    def live(self) -> bool:
        return self.bi < self.nb

    def block_first(self) -> int:
        return int(self.enc.block_first[self.bi])

    def block_last(self) -> int:
        return int(self.enc.block_last[self.bi])

    def block_ub(self) -> float:
        return float(self.ub[self.bi])

    def rest_ub(self) -> float:
        """Upper bound over ALL remaining blocks (suffix max)."""
        return float(self.rest[self.bi])

    def decoded(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ids is None:
            self._ids, self._tfs = decode_block(self.enc, self.bi)
        return self._ids, self._tfs

    def advance_block(self) -> None:
        self.bi += 1
        self._ids = self._tfs = None


def _after_mask(scores: np.ndarray, doc_ids: np.ndarray,
                after: tuple[float, int] | None) -> np.ndarray | None:
    """Pagination cursor predicate: keep docs strictly AFTER ``after`` in
    (score desc, doc_id asc) rank order.  Scores are raw floats — the
    engine recomputes them identically per page, so equality at the
    cursor is exact (no epsilon needed)."""
    if after is None:
        return None
    a_s, a_d = after
    return (scores < a_s) | ((scores == a_s) & (doc_ids > a_d))


class _TopK:
    """Bounded top-k accumulator with (score desc, doc asc) tie-break,
    updated in bulk with numpy."""

    def __init__(self, k: int):
        self.k = k
        self.docs = np.zeros(0, dtype=np.int64)
        self.scores = np.zeros(0, dtype=np.float64)

    @property
    def theta(self) -> float:
        return float(self.scores[-1]) if self.scores.size == self.k else -np.inf

    def offer(self, docs: np.ndarray, scores: np.ndarray) -> None:
        """Merge candidates (docs ascending within a window; earlier windows
        came first, so ties resolve to smaller doc ids via stable ordering)."""
        d = np.concatenate((self.docs, docs))
        s = np.concatenate((self.scores, scores))
        order = np.lexsort((d, -s))[: self.k]
        self.docs, self.scores = d[order], s[order]

    def results(self) -> list[TopkResult]:
        return [TopkResult(int(d), float(s))
                for d, s in zip(self.docs, self.scores)]


class _TermEntry:
    """One term's decoded postings, concatenated over its (salt, shard)
    rows: doc ids, tfs and dense local doc positions (``idx``), plus the
    exhaustive scorer's final per-term scores ``(dense, vec)`` once
    computed: head terms hold the dense per-doc f64 vector, rare terms
    the per-posting scores.  Scores stay valid for the reader's lifetime
    (idf, df and avg_dl are fixed per manifest; deletes mask candidates
    without changing survivor scores).  ``charge`` is what the entry
    holds against the reader's cache budget (posting-equivalents); it is
    > 0 exactly while the entry is cached."""

    __slots__ = ("ids", "tfs", "idx", "scores", "charge")

    def __init__(self, ids: np.ndarray, tfs: np.ndarray, idx: np.ndarray):
        self.ids, self.tfs, self.idx = ids, tfs, idx
        self.scores: tuple[bool, np.ndarray] | None = None
        self.charge = 0


class IndexReader:
    """Loads manifest + doc-length table + segment rows for query serving.

    At test scale everything is held in memory (the reference's serving layer
    similarly loads its stats/index at startup, ``api/combined.py:100-126``).
    At 10^12-doc scale the same layout serves via per-shard query actors that
    mmap their segment files and a driver-side k-way heap merge — the
    segment schema (offsets + block metadata) is designed for range reads.
    """

    def __init__(self, index_dir: str, shard_subset: list[str] | None = None,
                 cache_postings_budget: int = 0, lazy: bool = False):
        """``shard_subset``: load only these shard dir names (for per-actor
        partitioned serving).  Global stats (N, avg_dl) always come from the
        manifest and per-term GLOBAL df from ``termdict.parquet``, so scores
        from a subset reader equal the full reader's on its shards' docs.

        ``cache_postings_budget``: if > 0, keep decoded terms (ids + tfs +
        dense doc positions, plus the exhaustive scorer's per-term scores)
        in ONE LRU keyed by term, holding at most this many
        posting-equivalents (a posting or a score element counts one).
        Off by default — a one-shot reader pays decode per query, which is
        the honest batch-latency number; long-lived query actors
        (pipelines/serve.py) turn it on because re-decoding the same head
        terms per request is wasted work (the reference's serving layer
        similarly keeps its whole index resident, ``api/combined.py:100-126``).
        Memory cost ~20 bytes per cached posting-equivalent.

        ``lazy``: don't read segment payloads at open.  Open cost becomes
        O(vocab) (term + df columns only); a term's posting rows are read
        from their parquet ROW GROUPS on first access (SCALE.md switch
        point 3 — the on-demand loader a node with thousands of shards
        needs).  Results are identical to eager mode (tested)."""
        self.index_dir = index_dir
        self._cache_budget = int(cache_postings_budget)
        # the term cache: insertion order is recency order (oldest first);
        # _charge is the only place it grows, _term the only reader
        self._terms: dict[str, _TermEntry] = {}
        self._cached_postings = 0  # sum of the cached entries' charges
        self._evictions = 0
        # reusable per-thread score-accumulation buffer: a fresh 5-40 MB
        # calloc per query re-faults its pages every time; at 32
        # concurrent query actors the scorer is MEMORY-BANDWIDTH bound,
        # so every avoided full-array pass shows up in throughput
        self._score_tls = _threading.local()
        self._sorted_vocab: list[str] | None = None  # lazy, for prefix expansion
        self.last_wand_stats: dict | None = None  # set by search_wand
        self.manifest = ckpt.read_json(os.path.join(index_dir, "manifest.json"))
        fv = self.manifest.get("format_version")
        if fv != FORMAT_VERSION:
            raise ValueError(
                f"index at {index_dir} has format_version={fv!r}, this "
                f"reader supports v{FORMAT_VERSION}: index format too old, "
                f"rebuild required")
        self.n_docs = int(self.manifest["n_docs"])
        self.avg_dl = float(self.manifest["avg_dl"])
        shards_root = os.path.join(index_dir, "shards")
        # discover shards from the MANIFEST, not listdir: a crashed or
        # concurrent extend_index may have published partial shard dirs
        # (docs but no seg yet) that must stay invisible until finalized
        shard_names = shard_subset or [
            f"shard-{i:04d}" for i in range(int(self.manifest["n_shards"]))]
        ids_parts, dl_parts = [], []
        for s in shard_names:
            t = fsio.pq_read_table(os.path.join(shards_root, s, "docs"),
                              columns=["doc_id", "doc_len"])
            ids_parts.append(t["doc_id"].to_numpy())
            dl_parts.append(t["doc_len"].to_numpy())
        ids = np.concatenate(ids_parts) if ids_parts else np.zeros(0, np.int64)
        dls = np.concatenate(dl_parts) if dl_parts else np.zeros(0, np.int32)
        order = np.argsort(ids)
        self._doc_ids = ids[order]
        self._doc_lens = dls[order].astype(np.float64)
        # segments: term -> [EncodedPostings, ...].  Loaded batch-vectorized:
        # list columns flatten ONCE per record batch into numpy (per-row
        # arrays are views via offset slicing) and the varint streams stay
        # zero-copy memoryviews into the Arrow data buffers — the previous
        # per-row to_pydict() conversion cost ~15s / 2x memory on a 5M-doc
        # index.
        self._postings: dict[str, list[EncodedPostings]] = {}
        self._df: dict[str, int] = {}
        self._lazy = bool(lazy)
        seg_files = []
        for s in shard_names:
            seg_dir = os.path.join(shards_root, s, "seg")
            seg_files.extend(os.path.join(seg_dir, f)
                             for f in sorted(fsio.listdir(seg_dir))
                             if f.endswith(".parquet"))
        if self._lazy:
            # term -> [(file_idx, row_group_idx), ...] from the term column
            # only; payload row groups read on demand (_ensure_term)
            self._seg_files = seg_files
            self._loc: dict[str, list[tuple[int, int]]] = {}
            self._loaded_rgs: set[tuple[int, int]] = set()
            for fi, f in enumerate(seg_files):
                pf = fsio.pq_file(f)
                for rg in range(pf.metadata.num_row_groups):
                    terms = pf.read_row_group(rg, columns=["term"])["term"]
                    for term in set(terms.to_pylist()):
                        self._loc.setdefault(term, []).append((fi, rg))
        else:
            for f in seg_files:
                for rb in fsio.pq_read_table(f).to_batches():
                    self._load_seg_batch(rb)
        # lazy readers can't sum local df incrementally; subset readers must
        # score with GLOBAL df — both take it from the termdict.  The
        # partitioned layout (termdict_dir, state/termdict.py) loads parts
        # on demand — nothing vocabulary-sized is materialized up front;
        # legacy single-file manifests still load eagerly into a dict.
        if shard_subset is not None or self._lazy:
            td_dir = self.manifest.get("termdict_dir")
            if td_dir is not None:
                self._df = TermDict(os.path.join(index_dir, td_dir))
            else:
                td_path = os.path.join(
                    index_dir,
                    self.manifest.get("termdict_file", "termdict.parquet"))
                td = fsio.pq_read_table(td_path)
                self._df = dict(zip(td["term"].to_pylist(),
                                    (int(x) for x in td["df"].to_pylist())))
        self.set_tombstones(load_tombstones(index_dir, self.manifest))

    def set_tombstones(self, ts: np.ndarray) -> None:
        """Install the live-mask for ``ts``, the sorted deleted doc_ids of
        :func:`load_tombstones` (``build.delete_docs``); it is ANDed into
        every search via _mask_with_exclude.  Lucene-style semantics —
        deleted docs never surface but global stats (df, avg_dl) keep
        counting them until compaction purges (scores stay stable), so a
        long-lived reader can follow later deletes by calling this again.
        O(deleted * log local docs); the mask stays None when none of
        this reader's docs is deleted."""
        n = self._doc_ids.size
        pos = np.searchsorted(self._doc_ids, ts)
        hit = pos < n
        pos = pos[hit][self._doc_ids[pos[hit]] == ts[hit]]
        live = None
        if pos.size:
            live = np.ones(n, dtype=bool)
            live[pos] = False
        self._live = live

    def _has_term(self, t: str) -> bool:
        return t in (self._loc if self._lazy else self._postings)

    def _encs(self, t: str) -> list[EncodedPostings]:
        if self._lazy:
            # complete iff every row group holding one of this term's rows
            # is materialized (a term can be PARTIALLY present because a
            # row-group load materializes all its rows for other terms too)
            for fi, rg in self._loc.get(t, ()):
                if (fi, rg) in self._loaded_rgs:
                    continue
                self._loaded_rgs.add((fi, rg))
                pf = fsio.pq_file(self._seg_files[fi])
                for rb in pf.read_row_group(rg).to_batches():
                    self._load_seg_batch(rb)
        return self._postings.get(t, [])

    def _load_seg_batch(self, rb) -> None:
        """Add one segment record batch to the in-memory posting map."""
        n = rb.num_rows
        if n == 0:
            return
        terms = rb.column("term").to_pylist()
        dfs = rb.column("df").to_numpy()

        def binary_views(name):
            col = rb.column(name)
            # BinaryArray exposes no .offsets property; read the raw int32
            # offsets buffer (honoring a possible array offset)
            offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
                col.offset: col.offset + len(col) + 1]
            data = memoryview(col.buffers()[2])
            return offs, data

        d_offs, d_data = binary_views("doc_bytes")
        t_offs, t_data = binary_views("tf_bytes")
        p_offs, p_data = binary_views("pos_bytes")

        def flat(name, dtype):
            # .values (not .flatten()) so the child array aligns with the
            # RAW offsets even if the batch were a slice
            col = rb.column(name)
            vals = col.values.to_numpy(zero_copy_only=False)
            return col.offsets.to_numpy(), np.ascontiguousarray(vals, dtype=dtype)

        bf_o, bf = flat("block_first", np.int64)
        bl_o, bl = flat("block_last", np.int64)
        bd_o, bd = flat("block_doc_off", np.int32)
        bt_o, bt = flat("block_tf_off", np.int32)
        bp_o, bp = flat("block_pos_off", np.int32)
        it_o, it = flat("imp_tf", np.int64)
        id_o, idl = flat("imp_dl", np.int32)
        in_o, inn = flat("imp_n", np.int32)
        for i in range(n):
            enc = EncodedPostings(
                df=int(dfs[i]),
                doc_bytes=d_data[d_offs[i]:d_offs[i + 1]],
                tf_bytes=t_data[t_offs[i]:t_offs[i + 1]],
                block_first=bf[bf_o[i]:bf_o[i + 1]],
                block_doc_off=bd[bd_o[i]:bd_o[i + 1]],
                block_tf_off=bt[bt_o[i]:bt_o[i + 1]],
                block_last=bl[bl_o[i]:bl_o[i + 1]],
                pos_bytes=p_data[p_offs[i]:p_offs[i + 1]],
                block_pos_off=bp[bp_o[i]:bp_o[i + 1]],
                imp_tf=it[it_o[i]:it_o[i + 1]],
                imp_dl=idl[id_o[i]:id_o[i + 1]],
                imp_n=inn[in_o[i]:in_o[i + 1]],
            )
            term = terms[i]
            self._postings.setdefault(term, []).append(enc)
            if not self._lazy:  # lazy/subset df comes from termdict (global)
                self._df[term] = self._df.get(term, 0) + enc.df

    # ------------------------------------------------------------ helpers --

    def doc_lens_vec(self, doc_ids: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._doc_ids, doc_ids)
        return self._doc_lens[idx]

    def make_doc_mask(self, allowed_ids) -> np.ndarray:
        """Boolean mask over this reader's LOCAL doc positions (aligned to
        the sorted ``_doc_ids`` table): True where the doc may appear in
        filtered results.  ``allowed_ids`` is any int64 iterable of doc_ids
        — typically the output of a metadata predicate pushed down to a
        docs/metadata parquet scan (``lang == 'en'``, a date range, ...).

        Scale note: the mask is O(docs in THIS reader), never global — a
        shard-subset serving actor builds its mask from its own shard's
        metadata, so a 10^12-doc filter costs each actor only its slice.
        Filtered scoring keeps GLOBAL BM25 statistics (df, avg_dl): the
        filter restricts which docs may be returned, not the collection
        the scores are computed against (standard filtered-search
        semantics — Lucene's ``FILTER`` clause behaves the same)."""
        allowed = np.unique(np.fromiter(
            (int(x) for x in allowed_ids), dtype=np.int64))
        if allowed.size == 0:
            return np.zeros(self._doc_ids.size, dtype=bool)
        pos = np.searchsorted(allowed, self._doc_ids)
        pos[pos == allowed.size] = allowed.size - 1
        return allowed[pos] == self._doc_ids

    def idf(self, term: str) -> float:
        return bm25.idf(self.n_docs, self._df.get(term, 0))

    def _term(self, t: str) -> _TermEntry:
        """The term cache's one accessor, for every path that reads a
        term's postings: a hit moves the entry to the most-recent end; a
        miss decodes the term and caches it if it fits (budget-0 readers
        get an uncached entry every call)."""
        e = self._terms.pop(t, None)
        if e is not None:
            self._terms[t] = e
            return e
        parts = [decode_postings(enc) for enc in self._encs(t)]
        ids = np.concatenate([p[0] for p in parts])
        e = _TermEntry(ids, np.concatenate([p[1] for p in parts]),
                       np.searchsorted(self._doc_ids, ids))
        self._charge(t, e, ids.size)
        return e

    def _charge(self, t: str, e: _TermEntry, n: int) -> bool:
        """Charge ``n`` posting-equivalents to ``t``'s entry ``e``,
        caching ``e`` if it is new.  The only place the cache grows:
        evicts least-recently-used entries (never ``e``) until the budget
        holds.  Returns False, changing nothing, when ``e`` plus ``n``
        cannot fit the budget at all."""
        if not 0 < e.charge + n <= self._cache_budget:
            return False
        while self._cached_postings + n > self._cache_budget:
            old = next(o for o in self._terms if o != t)
            ev = self._terms.pop(old)
            self._cached_postings -= ev.charge
            ev.charge = 0
            self._evictions += 1
        e.charge += n
        self._cached_postings += n
        self._terms[t] = e
        return True

    def cache_stats(self) -> dict:
        """Term-cache occupancy: cached terms, charged posting-equivalents
        against the budget, and evictions so far (a count that climbs
        with steady traffic means the working set does not fit)."""
        return {"terms": len(self._terms),
                "postings": self._cached_postings,
                "budget": self._cache_budget,
                "evictions": self._evictions}

    def query_terms(self, query_text: str) -> list[str]:
        """Unique query terms, first-occurrence order.  OOV terms simply have
        no postings (reference dropped them against its 50k vocab,
        ``bm25_searcher.py:52-53`` — observably the same)."""
        seen: dict[str, None] = {}
        for t in tokenize_filtered(query_text):
            seen.setdefault(t, None)
        return list(seen)

    def expand_prefix(self, prefix: str,
                      max_expansions: int | None = 64) -> list[str]:
        """Terms of the GLOBAL dictionary starting with ``prefix``
        (wildcard ``prefix*`` support).  With a cap, the highest-df
        expansions win (df desc, term asc — deterministic); ``None``
        means unbounded (used by the oracle-checked query so engine and
        SQL expand identically).

        The sorted vocabulary is built lazily ONCE per reader and
        bisected per lookup — O(log vocab + matches); the term dictionary
        is already resident (global df scoring needs it), so this adds no
        new memory class.  Returned order is ascending term order."""
        import bisect
        from ..functions.tokenize import _TOKEN_RE, normalize
        toks = _TOKEN_RE.findall(normalize(prefix))
        if not toks:
            return []
        if len(toks) > 1:
            # "data-base*" tokenizes to ["data", "base"]; silently expanding
            # only the tail would DROP the leading tokens from the query.
            # _rewrite_wildcards splits such words itself; direct callers
            # get a loud error instead of silently changed results.
            raise ValueError(
                f"wildcard prefix {prefix!r} tokenizes to multiple tokens "
                f"{toks}; pass the leading tokens as ordinary query terms "
                "and expand only the final token")
        p = toks[-1]
        if isinstance(self._df, TermDict):
            # partition-aware path: touches only the term-range parts the
            # prefix can live in — the whole point of the partitioned
            # termdict (nothing vocabulary-sized is materialized)
            matches = self._df.prefix_items(p)
            out = [t for t, _ in matches]
            if max_expansions is not None and len(out) > max_expansions:
                dfm = dict(matches)
                out = sorted(out,
                             key=lambda t: (-dfm[t], t))[:max_expansions]
                out.sort()
            return out
        if self._sorted_vocab is None:
            self._sorted_vocab = sorted(self._df)
        sv = self._sorted_vocab
        lo = bisect.bisect_left(sv, p)
        out = []
        for i in range(lo, len(sv)):
            if not sv[i].startswith(p):
                break
            out.append(sv[i])
        if max_expansions is not None and len(out) > max_expansions:
            out = sorted(out, key=lambda t: (-self._df[t], t))[:max_expansions]
            out.sort()
        return out

    def _rewrite_wildcards(self, query_text: str, mode: str,
                           max_expansions: int | None = 64) -> str:
        """Replace ``word*`` tokens with their dictionary expansions (an
        OR group).  AND mode rejects multi-term expansions — flat AND
        would demand EVERY expansion, which is not what a wildcard means;
        proper OR-groups-inside-AND would need a grouped scorer."""
        if "*" not in query_text:
            return query_text
        from ..functions.tokenize import _TOKEN_RE, normalize
        out = []
        for w in query_text.split():
            if len(w) > 1 and w.endswith("*"):
                # a wildcard word may tokenize to several tokens
                # ("data-base*" -> ["data", "base"]): the leading tokens are
                # ordinary query terms; only the FINAL token expands
                toks = _TOKEN_RE.findall(normalize(w[:-1]))
                if not toks:
                    continue
                out.extend(toks[:-1])
                exp = self.expand_prefix(toks[-1], max_expansions)
                if mode == "and" and len(exp) > 1:
                    raise ValueError(
                        f"wildcard {w!r} expands to {len(exp)} terms; "
                        "prefix queries are OR groups — use mode='or'")
                out.extend(exp)
            else:
                out.append(w)
        return " ".join(out)

    def _preprocess(self, query_text: str, mode: str,
                    exclude: str | None,
                    max_expansions: int | None = 64
                    ) -> tuple[str, str | None]:
        """Shared query-syntax pass for every scorer: leading-minus NOT
        terms move into ``exclude``, ``word*`` wildcards expand (capped at
        ``max_expansions`` highest-df terms; None = unbounded, used by the
        oracle-checked queries so engine and SQL expand identically).
        Idempotent (the rewritten text contains neither syntax), so the
        cost-based :meth:`search` can preprocess and still delegate."""
        query_text, neg = split_not_terms(query_text)
        if neg:
            exclude = f"{exclude} {neg}" if exclude else neg
        return self._rewrite_wildcards(query_text, mode, max_expansions), \
            exclude

    def make_not_mask(self, exclude_text: str) -> np.ndarray | None:
        """Boolean mask excluding every doc that contains ANY term of
        ``exclude_text`` (boolean NOT).  None when no excluded term exists
        locally (nothing to mask).

        Cost: one postings decode per excluded term — O(df) per term, the
        standard price of NOT in an inverted index; shard-subset actors
        each pay only their local df.  The term cache makes a
        repeated exclusion term free.  Composes with :meth:`make_doc_mask`
        by AND (both are local-position masks).  ``word*`` wildcards in the
        exclusion expand from the dictionary (always OR semantics: a doc
        containing ANY expansion is dropped)."""
        exclude_text = self._rewrite_wildcards(exclude_text, "or")
        terms = [t for t in self.query_terms(exclude_text)
                 if self._has_term(t)]
        if not terms:
            return None
        mask = np.ones(self._doc_ids.size, dtype=bool)
        for t in terms:
            mask[self._term(t).idx] = False
        return mask

    def _mask_with_exclude(self, mask: np.ndarray | None,
                           exclude: str | None) -> np.ndarray | None:
        """Effective allowed-mask: user filter AND boolean-NOT terms AND
        the tombstone live-mask (deleted docs never surface — every
        search entry point funnels through here)."""
        if self._live is not None:
            mask = self._live if mask is None else (mask & self._live)
        if not exclude:
            return mask
        nm = self.make_not_mask(exclude)
        if nm is None:
            return mask
        return nm if mask is None else (mask & nm)

    def _effective_terms(self, query_text: str, mode: str) -> list[str] | None:
        """Query terms this reader can serve, or ``None`` when an AND query
        cannot match locally.

        OOV is judged GLOBALLY (df from termdict for subset/lazy readers):
        a truly-unknown term is dropped in both modes (reference behavior),
        but a term that exists in the corpus while having no postings in
        THIS reader's shard subset means no local doc can satisfy an AND
        query — dropping it instead would let a shard actor return docs
        missing that term (spurious AND hits after the serve-side merge)."""
        terms = [t for t in self.query_terms(query_text)
                 if self._df.get(t, 0) > 0]
        if mode == "and" and any(not self._has_term(t) for t in terms):
            return None
        return [t for t in terms if self._has_term(t)]

    # -------------------------------------------------------- exhaustive ---

    def search_exhaustive(self, query_text: str, k: int = 10,
                          mode: str = "or",
                          mask: np.ndarray | None = None,
                          exclude: str | None = None,
                          after: tuple[float, int] | None = None,
                          max_expansions: int | None = 64
                          ) -> list[TopkResult]:
        """Decode all query-term postings, score fully, top-k.
        ``exclude``: boolean-NOT terms (docs containing any are dropped —
        :meth:`make_not_mask`); ANDed into ``mask``.  ``after``: a
        ``(score, doc_id)`` pagination cursor — only docs ranking
        strictly after it are returned (search-after paging; see
        ``_after_mask`` for why no epsilon is needed).

        Accumulates into a DENSE per-doc score array: posting doc_ids map to
        [0, n_local) positions via one ``searchsorted`` against the sorted
        doc-id table (the same lookup that fetches doc lengths), and per-term
        scores sum with ``np.bincount`` — O(postings + n_local), replacing
        the O(P log P) ``np.unique`` + scatter-add that dominated latency on
        dense corpora.  Top-k via ``argpartition`` on the nonzero candidates,
        tie-broken (score desc, doc_id asc)."""
        query_text, exclude = self._preprocess(query_text, mode, exclude,
                                                max_expansions)
        mask = self._mask_with_exclude(mask, exclude)
        terms = self._effective_terms(query_text, mode)
        if not terms:
            return []
        n_local = self._doc_ids.size
        agg: np.ndarray | None = None
        hits = np.zeros(n_local, dtype=np.int16) if mode == "and" else None
        for t in terms:
            # one decode + lookup per TERM, not per (salt, shard) row — head
            # terms fan out to num_salts * num_shards rows and the per-row
            # numpy fixed cost dominated dense-query latency
            e = self._term(t)
            idx = e.idx
            hit = e.scores
            cached = hit is not None
            if hit is None:
                dls = self._doc_lens[idx]
                s = bm25.score_vec(self.idf(t), e.tfs, dls, self.avg_dl)
                # head terms (df >= n/8) cache the DENSE per-doc score
                # vector: the per-query bincount scatter (~5x a vector
                # add) collapses to one add.  At the df = n/8 boundary
                # the dense form is up to 8x the sparse scores, so its
                # TRUE element count is charged to the term's entry.
                # Values are the bincount output either way — bitwise
                # identical results.
                dense = idx.size >= max(1, n_local // 8)
                d = np.bincount(idx, weights=s, minlength=n_local) \
                    if dense else s
                hit = (dense, d)
                # only a cached entry takes scores (charge > 0)
                if e.charge and self._charge(t, e, d.size):
                    e.scores = hit
                    cached = True
            v = hit[1] if hit[0] \
                else np.bincount(idx, weights=hit[1], minlength=n_local)
            # the dense-vector add chain is pure memory traffic; skip the
            # zeros memset by seeding agg from the first term — stealing
            # the bincount output when it is query-local, copying into
            # the reusable thread-local buffer when it is a cache entry
            # that later adds must not mutate
            if agg is None:
                if hit[0] and cached:
                    # v IS the cached dense vector — copy, don't mutate
                    buf = getattr(self._score_tls, "buf", None)
                    if buf is None or buf.size != n_local:
                        buf = np.empty(n_local)
                        self._score_tls.buf = buf
                    np.copyto(buf, v)
                    agg = buf
                else:
                    # dense-uncached or any sparse path: v is query-local
                    # (fresh bincount / fresh dense build) — steal it
                    agg = v
            else:
                agg += v
            if hits is not None:
                hits[idx] += np.int16(1)
        assert agg is not None
        if hits is None and mask is None and after is None and n_local > k:
            # unfiltered OR fast path: partition the FULL array in place of
            # building the agg>0 candidate set first (on a dense corpus that
            # set IS the corpus; flatnonzero + the negated fancy-indexed
            # copy were two extra full-array passes).  thr = k-th largest
            # overall == k-th largest among positives whenever >= k docs
            # matched; ties at thr are all kept, identical to the generic
            # path below.
            part = np.argpartition(agg, n_local - k)
            thr = agg[part[n_local - k]]
            if thr > 0.0:
                cand = np.flatnonzero(agg >= thr)
                order = np.lexsort((self._doc_ids[cand], -agg[cand]))[:k]
                cand = cand[order]
                return [TopkResult(int(self._doc_ids[i]), float(agg[i]))
                        for i in cand]
            # thr == 0: fewer than k matching docs — generic path
        if hits is not None:
            cand = np.flatnonzero(hits == len(terms))
        else:
            cand = np.flatnonzero(agg > 0.0)
        if mask is not None and cand.size:
            cand = cand[mask[cand]]  # metadata filter (make_doc_mask)
        if after is not None and cand.size:
            cand = cand[_after_mask(agg[cand], self._doc_ids[cand], after)]
        if cand.size == 0:
            return []
        if cand.size > k:
            # keep everything >= the k-th largest score so doc_id tie-break
            # stays exact, then order the (small) candidate set
            part = np.argpartition(-agg[cand], k - 1)
            thr = agg[cand[part[k - 1]]]
            cand = cand[agg[cand] >= thr]
        order = np.lexsort((self._doc_ids[cand], -agg[cand]))[:k]
        cand = cand[order]
        return [TopkResult(int(self._doc_ids[i]), float(agg[i])) for i in cand]

    # ------------------------------------------------------------- search --

    def search(self, query_text: str, k: int = 10, mode: str = "or",
               mask: np.ndarray | None = None,
               exclude: str | None = None,
               after: tuple[float, int] | None = None,
               max_expansions: int | None = 64) -> list[TopkResult]:
        """Cost-based scorer choice.  A reader with a postings-cache
        budget (the serving config) always uses the cached exhaustive
        scorer — its term cache amortizes decode + scoring across requests.
        A budget-0 one-shot reader uses block-max WAND when terms are
        selective (decode only the blocks the bounds can't prune) and
        the single-pass vectorized exhaustive scorer on dense lists
        (mean df/N above 0.10 — every window must be scored anyway).
        All paths are rank-identical (tested).
        ``mask``: see :meth:`make_doc_mask`.

        Query syntax (``_preprocess``, shared by all three scorers):
        leading-minus words are boolean NOT (``"spark join -hive"`` drops
        docs containing ``hive``; composes with the explicit ``exclude``
        parameter) and trailing-star words are prefix wildcards
        (``"spar*"`` expands to an OR group from the term dictionary)."""
        query_text, exclude = self._preprocess(query_text, mode, exclude,
                                                max_expansions)
        mask = self._mask_with_exclude(mask, exclude)
        terms = self._effective_terms(query_text, mode)
        if not terms:
            return []
        # Serving config (postings cache budget set): the exhaustive
        # scorer amortizes decode + scoring across requests via the
        # term cache, beating WAND's per-request window machinery
        # in EVERY measured regime (x16: 4.4 vs 12.6 ms selective p50;
        # x256: 4.4 vs 12.6) — WAND's decode-avoidance only wins for
        # budget-0 one-shot readers, where nothing is amortized.
        if self._cache_budget > 0:
            return self.search_exhaustive(query_text, k, mode, mask=mask,
                                          after=after)
        mean_density = sum(self._df.get(t, 0) for t in terms) / (len(terms) * max(1, self.n_docs))
        if mean_density > 0.10:
            return self.search_exhaustive(query_text, k, mode, mask=mask,
                                          after=after)
        return self.search_wand(query_text, k, mode, mask=mask, after=after)

    def explain(self, query_text: str, doc_id: int) -> dict | None:
        """Per-term BM25 breakdown for one document (Lucene ``explain``
        analog): for each effective query term, its global df, idf, tf in
        this doc, and score contribution; ``total`` is the doc's OR-mode
        score.  None when the doc is not in this reader.  Query syntax
        (wildcards) applies; NOT terms are reported as ``excluded_by``
        when the doc contains one.  Cost: one postings decode per term —
        the same bound as scoring, for one doc."""
        query_text, exclude = self._preprocess(query_text, "or", None)
        pos = int(np.searchsorted(self._doc_ids, doc_id))
        if pos >= self._doc_ids.size or self._doc_ids[pos] != doc_id:
            return None
        if self._live is not None and not self._live[pos]:
            return None  # tombstoned (build.delete_docs)
        dl = int(self._doc_lens[pos])
        parts, total = [], 0.0
        for t in self._effective_terms(query_text, "or") or []:
            e = self._term(t)
            hit = np.flatnonzero(e.idx == pos)
            tf = int(e.tfs[hit].sum()) if hit.size else 0
            s = float(bm25.score_vec(self.idf(t), np.array([tf]),
                                     np.array([dl]), self.avg_dl)[0]) \
                if tf else 0.0
            total += s
            parts.append({"term": t, "tf": tf,
                          "df": int(self._df.get(t, 0)),
                          "idf": self.idf(t), "score": s})
        excluded_by = []
        if exclude:
            for t in self.query_terms(
                    self._rewrite_wildcards(exclude, "or")):
                if not self._has_term(t):
                    continue
                if (self._term(t).idx == pos).any():
                    excluded_by.append(t)
        return {"doc_id": doc_id, "doc_len": dl, "total": total,
                "parts": parts, "excluded_by": excluded_by}

    # -------------------------------------------------------------- WAND ---

    def search_wand(self, query_text: str, k: int = 10,
                    mode: str = "or",
                    mask: np.ndarray | None = None,
                    exclude: str | None = None,
                    after: tuple[float, int] | None = None,
                    max_expansions: int | None = 64
                    ) -> list[TopkResult]:
        """Block-at-a-time block-max WAND (see module docstring).

        ``mask`` (see :meth:`make_doc_mask`) drops filtered-out docs as each
        window decodes, BEFORE aggregation: block upper bounds are unchanged
        (a filter only removes candidates, so ``ub <= theta`` pruning stays
        sound — it just prunes less tightly when the surviving docs are
        sparse in a block).  ``exclude``: boolean-NOT terms, ANDed into the
        mask (same soundness argument — exclusion only removes candidates)."""
        query_text, exclude = self._preprocess(query_text, mode, exclude,
                                                max_expansions)
        mask = self._mask_with_exclude(mask, exclude)
        terms = self._effective_terms(query_text, mode)
        if not terms:
            return []
        n_terms = len(terms)  # OOV terms dropped (oracle does the same)
        cursors: list[_BlockCursor] = []
        for ti, t in enumerate(terms):
            idf_t = self.idf(t)
            for enc in self._encs(t):
                if enc.df:
                    cursors.append(_BlockCursor(enc, ti, idf_t, self.avg_dl))
        topk = _TopK(k)
        prev_hi = -1
        # pruning observability: how many blocks actually decoded vs exist
        # (tests + bench assert the impact frontier skips tied blocks)
        n_dec, n_blocks = 0, sum(c.nb for c in cursors)
        while True:
            live = [c for c in cursors if c.live]
            if not live:
                break
            theta = topk.theta
            # global early termination: sum over terms of the best score
            # any REMAINING block can yield (suffix-max ubs).  Once the
            # heap holds k docs at >= that bound, no later doc can beat
            # theta (later docs also lose exact ties — traversal is
            # doc-ordered and ties break doc_id-asc), so stop traversing
            # instead of advancing window-by-window through prunable
            # blocks.  Saturates fast on tie-heavy corpora.
            per_term_rest: dict[int, float] = {}
            for c in live:
                r = c.rest_ub()
                if r > per_term_rest.get(c.term_i, 0.0):
                    per_term_rest[c.term_i] = r
            if mode == "and" and len(per_term_rest) < n_terms:
                break  # a required term is exhausted: no doc can qualify
            if sum(per_term_rest.values()) <= theta:
                break
            w_hi = min(c.block_last() for c in live)
            contrib = [c for c in live if c.block_first() <= w_hi]
            # Window bound: sum over TERMS of the max contributing-block
            # bound for that term — NOT the sum over cursors.  A doc sits
            # in exactly one shard (and one salt stream) per term, so
            # summing across same-term cursors would inflate the bound by
            # the cursor count (8x on an 8-shard reader: measured 99%+
            # decoded on single-term queries before this aggregation).
            per_term_ub: dict[int, float] = {}
            for c in contrib:
                u = c.block_ub()
                if u > per_term_ub.get(c.term_i, 0.0):
                    per_term_ub[c.term_i] = u
            if mode == "and":
                # a doc needs every term present in the window at all
                feasible = len(per_term_ub) == n_terms
                ub = sum(per_term_ub.values()) if feasible else -np.inf
            else:
                ub = sum(per_term_ub.values())
            if ub > theta and contrib:
                docs_l, sc_l = [], []
                for c in contrib:
                    if c._ids is None:
                        n_dec += 1
                    ids, tfs = c.decoded()
                    m = (ids > prev_hi) & (ids <= w_hi)
                    if m.any():
                        d, tf_w = ids[m], tfs[m]
                        pos = np.searchsorted(self._doc_ids, d)
                        if mask is not None:
                            ok = mask[pos]
                            if not ok.any():
                                continue
                            d, tf_w, pos = d[ok], tf_w[ok], pos[ok]
                        dls = self._doc_lens[pos]
                        docs_l.append(d)
                        sc_l.append(bm25.score_vec(c.idf, tf_w, dls, self.avg_dl))
                if docs_l:
                    docs = np.concatenate(docs_l)
                    scores = np.concatenate(sc_l)
                    uniq, inv = np.unique(docs, return_inverse=True)
                    agg = np.zeros(uniq.size)
                    np.add.at(agg, inv, scores)
                    if mode == "and":
                        cnt = np.zeros(uniq.size, dtype=np.int64)
                        np.add.at(cnt, inv, 1)
                        keep = cnt == n_terms
                        uniq, agg = uniq[keep], agg[keep]
                    if uniq.size and after is not None:
                        # pagination cursor: docs at/above the cursor rank
                        # never enter the heap (theta pruning stays sound —
                        # theta only reflects offered docs)
                        keep_a = _after_mask(agg, uniq, after)
                        uniq, agg = uniq[keep_a], agg[keep_a]
                    if uniq.size:
                        good = agg > theta
                        if good.any():
                            topk.offer(uniq[good], agg[good])
            for c in live:
                if c.block_last() == w_hi:
                    c.advance_block()
            prev_hi = w_hi
        self.last_wand_stats = {"blocks_decoded": n_dec,
                                "blocks_total": n_blocks}
        return topk.results()

    # ------------------------------------------------------------- phrase --

    @property
    def has_positions(self) -> bool:
        return bool(self.manifest.get("params", {}).get("positions"))

    def _term_occurrences(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        """Occurrence-level view of one term: ``(occ_doc_idx, occ_pos)`` —
        per token occurrence, the doc's LOCAL dense index and its position
        in the doc's stop-filtered token sequence.  Concatenated over the
        term's (salt, shard) rows (doc sets disjoint)."""
        idx_parts, pos_parts = [], []
        for enc in self._encs(t):
            if not enc.df:
                continue
            ids, tfs = decode_postings(enc)
            if not len(enc.pos_bytes):
                raise ValueError(
                    "index has no positional stream for term "
                    f"{t!r} — rebuild with BuildParams(positions=True) "
                    "to serve phrase queries")
            pos = decode_positions(enc, tfs)
            idx = np.searchsorted(self._doc_ids, ids)
            idx_parts.append(np.repeat(idx, tfs))
            pos_parts.append(pos)
        if not idx_parts:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.concatenate(idx_parts), np.concatenate(pos_parts)

    def _phrase_matched_slop(self, seq: list[str], slop: int) -> np.ndarray:
        """Local doc indices with an ORDERED occurrence chain of ``seq``
        (strictly increasing positions) whose span is at most
        ``len(seq) - 1 + slop`` — window proximity semantics; ``slop=0``
        is the exact-consecutive predicate (the only phrase matcher).

        Vectorized left-to-right chain over occurrence streams: for each
        slot-i occurrence at position q, keep g(q) = the LATEST possible
        chain start over slots 0..i ending before/at q.  g propagates as a
        per-doc prefix maximum of the previous slot's g at the largest
        earlier position — one segmented cummax + one searchsorted per
        slot, O(total occurrences log occ) — the postings-decode bound of
        the phrase terms.  (If any chain satisfies the span limit, the
        latest-start chain for its endpoint does too, so tracking only the
        maximum start is lossless.)"""
        limit = np.int64(len(seq) - 1 + slop)
        BIG = np.int64(1) << np.int64(32)

        def occ_sorted(t):
            # _term_occurrences concatenates a term's (salt, shard) parts —
            # each part is (doc, pos)-sorted but the concatenation is NOT;
            # the searchsorted chain below needs global lexicographic order
            oi, op = self._term_occurrences(t)
            order = np.lexsort((op, oi))
            return oi[order], op[order]

        cur_idx, cur_pos = occ_sorted(seq[0])
        g = cur_pos.astype(np.int64)
        for t in seq[1:]:
            if cur_idx.size == 0:
                return np.zeros(0, np.int64)
            # segmented (per-doc run) prefix max of g: bias each run by
            # BIG*run_id so cummax cannot cross runs (positions < 2^31)
            run_id = np.cumsum(
                np.concatenate(([0], (np.diff(cur_idx) != 0)
                                .astype(np.int64))))
            pm = np.maximum.accumulate(g + run_id * BIG) - run_id * BIG
            key_prev = (cur_idx << np.int64(31)) | cur_pos
            qi, qp = occ_sorted(t)
            key_q = (qi << np.int64(31)) | qp
            j = np.searchsorted(key_prev, key_q)  # first prev >= this occ
            ok = j > 0
            jj = np.maximum(j - 1, 0)
            ok &= cur_idx[jj] == qi               # largest earlier in SAME doc
            cur_idx, cur_pos = qi[ok], qp[ok]
            g = pm[jj[ok]]
        match = (cur_pos - g) <= limit
        return np.unique(cur_idx[match])

    def search_phrase(self, query_text: str, k: int = 10,
                      mask: np.ndarray | None = None,
                      slop: int = 0) -> list[TopkResult]:
        """Exact-phrase top-k: docs where the query's stop-filtered token
        sequence occurs CONSECUTIVELY (positions are over the stop-filtered
        stream — same basis as ``doc_len``; a stop word inside the phrase is
        transparent, standard stop-filter phrase semantics).  Matching docs
        are ranked by the ordinary BM25 score of the phrase's unique terms
        (global df/avg_dl), tie-break (score desc, doc_id asc) — a phrase
        is a match predicate, not a different scoring function.

        One vectorized ordered-chain matcher
        (:meth:`_phrase_matched_slop`): terms in order, window span <=
        len-1+slop, so ``slop=0`` is exact adjacency.  Cost is O(sum of
        query-term occurrence counts) — the same postings-decode bound as
        search_exhaustive, paid only for the (rare) phrase terms.
        Requires an index built with ``BuildParams(positions=True)``
        (codec v3 positional stream)."""
        if not self.has_positions:
            raise ValueError(
                f"index at {self.index_dir} was built without positions; "
                "rebuild with BuildParams(positions=True) to serve phrase "
                "queries")
        mask = self._mask_with_exclude(mask, None)  # folds the live-mask
        seq = list(tokenize_filtered(query_text))
        if not seq:
            return []
        # any globally-unknown term, or one absent from this reader's
        # shards, makes a local phrase match impossible (AND semantics)
        if any(self._df.get(t, 0) == 0 or not self._has_term(t)
               for t in seq):
            return []
        matched = self._phrase_matched_slop(seq, slop)
        if mask is not None and matched.size:
            matched = matched[mask[matched]]
        if matched.size == 0:
            return []
        # BM25 over the phrase's unique terms, restricted to matched docs
        scores = np.zeros(matched.size)
        for t in dict.fromkeys(seq):
            e = self._term(t)
            loc = np.searchsorted(matched, e.idx)
            loc[loc == matched.size] = matched.size - 1
            hit = matched[loc] == e.idx
            dls = self._doc_lens[e.idx[hit]]
            scores[loc[hit]] += bm25.score_vec(
                self.idf(t), e.tfs[hit], dls, self.avg_dl)
        order = np.lexsort((self._doc_ids[matched], -scores))[:k]
        return [TopkResult(int(self._doc_ids[matched[i]]), float(scores[i]))
                for i in order]
