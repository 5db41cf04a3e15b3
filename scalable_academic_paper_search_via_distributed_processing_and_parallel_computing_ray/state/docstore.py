"""Per-shard doc-store index: sorted ``doc_id -> (file, row group, row)``.

The docs checkpoint is a directory of content-addressed parquet parts
written in INGESTION order, and doc ids are url hashes — effectively
random — so parquet row-group statistics on the parts themselves cannot
prune a point lookup: every part's (min, max) spans the whole id space.
``fetch_docs`` therefore fell back to a filtered scan of EVERY part in
every shard, which is fine at fixture scale and absurd at 100 TB (a
snippet request would decompress a whole shard's text column).

This module maintains one small sidecar per shard: a GENERATION
directory ``shards/shard-XXXX/docs_idx-<gen>/part-KKKK.parquet`` of
doc_id-SORTED, range-DISJOINT parts, published by an atomic pointer
file ``docs_idx.json`` ({"version", "dir", "parts", "n_rows"}) — the
same versioned-dir + single-commit-point pattern as the partitioned
termdict.  Each part's rows:

    doc_id  int64   -- SORTED ascending within the part
    file_i  int32   -- index into the ``files`` list (schema metadata)
    rg_i    int32   -- row group within that file
    row_i   int32   -- row within that row group

Because parts are sorted and range-disjoint, row-group statistics are
tight disjoint ranges — a point lookup probes each part's cached
(min, max) bound arrays with two ``np.searchsorted`` calls and reads
only the covering row groups, so a lookup never loads the index into
memory: cost is O(k) tiny index row-groups + O(k) doc row-groups,
independent of shard size.  Splitting the sidecar into parts is what
lets the REBUILD distribute: one sort task per ~2M-row range instead
of a single shard-wide sort (measured 7.5 s for a 20M-doc shard — the
one serial step left in a purge compaction before parts existed).

Serving: ``lookup_shard_docs`` probes every shard on the calling thread
against a byte-capped decoded-data LRU (``_DATA_CAP``) of resolved
sidecar pointers, decoded sidecar row groups and fetched doc rows.  Each
entry is keyed on the identity ``(path, mtime_ns, size)`` of the file it
came from — the footer cache's key — and a doc row on its physical
``(file, row group, row, columns)`` position, never on its doc_id.  A
republished pointer or rewritten part therefore re-keys by itself: there
is no invalidation to call, and stale entries age out of the LRU.
Tombstones are applied by the caller (``query.fetch_docs``) before any
lookup.  Only the row-group reads that miss the cache touch disk, all
shards' misses together as one batch on the reader pool.

Consistency: the sidecar is rebuilt inside ``build._finalize`` — i.e.
BEFORE the manifest publish that makes any new doc ids reachable — for
build, extend, and compaction alike (compaction ends in ``_finalize``
too).  A reader holding manifest generation N always sees a sidecar
covering generation N's docs; a crash between docs writes and finalize
leaves an old sidecar AND an old manifest, which agree; a crash after
parts are written but before the pointer flips leaves the OLD pointer
and its (grace-kept) generation dir.  If the sidecar is missing or
stale (a file it references is gone, a part vanished), ``fetch_docs``
falls back to the filtered scan, so the index is an accelerator, never
a correctness dependency.

The reference has no doc store at all — its UI re-reads the corpus
parquet through Spark per lookup (``bm25_searcher.py``); Lucene's
stored-fields index is the design analog here.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict

import numpy as np
import pyarrow as pa

from . import fsio

DOCS_IDX_PTR = "docs_idx.json"
IDX_VERSION = 2
# small row groups keep the pruned lookup read tight: 4096 rows of the
# sidecar ~= 64 KB; the footer grows O(n_docs / 4096) entries per shard
IDX_ROW_GROUP = 4096
# target rows per sidecar part: one sort+write task each; 2M rows keeps
# the per-part sort ~0.5 s while the pointer stays a handful of parts
PART_TARGET_ROWS = 2_000_000

# ---- footer cache ------------------------------------------------------
# Point lookups are footer-bound: ParquetFile open + thrift footer parse
# is ~100us/file and the filter-expression scanner ~3ms/call, repeated
# for the SAME immutable files on every serve request.  Cache parsed
# FileMetaData (read-only, thread-safe to share) keyed on (realpath,
# mtime_ns, size) — a rewritten file re-keys, a vanished file raises and
# the caller falls back — and, for sidecars, the derived per-row-group
# (min, max) doc_id bound arrays so covering row groups come from two
# np.searchsorted calls instead of the dataset scanner.  Local paths
# only; URI-backed stores skip the cache (no cheap stat) and pay the
# plain open.  LRU-capped: ~8k entries bounds worst-case footer memory.
_MD_LOCK = threading.Lock()
_MD_CACHE: OrderedDict = OrderedDict()
_MD_CAP = 8192

# ---- decoded-data cache (see the module docstring) ----------------------
# Decoding the same hot docs again per request (pointer json, sidecar row
# group, a whole 1024-row text row group per hit) was ~2 ms of a ~6 ms
# snippet request.  Entries, keyed on file identities like the footer
# cache (local paths only):
#   ("ptr", ptr file key)                 -> resolved sidecar part paths
#   ("idx", part file key, rg)            -> decoded sidecar row group
#   ("row", docs file key, rg, row, cols) -> one doc row (dict)
# Never key a row on doc_id: a purged-then-recrawled url comes back under
# the same id.  Rows are cached only after the doc_id / row-count /
# row-group checks passed.
_DATA_LOCK = threading.Lock()
_DATA_CACHE: OrderedDict = OrderedDict()
_DATA_CAP = 32 << 20  # bytes
_data_bytes = 0

# persistent reader pool: creating a ThreadPoolExecutor costs ~4 ms —
# more than the parallel reads it enables — so per-call pools erased
# the whole win (measured).  One lazy module-level pool, reused by
# every lookup and filtered scan in the process; its tasks never
# submit to it (no nested-submit deadlock).
_POOL_LOCK = threading.Lock()
_READ_POOL = None


def _read_pool():
    global _READ_POOL
    if _READ_POOL is None:
        with _POOL_LOCK:
            if _READ_POOL is None:
                from concurrent.futures import ThreadPoolExecutor
                _READ_POOL = ThreadPoolExecutor(
                    16, thread_name_prefix="docstore-read")
    return _READ_POOL


def _map_reads(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, on the reader pool when there is more
    than one: parquet reads release the GIL, so k reads go out as one
    concurrent round trip instead of k serial ~1 ms reads."""
    if len(tasks) > 1:
        return list(_read_pool().map(fn, tasks))
    return [fn(t) for t in tasks]


def _file_key(path: str) -> tuple | None:
    """Immutable identity ``(path, mtime_ns, size)`` of a LOCAL file, the
    key of every cache here; None when the path is URI-backed (no cheap
    stat).  OSError when the file is gone -> the caller treats it as
    stale."""
    fs, p = fsio.resolve(path)
    if fs is not None:
        return None
    st = os.stat(p)
    return (p, st.st_mtime_ns, st.st_size)


def _data_get(key: tuple):
    with _DATA_LOCK:
        ent = _DATA_CACHE.get(key)
        if ent is None:
            return None
        _DATA_CACHE.move_to_end(key)
        return ent[0]


def _data_put(key: tuple, val, nbytes: int) -> None:
    """Insert, then evict least-recently-used entries down to the cap
    (an entry bigger than the whole cap evicts itself)."""
    global _data_bytes
    with _DATA_LOCK:
        old = _DATA_CACHE.pop(key, None)
        if old is not None:
            _data_bytes -= old[1]
        _DATA_CACHE[key] = (val, nbytes)
        _data_bytes += nbytes
        while _data_bytes > _DATA_CAP and _DATA_CACHE:
            _data_bytes -= _DATA_CACHE.popitem(last=False)[1][1]


def _cached_md(path: str, with_bounds: bool = False):
    """(FileMetaData, bounds|None) for a LOCAL parquet file, LRU-cached;
    None when the path is URI-backed (caller uses fsio.pq_file)."""
    import pyarrow.parquet as pq
    key = _file_key(path)  # OSError -> caller treats as stale
    if key is None:
        return None
    p = key[0]
    with _MD_LOCK:
        ent = _MD_CACHE.get(key)
        if ent is not None and (not with_bounds or ent[1] is not None):
            _MD_CACHE.move_to_end(key)
            return ent
    md = pq.ParquetFile(p).metadata
    bounds = None
    if with_bounds:
        n = md.num_row_groups
        mins = np.empty(n, dtype=np.int64)
        maxs = np.empty(n, dtype=np.int64)
        # bounds are the doc_id column's stats: only meaningful when
        # doc_id is physically column 0 (how write_table lays out the
        # sidecar schema); anything else -> scanner fallback
        ok = n == 0 or md.schema.column(0).name == "doc_id"
        for i in range(n if ok else 0):
            s = md.row_group(i).column(0).statistics
            if s is None or not s.has_min_max:
                ok = False
                break
            mins[i], maxs[i] = s.min, s.max
        bounds = (mins, maxs) if ok else None
    ent = (md, bounds)
    with _MD_LOCK:
        _MD_CACHE[key] = ent
        while len(_MD_CACHE) > _MD_CAP:
            _MD_CACHE.popitem(last=False)
    return ent


def _open_pf(path: str):
    """ParquetFile with the footer parse skipped via the cache when the
    path is local; plain open (and full parse) otherwise."""
    import pyarrow.parquet as pq
    ent = _cached_md(path)
    if ent is None:
        return fsio.pq_file(path)
    fs, p = fsio.resolve(path)
    return pq.ParquetFile(p, metadata=ent[0])


# per-THREAD open-handle LRU: ParquetFile construction is ~0.1 ms of
# GIL-held Python even with a cached footer, which serializes the
# reader pool; a handle per (thread, file) removes it entirely for hot
# parts without sharing a ParquetFile across threads (not documented
# thread-safe).  Keyed on (path, mtime_ns, size) like the footer cache
# so rewritten parts re-open; 32 handles/thread keeps the reader pool's
# worst-case fd usage (32 x 16 threads = 512) under a conservative 1024
# soft RLIMIT_NOFILE even before Ray's own descriptors.
_TL = threading.local()
_TL_CAP = 32


def _thread_pf(path: str):
    key = _file_key(path)
    if key is None:
        return fsio.pq_file(path)  # URI-backed: no cheap stat, no cache
    cache = getattr(_TL, "pf", None)
    if cache is None:
        cache = _TL.pf = OrderedDict()
    pf = cache.get(key)
    if pf is None:
        pf = _open_pf(path)
        cache[key] = pf
        while len(cache) > _TL_CAP:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return pf


def _docs_files(docs_dir: str) -> list[str]:
    if not fsio.isdir(docs_dir):
        return []
    return sorted(f for f in fsio.listdir(docs_dir)
                  if f.endswith(".parquet"))


# chunked rebuild: a compaction to FEW shards concentrates thousands of
# part files in one shard — a single rebuild task paying a serial
# footer-parse per part was ~7 s of an 11 s purge-compaction wall
# (measured at 5M docs / 1 shard).  The scan fans out in
# SCAN_CHUNK-file tasks; one merge task per shard sorts and writes.
SCAN_CHUNK = 32


def scan_docs_chunk(docs_dir: str, files: list[str],
                    base_fi: int) -> tuple[np.ndarray, np.ndarray]:
    """doc_id + (file_i, rg_i, row_i) arrays for a CHUNK of docs parts;
    ``base_fi`` offsets file_i into the shard's full sorted file list.
    Reads only doc_id columns and footers — O(8 bytes/doc) I/O."""
    ids_parts: list[np.ndarray] = []
    loc_parts: list[np.ndarray] = []
    for k, name in enumerate(files):
        pf = fsio.pq_file(os.path.join(docs_dir, name))
        for rg in range(pf.metadata.num_row_groups):
            t = pf.read_row_group(rg, columns=["doc_id"])
            n = t.num_rows
            if not n:
                continue
            ids_parts.append(
                t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
            loc = np.empty((3, n), dtype=np.int32)
            loc[0] = base_fi + k
            loc[1] = rg
            loc[2] = np.arange(n, dtype=np.int32)
            loc_parts.append(loc)
    if ids_parts:
        return np.concatenate(ids_parts), np.concatenate(loc_parts, axis=1)
    return np.empty(0, dtype=np.int64), np.empty((3, 0), dtype=np.int32)


def write_shard_docs_idx(shard_dir: str, files: list[str], parts) -> int:
    """Sort scanned (ids, loc) chunk pairs and publish a ONE-part
    sidecar (the small-shard / in-process path; ``build`` fans big
    shards out over range-part tasks)."""
    ids_l = [p[0] for p in parts if p[0].size]
    if ids_l:
        ids = np.concatenate(ids_l)
        loc = np.concatenate([p[1] for p in parts if p[0].size], axis=1)
    else:
        ids = np.empty(0, dtype=np.int64)
        loc = np.empty((3, 0), dtype=np.int32)
    return _write_idx(shard_dir, files, ids, loc)


def build_shard_docs_idx(shard_dir: str) -> int:
    """(Re)build one shard's sidecar from its docs parts in-process (the
    small-shard / test path; ``build._finalize`` fans wide shards out
    over ``scan_docs_chunk`` tasks).  Returns the indexed row count."""
    docs_dir = os.path.join(shard_dir, "docs")
    files = _docs_files(docs_dir)
    return write_shard_docs_idx(
        shard_dir, files, [scan_docs_chunk(docs_dir, files, 0)])


def new_gen_name() -> str:
    import uuid
    return f"docs_idx-{uuid.uuid4().hex[:12]}"


def write_idx_part(gen_dir: str, files: list[str], ids: np.ndarray,
                   loc: np.ndarray, k: int) -> int:
    """Write ONE sorted sidecar part into an (unpublished) generation
    dir.  The sort runs through Arrow's ``Table.sort_by`` —
    multi-threaded and ~3× faster than a numpy argsort + fancy-index
    round-trip at 5M rows (measured 1.6 s vs 5.4 s)."""
    table = pa.table(
        {"doc_id": pa.array(ids, pa.int64()),
         "file_i": pa.array(loc[0], pa.int32()),
         "rg_i": pa.array(loc[1], pa.int32()),
         "row_i": pa.array(loc[2], pa.int32())})
    if ids.size > 1 and (np.diff(ids) < 0).any():
        table = table.sort_by("doc_id")
    table = table.replace_schema_metadata(
        {"files": json.dumps(files), "version": str(IDX_VERSION)})
    fsio.makedirs(gen_dir, exist_ok=True)
    tmp = os.path.join(gen_dir, f".part-{k:04d}.parquet.tmp")
    fsio.pq_write_table(table, tmp, row_group_size=IDX_ROW_GROUP)
    fsio.replace(tmp, os.path.join(gen_dir, f"part-{k:04d}.parquet"))
    return int(ids.size)


def publish_idx(shard_dir: str, gen_name: str, n_parts: int,
                n_rows: int) -> int:
    """Flip the sidecar pointer to a fully-written generation dir (the
    single commit point), keeping the PREVIOUS generation dir for
    one-generation reader grace and deleting anything older."""
    ptr_p = os.path.join(shard_dir, DOCS_IDX_PTR)
    prev = None
    if fsio.exists(ptr_p):
        try:
            prev = fsio.read_json(ptr_p).get("dir")
        except (OSError, ValueError):
            prev = None
    fsio.write_json_atomic(ptr_p, {"version": IDX_VERSION,
                                   "dir": gen_name,
                                   "parts": int(n_parts),
                                   "n_rows": int(n_rows)})
    keep = {gen_name, prev}
    for name in fsio.listdir(shard_dir):
        if name.startswith("docs_idx-") and name not in keep:
            fsio.rmtree(os.path.join(shard_dir, name),
                        ignore_errors=True)
    return int(n_rows)


def _write_idx(shard_dir: str, files: list[str], ids: np.ndarray,
               loc: np.ndarray) -> int:
    """One-part convenience: write + publish a whole sidecar."""
    gen = new_gen_name()
    n = write_idx_part(os.path.join(shard_dir, gen), files, ids, loc, 0)
    return publish_idx(shard_dir, gen, 1, n)


def sidecar_current_rows(shard_dir: str) -> int | None:
    """Row count of the shard's sidecar IF it is provably current, else
    None (caller rebuilds).  Currency check: the pointer resolves and the
    FIRST part's recorded file list equals the docs dir's current file
    list — sound because docs parts are content-addressed write-once
    (same name => same bytes), so an unchanged name list means the
    sidecar's (file_i, rg_i, row_i) coordinates still hold.  Cost: one
    pointer json + one small parquet footer, vs re-scanning every part's
    doc_id column."""
    parts = _resolve_parts(shard_dir)
    if not parts:
        return None
    try:
        ptr = fsio.read_json(os.path.join(shard_dir, DOCS_IDX_PTR))
        n_rows = int(ptr["n_rows"])
        meta = fsio.pq_file(parts[0]).schema_arrow.metadata or {}
        recorded = json.loads(meta[b"files"])
    except (OSError, ValueError, KeyError, IndexError):
        return None
    if recorded != _docs_files(os.path.join(shard_dir, "docs")):
        return None
    return n_rows


def _resolve_parts(shard_dir: str) -> tuple[str, ...] | None:
    """Part paths of the CURRENT sidecar generation, or None when there
    is no (readable, version-matching) pointer.  A local pointer is
    cached on its file identity: a publish replaces the file atomically,
    so a new generation always re-keys."""
    ptr_p = os.path.join(shard_dir, DOCS_IDX_PTR)
    try:
        key = _file_key(ptr_p)
    except OSError:
        return None
    if key is None:
        if not fsio.exists(ptr_p):
            return None
    else:
        parts = _data_get(("ptr", key))
        if parts is not None:
            return parts
    try:
        ptr = fsio.read_json(ptr_p)
    except (OSError, ValueError):
        return None
    if ptr.get("version") != IDX_VERSION or not ptr.get("dir"):
        return None
    d = os.path.join(shard_dir, str(ptr["dir"]))
    parts = tuple(os.path.join(d, f"part-{k:04d}.parquet")
                  for k in range(int(ptr.get("parts", 0))))
    if key is not None:
        _data_put(("ptr", key), parts, 64 + sum(map(len, parts)))
    return parts


def _decode_idx(t: pa.Table) -> tuple:
    """(files, doc_id, file_i, rg_i, row_i) arrays of sidecar rows."""
    files = json.loads((t.schema.metadata or {})[b"files"])  # KeyError
    return (files, *(t[c].to_numpy(zero_copy_only=False)
                     for c in ("doc_id", "file_i", "rg_i", "row_i")))


def _read_idx_rg(task: tuple) -> tuple:
    part, rg = task
    return _decode_idx(_thread_pf(part).read_row_group(rg,
                                                       use_threads=False))


def _row_nbytes(row: dict) -> int:
    """Approximate in-memory size of a cached doc row."""
    return 64 + sum(len(v) if isinstance(v, (str, bytes)) else 16
                    for v in row.values())


def lookup_shard_docs(shard_dirs: list[str], wanted: list[int],
                      columns: list[str] | None = None
                      ) -> dict[int, dict] | None:
    """Point-read ``wanted`` ids from the shards ``shard_dirs`` via their
    sidecars.

    Returns ``{doc_id: row_dict}`` for the ids present (missing ids are
    simply absent), or ``None`` when any shard's sidecar is missing/
    unreadable/stale — the caller falls back to the filtered scan.
    ``columns`` prunes the doc read (e.g. the snippets path needs only
    ``text``).  Probing runs on the calling thread against the decoded-
    data cache; only the row groups that miss it are read from disk, all
    shards' misses together as one batch on the reader pool."""
    want = np.array(sorted({int(w) for w in wanted}), dtype=np.int64)
    cols = None if columns is None else tuple(columns)
    # (files, doc_id, file_i, rg_i, row_i) pieces of sidecar rows,
    # paired with their shard's docs dir and the positions to take
    pieces: list[tuple] = []
    idx_reads: list[tuple] = []  # (docs dir, part, part key, rg) misses
    try:
        for sd in shard_dirs:
            part_paths = _resolve_parts(sd)
            if not part_paths:
                return None
            docs_dir = os.path.join(sd, "docs")
            for part in part_paths:
                key = _file_key(part)
                ent = None if key is None else _cached_md(part, True)
                if ent is None or ent[1] is None:
                    # URI-backed or stats-less part: scanner path, uncached
                    t = fsio.pq_read_table(part, filters=[
                        ("doc_id", "in", want.tolist())])
                    dec = _decode_idx(t)
                    pieces.append((docs_dir, dec, np.arange(t.num_rows)))
                    continue
                # covering row groups straight from the cached bounds: a
                # part is doc_id-sorted, so ranges are disjoint within it
                # and a wanted id's only candidate group is the last one
                # whose min <= id; keep it iff its max >= id.  Parts are
                # range-disjoint, so across parts too a wanted id has (at
                # most) one candidate row group.
                mins, maxs = ent[1]
                cand = np.searchsorted(mins, want, side="right") - 1
                hit = (cand >= 0) & (maxs[np.maximum(cand, 0)] >= want)
                for rg in sorted(set(cand[hit].tolist())):
                    dec = _data_get(("idx", key, rg))
                    if dec is None:
                        idx_reads.append((docs_dir, part, key, rg))
                    else:
                        pieces.append((docs_dir, dec, None))
        read = _map_reads(_read_idx_rg,
                          [(part, rg) for _, part, _, rg in idx_reads])
        for (docs_dir, _, key, rg), dec in zip(idx_reads, read):
            _data_put(("idx", key, rg), dec,
                      sum(a.nbytes for a in dec[1:]) + 64 * len(dec[0]))
            pieces.append((docs_dir, dec, None))

        # resolve hits to (docs file, rg, row); serve cached rows
        out: dict[int, dict] = {}
        misses: dict[tuple, list] = {}  # (path, fkey, rg) -> [(id, row)]
        fkeys: dict[str, tuple | None] = {}
        for docs_dir, (files, ids, fi, rgi, rowi), sel in pieces:
            if sel is None:  # a cached row group: find the wanted ids
                pos = np.searchsorted(ids, want)
                ok = pos < ids.size
                sel = pos[ok][ids[pos[ok]] == want[ok]]
            for j in sel.tolist():
                did, f, rg, r = int(ids[j]), int(fi[j]), int(rgi[j]), \
                    int(rowi[j])
                if f >= len(files):
                    return None  # stale sidecar
                path = os.path.join(docs_dir, files[f])
                if path not in fkeys:
                    fkeys[path] = _file_key(path)  # OSError -> stale
                fkey = fkeys[path]
                row = None if fkey is None else \
                    _data_get(("row", fkey, rg, r, cols))
                if row is None:
                    misses.setdefault((path, fkey, rg), []).append((did, r))
                elif int(row.get("doc_id", did)) != did:
                    return None  # stale sidecar
                else:
                    out[did] = dict(row)

        def _read_rows(task: tuple):
            """-> [(doc_id, row_i, row_dict)] or None (stale sidecar)."""
            (path, _, rg), sel = task
            pf = _thread_pf(path)
            if rg >= pf.metadata.num_row_groups:
                return None  # stale sidecar (part shrank)
            t = pf.read_row_group(rg, columns=columns, use_threads=False)
            res = []
            for did, r in sel:
                if r >= t.num_rows:
                    return None  # stale sidecar (row beyond rewritten part)
                # zero-copy slice beats a take kernel for ones-and-twos rows
                row = t.slice(r, 1).to_pylist()[0]
                if int(row.get("doc_id", did)) != did:
                    return None  # stale sidecar (part rewritten)
                res.append((did, r, row))
            return res

        groups = list(misses.items())
        results = _map_reads(_read_rows, groups)
    except (OSError, pa.ArrowInvalid, KeyError, ValueError):
        return None  # stale sidecar (part vanished / truncated / bogus)
    if any(res is None for res in results):
        return None
    for ((_, fkey, rg), _), res in zip(groups, results):
        for did, r, row in res:
            if fkey is not None:
                _data_put(("row", fkey, rg, r, cols), row, _row_nbytes(row))
            out[did] = dict(row)
    return out
