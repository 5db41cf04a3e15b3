"""Deduplication operators for the large-scale training-data toolkit.

Every operator pays exactly ONE corpus-sized all-to-all and resolves the
rest vectorized: exact dedup sorts on the content hash and keeps the first
row of each run (block-boundary chained); MinHash/SimHash band into
buckets and verify inside them; n-gram Jaccard self-joins on hot-capped
shingles; embedding dedup tile-joins (exact) or LSH-bands (approximate).
Survivor selection is deterministic (min key) everywhere — the reference's
only dedup, ``dropDuplicates(["paper_id"])``
(``create_lookup_table.py:34``), keeps an arbitrary row; we pin the
survivor so results are testable.

Scale notes baked into the design:
* candidate generation never does all-pairs over the corpus — pairs only
  form inside a bucket (hash / LSH band / simhash band / shared shingle),
  except the exact tile join whose Omega(n^2) candidate checks are the
  exact-similarity-join floor (documented there);
* hot buckets are bounded (``max_df`` shingle cap, ``max_bucket`` LSH cap)
  — the dropped mass is the standard recall/cost dial;
* no step materializes anything corpus-sized on the driver; connected
  components (minhash groups) run distributed min-label propagation
  (:mod:`stages.cc`) when the verified pair set exceeds one block, and a
  single-partition union-find (same fixpoint) below that.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset
from ray.data.aggregate import Count, Min

from ..functions import textstats as ts
from ..functions.tokenize import tokenize_filtered

# ----------------------------------------------------------- exact dedup ---


def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized-ish 64-bit content hash column (md5-based hash64 per string)."""
    h = np.fromiter((ts.hash64(t) & ((1 << 63) - 1)
                     for t in batch[text_col].to_pylist()),
                    dtype=np.int64, count=batch.num_rows)
    return batch.append_column("content_hash", pa.array(h, pa.int64()))


def exact_dedup(ds: Dataset, text_col: str = "text",
                key_col: str = "doc_id") -> Dataset:
    """Keep one row per distinct text, survivor = min key (reference D1
    analog, deterministic).

    Shape: ONE distributed sort on (content_hash, key) — the unavoidable
    co-location of equal texts — then a vectorized first-of-run filter per
    block, chained across block boundaries by O(blocks) metadata (each
    block only needs the PREVIOUS block's last hash).  No per-group pandas
    tasks (round-1 weakness #6: one task per distinct text = billions of
    tasks at corpus scale) and no second all-to-all."""
    import ray as _ray

    from .blocks import as_arrow_block as to_arrow
    from .blocks import nonempty_block_refs

    hashed = ds.map_batches(lambda b: add_content_hash(b, text_col),
                            batch_format="pyarrow")
    s = hashed.sort(["content_hash", key_col]).materialize()
    refs = nonempty_block_refs(s)
    if not refs:
        # empty input: same schema contract as the normal path (no
        # internal content_hash column)
        return s.drop_columns(["content_hash"])

    @_ray.remote
    def last_hash(blk):
        blk = to_arrow(blk)
        return blk["content_hash"][blk.num_rows - 1].as_py()

    @_ray.remote
    def first_of_run(blk, carry_hash):
        # keep only the first row of each content_hash run; the leading run
        # is dropped when it continues a run from an earlier block
        blk = to_arrow(blk)
        h = blk["content_hash"].to_numpy(zero_copy_only=False)
        first = np.r_[True, h[1:] != h[:-1]]
        if carry_hash is not None and len(h) and h[0] == carry_hash:
            first[0] = False
        return blk.filter(pa.array(first)).drop_columns(["content_hash"])

    lasts = _ray.get([last_hash.remote(r) for r in refs])
    carries = [None] + lasts[:-1]
    out_refs = [first_of_run.remote(r, c) for r, c in zip(refs, carries)]
    return _ray.data.from_arrow_refs(out_refs)


# ------------------------------------------------------------ minhash-lsh ---


class MinHashBands:
    """docs -> (doc_id, band, band_hash, sig) rows, ``num_bands`` per doc.

    Actor-pool stage: permutation params are built once per actor.  The
    FULL signature rides each band row (as ``fixed_size_list<int32>`` —
    minhash values are mod-Mersenne31, so they fit 32 bits losslessly) so
    that Jaccard can be estimated INSIDE the band bucket with no second
    corpus pass, exactly as :class:`HyperplaneBands` carries the vector.
    Cost: ``num_bands x num_perm x 4`` bytes/doc through one shuffle
    (8 KB/doc at the defaults) against a whole extra pass over the corpus
    plus a driver-held id->signature map — the same measured tradeoff
    written up in :func:`embedding_dup_pairs_lsh`.
    """

    def __init__(self, num_perm: int = 128, num_bands: int = 16,
                 shingle_k: int = 3, text_col: str = "text"):
        assert num_perm % num_bands == 0
        self.a, self.b = ts.minhash_params(num_perm)
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.rows_per_band = num_perm // num_bands
        self.shingle_k = shingle_k
        self.text_col = text_col

    def signature(self, text: str) -> np.ndarray:
        sh = ts.shingle_hashes(tokenize_filtered(text), self.shingle_k)
        return ts.minhash_signature(sh, self.a, self.b)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if doc_ids.size and doc_ids.min() < 0:
            # the hot-bucket count rides in-band as an (a,b)=(-1,-1)
            # sentinel row downstream — a negative id would collide
            raise ValueError("minhash LSH requires non-negative doc_ids")
        texts = batch[self.text_col].to_pylist()
        sigs = np.stack([self.signature(t) for t in texts])  # (n, num_perm)
        n = sigs.shape[0]
        bands = sigs.reshape(n, self.num_bands, self.rows_per_band)
        # hash each band slice to one 63-bit value (vectorized fold)
        acc = np.zeros((n, self.num_bands), dtype=np.uint64)
        for r in range(self.rows_per_band):
            acc = (acc * np.uint64(1099511628211)) ^ bands[:, :, r]
        band_hash = (acc & np.uint64((1 << 63) - 1)).astype(np.int64)
        sig_rep = np.repeat(sigs.astype(np.int32), self.num_bands, axis=0)
        sig_col = pa.FixedSizeListArray.from_arrays(
            pa.array(sig_rep.reshape(-1), pa.int32()), self.num_perm)
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids, self.num_bands), pa.int64()),
            "band": pa.array(np.tile(np.arange(self.num_bands, dtype=np.int32), n),
                             pa.int32()),
            "band_hash": pa.array(band_hash.reshape(-1), pa.int64()),
            "sig": sig_col,
        })


def minhash_verified_pairs(ds: Dataset, threshold: float = 0.8,
                           num_perm: int = 128, num_bands: int = 16,
                           shingle_k: int = 3, text_col: str = "text",
                           max_bucket: int = 4096,
                           concurrency=(1, 8)) -> pa.Table:
    """Verified near-dup pairs via MinHash+LSH: docs sharing a
    (band, band_hash) bucket are candidates, and the signature-estimated
    Jaccard (``mean(sig_a == sig_b)``) is verified INSIDE the bucket —
    signatures ride the banding shuffle, so there is no second corpus pass
    and the driver only ever sees verified pairs.

    ``max_bucket`` bounds the per-bucket B^2 verify cost (the one
    quadratic hazard a skewed corpus can detonate — e.g. boilerplate pages
    whose band collides corpus-wide); dropped buckets are counted and
    stamped in the result metadata (``dropped_hot_buckets``), mirroring
    :func:`embedding_dup_pairs_lsh`.  Pairs confined to a hot bucket are
    still found via any colder band they share.  Returns (a, b, est_m)
    sorted, est_m = round(estimate * 1000).
    """
    bands = ds.map_batches(MinHashBands,
                           fn_constructor_kwargs={"num_perm": num_perm,
                                                  "num_bands": num_bands,
                                                  "shingle_k": shingle_k,
                                                  "text_col": text_col},
                           batch_format="pyarrow", concurrency=concurrency)
    from .groupagg import sorted_groupby_agg

    _EMPTY_PAIRS = pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "est_m": pa.array([], pa.int64())})
    # hot-bucket observability rides the bucket pass itself as sentinel
    # rows (a = b = -1), counted and stripped at collection — a separate
    # audit aggregation paid a whole extra sort over the band rows
    # (measured 4.6 s vs 0.9 s for the real bucket pass at sf0.1)
    _HOT_SENTINEL = pa.table({"a": pa.array([-1], pa.int64()),
                              "b": pa.array([-1], pa.int64()),
                              "est_m": pa.array([1], pa.int64())})

    def bucket_pairs(g: pa.Table) -> pa.Table:
        # pyarrow group format: a pandas DataFrame per tiny bucket costs
        # ~10x the conversion overhead at ~100k buckets (measured; same
        # lesson as the round-1 per-bucket map_groups)
        ids = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids, uidx = np.unique(ids, return_index=True)
        if ids.size and ids[0] < 0:
            # the hot-bucket count rides in-band as an (a,b)=(-1,-1)
            # sentinel row; a caller-supplied negative id would collide
            # with it and silently drop pairs (ADVICE r4) — refuse loudly
            raise ValueError(
                "minhash_verified_pairs requires non-negative doc ids "
                f"(got {int(ids[0])}); remap ids before deduplication")
        if ids.size > max_bucket:
            return _HOT_SENTINEL
        if ids.size < 2:
            return _EMPTY_PAIRS
        sigs = np.stack(g["sig"].to_numpy(zero_copy_only=False)[uidx])
        ai, bi = np.triu_indices(ids.size, k=1)
        est = (sigs[ai] == sigs[bi]).mean(axis=1)
        keep = est >= threshold
        if not keep.any():
            return _EMPTY_PAIRS
        a, b_ = ids[ai[keep]], ids[bi[keep]]
        lo, hi = np.minimum(a, b_), np.maximum(a, b_)
        est_m = np.floor(est[keep] * 1000 + 0.5).astype(np.int64)
        return pa.table({"a": pa.array(lo, pa.int64()),
                         "b": pa.array(hi, pa.int64()),
                         "est_m": pa.array(est_m, pa.int64())})

    pairs = bands.groupby(["band", "band_hash"]) \
        .map_groups(bucket_pairs, batch_format="pyarrow")
    # the count agg rides the SAME pass: the (-1, -1) sentinel group's
    # row count IS the number of dropped hot buckets
    out = sorted_groupby_agg(pairs, ["a", "b"],
                             [("est_m", "min", "est_m"),
                              ("est_m", "count", "nb")]).to_pandas()
    n_hot = 0
    if len(out) and int(out["a"].iloc[0]) == -1:
        n_hot = int(out["nb"].iloc[0])
        out = out[out["a"] != -1]
    out = out.drop(columns=["nb"], errors="ignore")
    if n_hot:
        import logging
        logging.getLogger(__name__).warning(
            "minhash_verified_pairs: %d bucket(s) over max_bucket=%d were "
            "dropped from candidate generation; pairs confined to hot "
            "buckets are lost (raise max_bucket or num_bands)",
            n_hot, max_bucket)
    meta = {b"dropped_hot_buckets": str(int(n_hot)).encode(),
            b"max_bucket": str(max_bucket).encode()}
    if len(out) == 0:
        return _EMPTY_PAIRS.replace_schema_metadata(meta)
    out = out.sort_values(["a", "b"]).reset_index(drop=True)
    out["est_m"] = out["est_m"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False) \
        .replace_schema_metadata(meta)


def minhash_dedup_groups(ds: Dataset, threshold: float = 0.8,
                         num_perm: int = 128, num_bands: int = 16,
                         shingle_k: int = 3, text_col: str = "text",
                         max_bucket: int = 4096,
                         cc_local_cap: int = 1 << 20) -> pa.Table:
    """Near-dup groups via MinHash+LSH: in-bucket-verified pairs
    (:func:`minhash_verified_pairs` — signatures ride the shuffle, hot
    buckets capped), then connected components over the verified pair set
    (:mod:`stages.cc` — distributed min-label propagation when the pairs
    exceed ``cc_local_cap``; ``0`` forces the distributed path).  Returns
    (doc_id, group_id) for docs in a group (group_id = min doc_id).
    """
    from .cc import connected_components
    pairs = minhash_verified_pairs(ds, threshold, num_perm, num_bands,
                                   shingle_k, text_col, max_bucket)
    labels = connected_components(pairs, "a", "b", local_cap=cc_local_cap)
    return labels.rename_columns(["doc_id", "group_id"])


# ---------------------------------------------------------------- simhash ---


class SimHashStage:
    """docs -> (doc_id, simhash, band0..band3) — 64-bit simhash split into
    four 16-bit bands; near-dups (hamming <= 3) share at least one band."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .text import batch_simhash64
        doc_ids = batch["doc_id"]
        # vectorized twin of ts.simhash64(tokenize_filtered(t)) — the
        # per-doc Python loop was the stage's dominant cost (~1.5 ms/doc)
        sims = (batch_simhash64(batch[self.text_col], batch.num_rows)
                & np.uint64((1 << 63) - 1)).astype(np.int64)
        cols = {"doc_id": doc_ids, "simhash": pa.array(sims, pa.int64())}
        for band in range(4):
            cols[f"band{band}"] = pa.array(
                ((sims.astype(np.uint64) >> np.uint64(16 * band))
                 & np.uint64(0xFFFF)).astype(np.int32), pa.int32())
        return pa.table(cols)


def _band_verified_pairs(max_hamming: int):
    """map_groups fn: one band bucket (doc_id, simhash) -> verified near-dup
    pairs.  The bucket already holds every colliding doc's full simhash, so
    hamming is verified HERE — nothing corpus-sized ever reaches the driver
    (round-1 weakness: a global doc_id->simhash dict on the driver).
    pyarrow group format — pandas-per-tiny-bucket conversion was ~10x the
    useful work at ~100k buckets."""
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})

    def f(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids, uidx = np.unique(ids, return_index=True)
        if ids.size < 2:
            return empty
        sims = g["simhash"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[uidx]
        ai, bi = np.triu_indices(ids.size, k=1)
        h = ts.hamming64_vec(sims[ai], sims[bi])
        keep = h <= max_hamming
        return pa.table({"a": pa.array(ids[ai][keep], pa.int64()),
                         "b": pa.array(ids[bi][keep], pa.int64()),
                         "hamming": pa.array(h[keep].astype(np.int64),
                                             pa.int64())})

    return f


def simhash_dedup_pairs(ds: Dataset, max_hamming: int = 3,
                        text_col: str = "text") -> pa.Table:
    """Near-dup pairs: docs sharing any 16-bit band are candidates (pigeonhole:
    hamming <= 3 over 64 bits leaves one of the four bands untouched), and
    hamming is verified INSIDE the band bucket — each bucket carries its
    members' simhashes, so verification is distributed and the driver only
    ever sees verified pairs.  A pair colliding in several bands verifies
    identically in each; the groupby(a, b) Min collapses them.
    Returns (a, b, hamming) sorted.  Scale dial: hot 16-bit buckets bound
    pair generation — for bigger corpora widen bands (4x32-bit over two
    simhash halves) the same way.

    RECALL CONTRACT: 4 bands over 64 bits guarantee candidate generation
    only for ``max_hamming <= 3`` (pigeonhole).  Larger values are
    accepted but return a verified SUBSET (pairs that happen to share a
    band) — a warning is emitted; full recall at hamming h needs h+1
    bands."""
    if max_hamming > 3:
        import logging
        logging.getLogger(__name__).warning(
            "simhash_dedup_pairs: max_hamming=%d exceeds the 4-band "
            "pigeonhole guarantee (<=3); result is a verified subset "
            "(pairs sharing at least one 16-bit band)", max_hamming)
    sigs = ds.map_batches(SimHashStage,
                          fn_constructor_kwargs={"text_col": text_col},
                          batch_format="pyarrow", concurrency=(1, 4))

    def explode(b: pa.Table) -> pa.Table:
        """sig row -> 4 (band, band_val) rows: ONE shuffle covers all
        bands (the previous one-groupby-PER-band paid 4x the shuffle
        stage fixed cost — measured ~2 s each at any size)."""
        n = b.num_rows
        doc = b["doc_id"].to_numpy(zero_copy_only=False)
        sim = b["simhash"].to_numpy(zero_copy_only=False)
        vals = np.concatenate([
            b[f"band{band}"].to_numpy(zero_copy_only=False).astype(np.int64)
            for band in range(4)])
        return pa.table({
            "doc_id": pa.array(np.tile(doc, 4), pa.int64()),
            "simhash": pa.array(np.tile(sim, 4), pa.int64()),
            "band": pa.array(np.repeat(np.arange(4, dtype=np.int32), n),
                             pa.int32()),
            "band_val": pa.array(vals, pa.int64()),
        })

    allp = sigs.map_batches(explode, batch_format="pyarrow") \
        .groupby(["band", "band_val"]) \
        .map_groups(_band_verified_pairs(max_hamming),
                    batch_format="pyarrow")
    from .groupagg import sorted_groupby_agg
    out = sorted_groupby_agg(allp, ["a", "b"],
                             [("hamming", "min", "hamming")]).to_pandas()
    if len(out) == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "hamming": pa.array([], pa.int32())})
    out = out.sort_values(["a", "b"]).reset_index(drop=True)
    return pa.table({"a": pa.array(out["a"].to_numpy(), pa.int64()),
                     "b": pa.array(out["b"].to_numpy(), pa.int64()),
                     "hamming": pa.array(out["hamming"].to_numpy()
                                         .astype(np.int32), pa.int32())})


# ----------------------------------------------------- n-gram Jaccard ------


def shingle_rows(batch: pa.Table, k: int = 3,
                 text_col: str = "text") -> pa.Table:
    """docs -> distinct (doc_id, shingle) rows (set semantics per doc)."""
    out_doc, out_sh = [], []
    for did, txt in zip(batch["doc_id"].to_pylist(),
                        batch[text_col].to_pylist()):
        sh = set(ts.shingle_hashes(tokenize_filtered(txt), k).tolist())
        out_doc.extend([did] * len(sh))
        out_sh.extend(int(s) & ((1 << 63) - 1) for s in sh)
    return pa.table({"doc_id": pa.array(out_doc, pa.int64()),
                     "shingle": pa.array(out_sh, pa.int64())})


def _pin_arrow(*cols: str):
    """map_batches fn factory: pin an aggregate's output to exactly these
    columns as Arrow (non-empty blocks only; pair with drop_empty_blocks)."""

    def f(b: pa.Table) -> pa.Table:
        return b.select(list(cols))

    return f


def _pairs_within_runs(doc: np.ndarray, run_id: np.ndarray,
                       max_run: int) -> tuple[np.ndarray, np.ndarray]:
    """All unordered (a, b) doc pairs within equal-run_id groups,
    ordered a < b.  Offset-diagonal vectorization: for each offset d,
    positions where run_id[i] == run_id[i+d] pair doc[i] with doc[i+d]
    — <= max_run vector passes, no per-run Python loop."""
    outs_a, outs_b = [], []
    for d in range(1, min(max_run, doc.size)):
        m = run_id[d:] == run_id[:-d]
        if not m.any():
            break  # run lengths are contiguous: no match at d => none at d+1
        outs_a.append(doc[:-d][m])
        outs_b.append(doc[d:][m])
    if not outs_a:
        return (np.zeros(0, np.int64),) * 2
    a = np.concatenate(outs_a)
    b = np.concatenate(outs_b)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi  # same doc twice in a run cannot happen (set rows)
    return lo[keep].astype(np.int64), hi[keep].astype(np.int64)


def _combine_pairs(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """(a, b) pair rows -> distinct (a, b, n) with multiplicity counts."""
    if a.size == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    up, cnt = np.unique(np.stack([a, b], axis=1), axis=0,
                        return_counts=True)
    return pa.table({"a": pa.array(up[:, 0], pa.int64()),
                     "b": pa.array(up[:, 1], pa.int64()),
                     "n": pa.array(cnt.astype(np.int64), pa.int64())})


def _shingle_run_pairs_df(sh: Dataset, max_df: int) -> Dataset:
    """(doc_id, shingle) rows -> locally-combined (a, b, n) candidate-pair
    rows with the df gate (2 <= df <= max_df) FUSED into the one shingle
    sort.  Each block detects its shingle runs, drops singleton and hot
    runs locally (the run length IS the global df for interior runs),
    pairs the survivors vectorized, and pre-combines duplicate pairs with
    ``np.unique`` before they ever leave the block.

    The first/last run of a block may continue into neighbor blocks, so
    its global df is unknown locally: it exports at most ``max_df + 1``
    rows PLUS the fragment's true length, and the driver reconstructs
    every boundary run's exact df from O(blocks) metadata (equal shingles
    are adjacent in fragment order — the table is globally sorted).  A
    fragment that truncated its export belongs to a run hotter than
    max_df and is dropped without needing its rows.

    Replaces the round-4 shape — df-aggregate sort, then a semi-filter
    pass, then a SECOND sort of the (barely smaller) filtered table:
    ONE all-to-all instead of two, no candidate-set materialization in
    between, and no driver-side broadcast of the active-shingle set, so
    the fused path has no small-side size threshold at all."""
    import ray as _ray

    from .blocks import as_arrow_block, nonempty_block_refs

    empty = _combine_pairs(np.zeros(0, np.int64), np.zeros(0, np.int64))
    s = sh.sort("shingle").materialize()
    refs = nonempty_block_refs(s)
    if not refs:
        return _ray.data.from_arrow(empty)

    @_ray.remote(num_returns=3)
    def block_pairs(blk, max_run: int):
        blk = as_arrow_block(blk)
        sh_v = blk["shingle"].to_numpy(zero_copy_only=False)
        doc = blk["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = sh_v.size
        new = np.r_[True, sh_v[1:] != sh_v[:-1]]
        run_id = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], n]
        rlen = ends - starts
        m = starts.size
        # interior runs are fully contained here: local length == global
        # df, so the df gate applies block-locally
        ok = (rlen >= 2) & (rlen <= max_run)
        ok[0] = False
        ok[-1] = False
        sel = np.repeat(ok, rlen)
        a, b = _pairs_within_runs(doc[sel], run_id[sel], max_run)
        pairs = _combine_pairs(a, b)
        # boundary fragments: row export capped at max_run + 1 (a longer
        # fragment proves df > max_df already), true length carried so
        # the driver can df-gate the merged run exactly
        edge_idx = (0,) if m == 1 else (0, m - 1)
        rows, meta_sh, meta_len = [], [], []
        for i in edge_idx:
            take = min(int(rlen[i]), max_run + 1)
            rows.append(blk.select(["shingle", "doc_id"])
                        .slice(int(starts[i]), take))
            meta_sh.append(sh_v[starts[i]])
            meta_len.append(int(rlen[i]))
        boundary = pa.concat_tables(rows)
        meta = pa.table({"shingle": pa.array(meta_sh, boundary.schema
                                             .field("shingle").type),
                         "flen": pa.array(meta_len, pa.int64())})
        return pairs, boundary, meta

    outs = [block_pairs.remote(r, max_df) for r in refs]
    pair_refs = [o[0] for o in outs]
    btbl = pa.concat_tables(_ray.get([o[1] for o in outs]))
    mtbl = pa.concat_tables(_ray.get([o[2] for o in outs]))
    # boundary-run reconstruction: fragments arrive in block order, and
    # global sortedness makes equal-shingle fragments adjacent
    msh = mtbl["shingle"].to_numpy(zero_copy_only=False)
    mlen = mtbl["flen"].to_numpy(zero_copy_only=False)
    fnew = np.r_[True, msh[1:] != msh[:-1]]
    df = np.add.reduceat(mlen, np.flatnonzero(fnew))
    run_ok = (df >= 2) & (df <= max_df)
    allowed = msh[fnew][run_ok]
    bsh = btbl["shingle"].to_numpy(zero_copy_only=False)
    bdoc = btbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = np.isin(bsh, allowed)
    bsh, bdoc = bsh[keep], bdoc[keep]
    if bsh.size:
        # a surviving run (df <= max_df) cannot have truncated any
        # fragment, so its exported rows are complete; rows stay in
        # global sorted order, so runs are contiguous as concatenated
        new = np.r_[True, bsh[1:] != bsh[:-1]]
        a, b = _pairs_within_runs(bdoc, np.cumsum(new) - 1, max_df)
        edge_pairs = _combine_pairs(a, b)
    else:
        edge_pairs = empty
    return _ray.data.from_arrow_refs(pair_refs + [_ray.put(edge_pairs)])


def ngram_jaccard_pairs(ds: Dataset, threshold: float = 0.8, k: int = 3,
                        max_df: int = 64, text_col: str = "text") -> pa.Table:
    """Exact n-gram-set Jaccard >= threshold via shared-shingle candidate
    generation (no all-pairs).  Shingles appearing in > max_df docs are
    dropped from candidate generation (hot-bucket cap; identical cap in the
    SQL oracle keeps the comparison exact).  Returns (a, b, jaccard_m) with
    jaccard_m = round(jaccard*1000) as int64.

    Shape (round 5): TWO all-to-alls total.  The shingle table is sorted
    ONCE — the df gate (2 <= df <= max_df), run pairing AND the local
    pair combine all ride that sort (:func:`_shingle_run_pairs_df`) —
    and the combined pairs pay one sorted aggregation for the global
    intersection counts.  Per-doc set sizes cost NO shuffle at all:
    ``shingle_rows`` emits each doc's rows consecutively, Ray preserves
    task output order, and every doc lives in exactly one input batch,
    so doc runs are contiguous by construction and a presorted
    boundary-carry aggregate reads the materialized blocks in place.
    The round-4 shape paid 4 sorts + ~8 pipeline executions on the same
    data (profiled at sf0.1: fixed per-execution cost dominated a 242k-row
    shingle table); this one pays 2 sorts + 4."""
    import ray as _ray
    from .blocks import drop_empty_blocks

    sh = ds.map_batches(lambda b: shingle_rows(b, k, text_col),
                        batch_format="pyarrow")
    sh = sh.materialize()  # consumed 2x (pair sort + per-doc sizes)
    # npart only sizes the big-side hash-join FALLBACK below (taken when
    # the sizes map outgrows the broadcast threshold); ~500k rows per
    # partition keeps the JoinOperator actor pool from starving the map
    # tasks at high parallelism (deadlock observed at npart=cpus)
    cpus = int(_ray.cluster_resources().get("CPU", 8))
    n_sh = sh.count()
    npart = max(8, min(cpus, n_sh // 500_000 + 1))

    def _empty_pairs() -> pa.Table:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "jaccard_m": pa.array([], pa.int64())})

    if n_sh == 0:
        return _empty_pairs()

    # candidate pairs, df-gated and locally combined, off ONE sort
    paired = _shingle_run_pairs_df(sh, max_df)

    # global intersection counts via sorted-agg (stages/groupagg: Ray's
    # hash aggregate pays ~20s per million grouped rows; the sort-based
    # exact replacement is ~20x faster and bit-identical)
    from .groupagg import sorted_groupby_agg
    inter = drop_empty_blocks(
        sorted_groupby_agg(paired, ["a", "b"], [("n", "sum", "inter")])
        .map_batches(_pin_arrow("a", "b", "inter"), batch_format="pyarrow"))
    if inter.count() == 0:
        # no shared (non-hot) shingle anywhere => no candidate pairs; the
        # joins below would also choke on an all-empty (schema-less) side
        return _empty_pairs()

    # per-doc set sizes: shuffle-free presorted aggregate (contiguity by
    # construction — see docstring), computed only once pairs exist
    sizes = drop_empty_blocks(
        sorted_groupby_agg(sh, ["doc_id"], [("doc_id", "count", "sz")],
                           presorted=True)
        .map_batches(_pin_arrow("doc_id", "sz"), batch_format="pyarrow"))

    sz_a = sizes.map_batches(
        lambda b: pa.table({"a": b["doc_id"], "sz_a": b["sz"]}),
        batch_format="pyarrow")
    sz_b = sizes.map_batches(
        lambda b: pa.table({"b": b["doc_id"], "sz_b": b["sz"]}),
        batch_format="pyarrow")
    # sizes are a narrow unique-keyed doc_id -> count map: broadcast
    # lookup while it fits (replaces TWO chained JoinOperators), hash
    # join fallback above the threshold
    from .joins import broadcast_lookup_join
    joined = broadcast_lookup_join(inter, sz_a, "a", "a", ["sz_a"])
    if joined is not None:
        joined = broadcast_lookup_join(joined, sz_b, "b", "b", ["sz_b"])
    if joined is None:
        joined = inter.join(sz_a, join_type="inner", num_partitions=npart,
                            on=("a",)) \
            .join(sz_b, join_type="inner", num_partitions=npart, on=("b",))

    def jac(b: pa.Table) -> pa.Table:
        n_int = b["inter"].to_numpy(zero_copy_only=False).astype(np.int64)
        union = (b["sz_a"].to_numpy(zero_copy_only=False).astype(np.int64)
                 + b["sz_b"].to_numpy(zero_copy_only=False).astype(np.int64)
                 - n_int)
        j = np.where(union > 0, n_int / np.maximum(union, 1), 1.0)
        keep = j >= threshold
        jm = np.floor(j[keep] * 1000 + 0.5).astype(np.int64)
        return pa.table({"a": b["a"].filter(pa.array(keep)),
                         "b": b["b"].filter(pa.array(keep)),
                         "jaccard_m": pa.array(jm, pa.int64())})

    out = joined.map_batches(jac, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["a", "b"]).reset_index(drop=True)
    out["a"] = out["a"].astype(np.int64)
    out["b"] = out["b"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


# ------------------------------------------------- embedding cosine dedup ---


def _pairs_table(a: np.ndarray, b: np.ndarray, cos: np.ndarray) -> pa.Table:
    """(a, b, cos_m) with a < b enforced by swapping, cos_m = round(cos*1000)."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    cos_m = (np.floor(np.abs(cos) * 1000 + 0.5) * np.sign(cos)).astype(np.int64)
    return pa.table({"a": pa.array(lo, pa.int64()),
                     "b": pa.array(hi, pa.int64()),
                     "cos_m": pa.array(cos_m, pa.int64())})


def _norm_rows(tbl: pa.Table, id_col: str, vec_col: str):
    ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    m = np.stack(tbl[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
    m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    return ids, m


def embedding_dup_pairs(ds: Dataset, threshold: float = 0.95,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        tile_rows: int = 8192) -> pa.Table:
    """EXACT near-dup pairs by embedding cosine >= threshold, as a tiled
    block self-join: the corpus is cut into ~``tile_rows``-row tiles held in
    the object store, and one Ray task per tile pair (i <= j) runs the
    (ni x nj) GEMM and emits only the pairs above threshold.

    Scale shape: nothing corpus-sized touches the driver and no tile is
    broadcast to every task (round-1 weakness: full-matrix ray.put read by
    every batch) — each task pulls exactly two tiles, so peak worker memory
    is 2 x tile, and the MATERIALIZED pair volume is output-bounded.  The
    O(n^2/tile_rows^2) task count is the exact-join floor: at a loose
    threshold over isotropic vectors (this fixture: real pairs at cos
    0.40-0.51) every exact algorithm must examine Omega(n^2) candidates.
    When the threshold is high (realistic near-dup regime, >= ~0.8), use
    :func:`embedding_dup_pairs_lsh` — sub-quadratic candidate generation
    with quantified recall.  Returns (a, b, cos_m) sorted.
    """
    import ray

    from .blocks import nonempty_block_refs

    n = ds.count()
    num_tiles = max(1, -(-n // tile_rows))
    tiles = ds.select_columns([id_col, vec_col]) \
        .repartition(num_tiles).materialize()
    refs = nonempty_block_refs(tiles)

    @ray.remote
    def tile_pairs(blk_a, blk_b, same: bool):
        ids_a, ma = _norm_rows(blk_a, id_col, vec_col)
        ids_b, mb = _norm_rows(blk_b, id_col, vec_col)
        cos = ma @ mb.T
        ai, bi = np.nonzero(cos >= threshold)
        keep = ids_a[ai] != ids_b[bi] if same else slice(None)
        ai, bi = ai[keep], bi[keep]
        if same:  # each unordered pair appears twice in the square tile
            up = ids_a[ai] < ids_b[bi]
            ai, bi = ai[up], bi[up]
        return _pairs_table(ids_a[ai], ids_b[bi], cos[ai, bi])

    outs = [tile_pairs.remote(refs[i], refs[j], i == j)
            for i in range(len(refs)) for j in range(i, len(refs))]
    # pair volume is output-bounded but NOT a-priori bounded at loose
    # thresholds: keep the per-tile results in the OBJECT STORE (Dataset
    # over the refs, distributed sort) instead of one blocking driver-side
    # ray.get + concat; only the final sorted table lands on the driver —
    # the documented contract of returning a pa.Table (callers needing
    # bigger-than-driver outputs should consume `.sort` output as a
    # Dataset via this same shape).
    pairs_ds = ray.data.from_arrow_refs(outs)
    if pairs_ds.count() == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "cos_m": pa.array([], pa.int64())})
    out = pairs_ds.sort(["a", "b"]).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


class HyperplaneBands:
    """(id, vector) -> (id, band, key, vector) LSH rows via signed random
    projections (Charikar 2002 SimHash for angles): two vectors at angle
    theta agree on one sign bit with p = 1 - theta/pi, so a pair at cosine
    c collides in one r-bit band with p(c)^r and is MISSED by all b bands
    with (1 - p(c)^r)^b.  Defaults (b=16, r=6): cos 0.9 -> miss 2e-5,
    cos 0.8 -> miss 1.4e-2; tune per threshold.  The vector rides along so
    verification happens inside the bucket — no second pass, no driver map.

    ``scheme="md5"`` (default) derives INTEGER hyperplane coefficients
    from :func:`functions.textstats.hash64` and projects the
    micro-quantized raw vector — pure int64 arithmetic, so each sign bit
    is bit-reproducible in plain SQL (the ``embdup_lsh`` oracle replays
    the banding exactly, the same move that made simhash value-exact).
    The sign of ``round(v*1e6) @ H`` differs from the float projection
    only within 1e-6 of a hyperplane — immaterial for recall.
    ``scheme="gauss"`` keeps the classic float Gaussian planes.
    """

    def __init__(self, num_bands: int = 16, bits_per_band: int = 6,
                 seed: int = 42, id_col: str = "vec_id",
                 vec_col: str = "embedding", scheme: str = "md5"):
        self.num_bands = num_bands
        self.bits = bits_per_band
        self.seed = seed
        self.id_col = id_col
        self.vec_col = vec_col
        if scheme not in ("md5", "gauss"):
            raise ValueError(f"unknown LSH scheme {scheme!r}")
        self.scheme = scheme
        self._H: np.ndarray | None = None  # built on first batch (needs dim)

    def _planes(self, dim: int) -> np.ndarray:
        if self.scheme == "gauss":
            rng = np.random.RandomState(self.seed)
            return rng.standard_normal((dim, self.num_bands * self.bits))
        from ..functions.textstats import hash64
        k_total = self.num_bands * self.bits
        vals = np.fromiter(
            (hash64(f"lshplane:{self.seed}:{k}:{j}") % 65536
             for k in range(k_total) for j in range(dim)),
            np.int64, k_total * dim)
        return (vals - 32768).reshape(k_total, dim).T  # (dim, K)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _norm_rows(batch, self.id_col, self.vec_col)
        if ids.size and ids.min() < 0:
            # the hot-bucket count rides in-band as an (a,b)=(-1,-1)
            # sentinel row downstream — a negative id would collide
            raise ValueError("embedding LSH requires non-negative ids")
        if self._H is None:
            self._H = self._planes(m.shape[1])
        if self.scheme == "md5":
            # micro-quantized RAW vector (sign is normalization-invariant)
            # x integer planes: the dot products are exact int64s — the
            # one property that lets SQL reproduce every bucket key
            raw = np.stack(batch[self.vec_col]
                           .to_numpy(zero_copy_only=False)) \
                .astype(np.float64)
            ei = (np.floor(np.abs(raw) * 1_000_000 + 0.5)
                  * np.sign(raw)).astype(np.int64)
            bits = (ei @ self._H >= 0).astype(np.uint64)
        else:
            bits = (m @ self._H >= 0.0).astype(np.uint64)
        bits = bits.reshape(len(ids), self.num_bands, self.bits)
        key = np.zeros((len(ids), self.num_bands), dtype=np.uint64)
        for r in range(self.bits):
            key = (key << np.uint64(1)) | bits[:, :, r]
        nb = self.num_bands
        vec_rep = np.repeat(m, nb, axis=0)  # (n*nb, d), zero-copy-ish
        vec_col = pa.FixedSizeListArray.from_arrays(
            pa.array(vec_rep.reshape(-1), pa.float64()), m.shape[1])
        return pa.table({
            "lsh_id": pa.array(np.repeat(ids, nb), pa.int64()),
            "band": pa.array(np.tile(np.arange(nb, dtype=np.int32), len(ids)),
                             pa.int32()),
            "key": pa.array(key.reshape(-1).astype(np.int64), pa.int64()),
            "vec": vec_col,
        })


def embedding_dup_pairs_lsh(ds: Dataset, threshold: float = 0.9,
                            num_bands: int = 16, bits_per_band: int = 6,
                            id_col: str = "vec_id",
                            vec_col: str = "embedding",
                            seed: int = 42,
                            max_bucket: int = 4096,
                            scheme: str = "md5") -> pa.Table:
    """Sub-quadratic near-dup pairs: hyperplane-LSH band buckets ->
    within-bucket exact cosine verification (distributed, vectors ride the
    shuffle; the driver only sees verified pairs).  Approximate with
    quantified recall (see :class:`HyperplaneBands`); a pair colliding in
    several bands is verified in each and deduped by the final groupby.
    Use for thresholds >= ~0.8 where p(c)^r is non-negligible; the exact
    tile join (:func:`embedding_dup_pairs`) covers loose thresholds.
    Returns (a, b, cos_m) sorted.

    Design note (measured): carrying the vector on each band row costs
    ``num_bands x`` vector bytes through ONE shuffle but verifies with a
    per-bucket GEMM.  The tempting alternative — band rows of ids only,
    candidate pairs via bucket self-join, vectors re-attached by two hash
    joins — moves fewer bytes in the banding shuffle but materializes one
    ROW per (pair, shared-band), which is quadratic in hot-bucket size and
    benched 45x SLOWER on clustered data (967s vs 21s at sf0.1).
    ``max_bucket`` bounds the per-bucket B^2 flops instead — the actual
    quadratic hazard — and dropped-bucket pairs are still found via their
    colder bands."""
    bands = ds.select_columns([id_col, vec_col]).map_batches(
        HyperplaneBands,
        fn_constructor_kwargs={"num_bands": num_bands,
                               "bits_per_band": bits_per_band,
                               "seed": seed, "id_col": id_col,
                               "vec_col": vec_col, "scheme": scheme},
        batch_format="pyarrow", concurrency=(1, 8))

    _EMPTY = pa.table({"a": pa.array([], pa.int64()),
                       "b": pa.array([], pa.int64()),
                       "cos_m": pa.array([], pa.int64())})
    # hot-bucket observability rides the bucket pass as (-1, -1)
    # sentinel rows (counted by the same final aggregation) — the old
    # separate audit paid an extra sort over every band row
    _HOT = pa.table({"a": pa.array([-1], pa.int64()),
                     "b": pa.array([-1], pa.int64()),
                     "cos_m": pa.array([1], pa.int64())})

    def bucket_pairs(g: pa.Table) -> pa.Table:
        # pyarrow group format (pandas-per-tiny-bucket conversion was the
        # dominant cost at ~100k buckets — measured, see minhash twin)
        ids = g["lsh_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids, uidx = np.unique(ids, return_index=True)
        if ids.size and ids[0] < 0:
            # sentinel-collision guard (ADVICE r4) — see minhash twin
            raise ValueError(
                "embedding_dup_pairs_lsh requires non-negative ids "
                f"(got {int(ids[0])}); remap ids before deduplication")
        if ids.size > max_bucket:
            # hot-bucket cap (same dial as ngram max_df): a bucket of B
            # members costs B^2 verify flops — unbounded B is the one
            # quadratic hazard in LSH.  Capped buckets are dropped; their
            # pairs are still found via any NON-hot band they share
            # (dup-pair bands are near-identical keys, so a pair lost in a
            # hot region almost always collides in a colder band too).
            return _HOT
        if ids.size < 2:
            return _EMPTY
        m = np.stack(g["vec"].to_numpy(zero_copy_only=False)[uidx])
        cos = m @ m.T
        ai, bi = np.nonzero(cos >= threshold)
        up = ids[ai] < ids[bi]
        ai, bi = ai[up], bi[up]
        cos_m = ((np.floor(np.abs(cos[ai, bi]) * 1000 + 0.5)
                  * np.sign(cos[ai, bi])).astype(np.int64))
        return pa.table({"a": pa.array(ids[ai], pa.int64()),
                         "b": pa.array(ids[bi], pa.int64()),
                         "cos_m": pa.array(cos_m, pa.int64())})

    from .groupagg import sorted_groupby_agg
    pairs = bands.groupby(["band", "key"]) \
        .map_groups(bucket_pairs, batch_format="pyarrow")
    # no silent caps: the (-1, -1) sentinel group's row count is the
    # number of dropped hot buckets — observability with NO extra pass
    out = sorted_groupby_agg(pairs, ["a", "b"],
                             [("cos_m", "min", "cos_m"),
                              ("cos_m", "count", "nb")]).to_pandas()
    n_hot = 0
    if len(out) and int(out["a"].iloc[0]) == -1:
        n_hot = int(out["nb"].iloc[0])
        out = out[out["a"] != -1]
    out = out.drop(columns=["nb"], errors="ignore")
    if n_hot:
        import logging
        logging.getLogger(__name__).warning(
            "embedding_dup_pairs_lsh: %d bucket(s) over max_bucket=%d were "
            "dropped from candidate generation; pairs confined to hot "
            "buckets are lost (raise max_bucket or bits_per_band)",
            n_hot, max_bucket)
    meta = {b"dropped_hot_buckets": str(int(n_hot)).encode(),
            b"max_bucket": str(max_bucket).encode()}
    if len(out) == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "cos_m": pa.array([], pa.int64())}) \
            .replace_schema_metadata(meta)
    out = out.sort_values(["a", "b"]).reset_index(drop=True)
    out["cos_m"] = out["cos_m"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False) \
        .replace_schema_metadata(meta)
