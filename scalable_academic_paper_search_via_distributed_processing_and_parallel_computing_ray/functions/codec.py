"""Posting-list compression: delta-gap + LEB128 varint, block-max, skips.

Pure numpy (vectorized encode AND decode — no per-int Python loops), no Ray.
Layout (SURVEY.md §1.4 "posting lists"): postings for one (term, salt) shard
are split into fixed-size blocks of ``BLOCK_SIZE`` postings.  Each block's
doc_ids are delta-encoded (first id absolute, then gaps) and varint-packed
independently, so WAND can skip whole blocks without decoding them.  Per
block we keep: first and last doc_id (for seeking), byte offsets into the
binary streams (skip pointers), and the Pareto frontier of its ``(tf,
doc_len)`` pairs (block-max upper bound, scored and multiplied by idf at
query time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 128  # postings per block

# On-disk index format this codec (and the segment schema built on it)
# produces.  v2 = raw (max_tf, min_dl) block bounds (extend-safe); v1 stored
# a precomputed per-block max tf_norm and is unreadable by v2 readers —
# IndexReader, extend_index and compact_index refuse any other version with
# a clear "rebuild required" error instead of a deep KeyError.
# v3 adds the (optional, possibly-empty) positional stream
# ``pos_bytes`` / ``block_pos_off`` to every segment row.
# v4 adds per-block impact Pareto frontiers (``imp_tf``/``imp_dl``/``imp_n``
# — Lucene-impact-style (tf, dl) pairs): the v3 bound paired max_tf with
# min_dl from DIFFERENT docs, so on tie-heavy corpora nearly every block's
# bound exceeded theta and WAND could not skip; the frontier makes the
# block bound the EXACT max per-doc score under ANY current avg_dl
# (extend-safe for the same reason the raw v2 pair was).
# v5 drops the two v2/v3 per-block (max tf, min dl) list columns: no reader
# used them, and a block's max tf / min dl are its frontier's first
# ``imp_tf`` and last ``imp_dl``.  Each list column adds a column chunk to
# every 32-row segment row group, so the two cost ~12% of index bytes.
FORMAT_VERSION = 5


# ---------------------------------------------------------------- varint ---

# 7-bit group thresholds: value < _THRESH[k] needs <= k+1 LEB128 bytes
_THRESH = (np.uint64(1) << (np.uint64(7) * np.arange(1, 10, dtype=np.uint64)))


def varint_encode_with_lengths(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a uint64 array, fully vectorized; also returns the
    per-value byte length (used to compute block skip offsets without
    re-encoding per block).

    Byte lengths come from one ``searchsorted`` against the 2^(7k)
    thresholds; output bytes are written with one scatter per byte
    position over the still-live (len > k) values — n-sized passes
    instead of the previous (n, B) matrix + boolean gather (~1.4x on
    mixed-magnitude gaps, the compaction-merge hot path)."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    nbytes = np.searchsorted(_THRESH, v, side="right").astype(np.int64) + 1
    ends = np.cumsum(nbytes)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    B = int(nbytes.max())
    if B == 1:  # fast path: every value fits 7 bits (dense delta gaps)
        out[:] = v.astype(np.uint8)
        return out.tobytes(), nbytes
    voff = ends - nbytes
    vv, nb = v, nbytes
    for k in range(B):
        if k:
            m = nb > k
            vv = vv[m] >> np.uint64(7)
            voff = voff[m]
            nb = nb[m]
        byte = (vv & np.uint64(0x7F)).astype(np.uint8)
        out[voff + k] = byte | ((nb > k + 1).astype(np.uint8) << 7)
    return out.tobytes(), nbytes


def varint_encode(values: np.ndarray) -> bytes:
    return varint_encode_with_lengths(values)[0]


def varint_decode(buf: bytes | memoryview) -> np.ndarray:
    """Decode LEB128 bytes -> uint64 array, fully vectorized."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    is_last = (b & 0x80) == 0
    if is_last.all():  # fast path: every value fits 7 bits (tf streams,
        return b.astype(np.uint64)  # dense doc-gap blocks) — skip the
        # cumsum/reduceat machinery (~5 temporaries) for the common case
    # start index of each value = positions just after each terminator
    starts = np.concatenate(([0], np.flatnonzero(is_last)[:-1] + 1))
    payload = (b & np.uint64(0x7F)).astype(np.uint64)
    # shift of each byte = 7 * (pos - start_of_its_value)
    value_id = np.cumsum(is_last) - is_last  # 0-based id of the value each byte belongs to
    pos_in_value = np.arange(b.size, dtype=np.int64) - starts[value_id]
    shifted = payload << (np.uint64(7) * pos_in_value.astype(np.uint64))
    return np.add.reduceat(shifted, starts)


# ------------------------------------------------------- impact frontier ---

def block_impact_frontier(tfs: np.ndarray, dls: np.ndarray,
                          bstarts: np.ndarray, bsizes: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block Pareto frontier of ``(tf, doc_len)`` impact pairs
    (Lucene-style impacts — LUCENE-4198 / the BlockMaxWAND literature).

    BM25's ``tf_norm(tf, dl, avg_dl)`` is increasing in tf and decreasing
    in dl for every avg_dl > 0, so the per-block max per-DOC score is
    attained on the staircase of non-dominated pairs: pair p dominates q
    iff ``tf_p >= tf_q and dl_p <= dl_q`` (one strict).  Storing the whole
    staircase (instead of a score) keeps the bound EXACT under any future
    global avg_dl — the extend-safety property the raw (max_tf, min_dl)
    pair had, without its cross-doc slack.

    ``bstarts``/``bsizes``: block layout over the posting stream (every
    block non-empty).  Returns ``(imp_tf int64, imp_dl int32, imp_n
    int32)``: the pairs flattened block-major in tf-DESCENDING (hence dl
    ascending) order, and the per-block pair count (>= 1).

    Fully vectorized.  The (block, -tf, dl) ordering is obtained by
    PACKING all three into one int64 key and VALUE-sorting it (tf/dl
    decode back out of the sorted key) — ~40x faster than the 3-key
    ``np.lexsort`` this replaced (0.4 s vs 16 s at 20M postings; the
    frontier pass was 90% of segment-encode time).  When the bit budget
    doesn't fit (astronomical block counts), the block id falls out of
    the key and two chained stable argsorts restore the grouping; a
    plain lexsort remains as the ultimate fallback for int64-range
    tf/dl.  The staircase is then a segmented exclusive running-min of
    dl (bias trick — later blocks get a strictly larger bias, so
    ``maximum.accumulate`` cannot leak across blocks; dl fits int32 so
    the bias cannot overflow int64); a row survives iff its dl is
    strictly below every higher-tf dl seen in its block.
    """
    nb = bstarts.size
    if nb == 0:
        return (np.zeros(0, np.int64), np.zeros(0, np.int32),
                np.zeros(0, np.int32))
    tfs64 = np.asarray(tfs, dtype=np.int64)
    dls64 = np.asarray(dls, dtype=np.int64)
    blk = np.repeat(np.arange(nb, dtype=np.int64), bsizes)
    tmax = int(tfs64.max())
    dmax = int(dls64.max())
    tbits = max(1, (tmax + 1).bit_length())
    dbits = max(1, (dmax + 1).bit_length())
    bbits = max(1, int(nb).bit_length())
    if tmax >= 0 and dls64.min() >= 0 and tbits + dbits + bbits <= 62:
        # full pack: one int64 value sort, decode (blk, tf, dl) back out
        key = ((blk << np.int64(tbits + dbits))
               | ((np.int64(tmax) - tfs64) << np.int64(dbits)) | dls64)
        key = np.sort(key)
        b_s = key >> np.int64(tbits + dbits)
        t_s = np.int64(tmax) - ((key >> np.int64(dbits))
                                & np.int64((1 << tbits) - 1))
        d_s = key & np.int64((1 << dbits) - 1)
    elif tmax >= 0 and dls64.min() >= 0 and tbits + dbits <= 62:
        # pack (tf, dl); restore block grouping with a second stable sort
        key = ((np.int64(tmax) - tfs64) << np.int64(dbits)) | dls64
        order = np.argsort(key, kind="stable")
        order = order[np.argsort(blk[order], kind="stable")]
        b_s, t_s, d_s = blk[order], tfs64[order], dls64[order]
    else:  # int64-range tf/dl (never from real tokenized docs)
        order = np.lexsort((dls64, -tfs64, blk))
        b_s, t_s, d_s = blk[order], tfs64[order], dls64[order]
    biased = -d_s + b_s * (np.int64(1) << np.int64(32))
    runmax = np.maximum.accumulate(biased)
    keep = np.ones(b_s.size, dtype=bool)
    keep[1:] = (b_s[1:] != b_s[:-1]) | (biased[1:] > runmax[:-1])
    return (t_s[keep], d_s[keep].astype(np.int32),
            np.bincount(b_s[keep], minlength=nb).astype(np.int32))


def expand_dl_lower_bounds(tfs: np.ndarray, imp_tf: np.ndarray,
                           imp_dl: np.ndarray, imp_n: np.ndarray,
                           bsizes: np.ndarray) -> np.ndarray:
    """Per-posting doc_len LOWER bound recovered from block impact
    frontiers — the compaction-merge dl surrogate (segments store no
    per-posting dl).

    For posting ``(tf_i, dl_i)`` in a block, the frontier pair with the
    smallest ``tf_f >= tf_i`` has ``dl_f <= dl_i``: if instead ``dl_i``
    were below every such pair's dl, ``(tf_i, dl_i)`` would itself be
    non-dominated and hence ON the frontier.  So assigning each posting
    that pair's dl (one global searchsorted over the tf-ascending frontier
    view) yields valid, per-tf-tight bounds — strictly tighter than the
    old block-min-dl surrogate — AND re-encoding a single source block
    with them reproduces the SAME frontier (frontier docs map to
    themselves; dominated docs map onto frontier dls), which keeps
    single-row compaction groups byte-identical under re-encode.

    ``tfs``: decoded per-posting tf; ``imp_*``: flat frontier arrays
    block-major (tf descending within a block); ``bsizes``: postings per
    block.  Returns int64 dl bounds, one per posting.
    """
    if tfs.size == 0:
        return np.zeros(0, np.int64)
    off = np.concatenate(([0], np.cumsum(imp_n, dtype=np.int64)))
    P = int(off[-1])
    blk_of_pair = np.repeat(np.arange(imp_n.size, dtype=np.int64),
                            imp_n.astype(np.int64))
    # reversed-within-block view: tf ascending (frontier stores tf desc)
    ridx = (off[blk_of_pair] + off[blk_of_pair + 1] - 1
            - np.arange(P, dtype=np.int64))
    BIG = np.int64(1) << np.int64(32)  # tf < 2^31 (doc_len is int32)
    imp_tf = np.asarray(imp_tf, np.int64)
    tfs = np.asarray(tfs, np.int64)
    if (tfs.max(initial=0) >= BIG or imp_tf.max(initial=0) >= BIG):
        # the packed (block, tf) key would overlap the next block's key
        # space and silently map postings to a WRONG block's frontier dl
        # (an UPPER-biased 'lower bound' corrupts WAND).  Engine-built
        # segments can't get here (tf <= doc_len < 2^31); refuse loudly
        # for hand-built impact data instead of corrupting bounds.
        raise ValueError("expand_dl_lower_bounds requires tf < 2^32 "
                         "(engine invariant: tf <= doc_len < 2^31)")
    key = blk_of_pair * BIG + imp_tf[ridx]
    blk_of_post = np.repeat(np.arange(bsizes.size, dtype=np.int64),
                            np.asarray(bsizes, np.int64))
    q = blk_of_post * BIG + np.asarray(tfs, np.int64)
    idx = np.searchsorted(key, q, side="left")
    return np.asarray(imp_dl, np.int64)[ridx[idx]]


# ---------------------------------------------------------- block layout ---

@dataclass
class EncodedPostings:
    """One (term, salt) shard: columnar fields stored in the segment table.

    Block score bounds are stored as each block's impact frontier of raw
    ``(tf, doc_len)`` pairs, NOT a precomputed tf_norm: the max of
    ``tf_norm(tf, dl, avg_dl)`` over the frontier is the exact block max
    for ANY current global ``avg_dl`` — which is what lets an index be
    extended with new shards (shifting avg_dl) without touching
    already-written segments.  The reader derives the float bound at
    first use (``pipelines/query.py`` ``_BlockCursor``).
    """
    df: int                      # number of postings in this shard
    doc_bytes: bytes             # concatenated per-block varint(delta(doc_ids))
    tf_bytes: bytes              # concatenated per-block varint(tf - 1)
    block_first: np.ndarray      # int64 — first doc_id of each block
    block_doc_off: np.ndarray    # int32 — byte offset of each block in doc_bytes
    block_tf_off: np.ndarray     # int32 — byte offset of each block in tf_bytes
    block_last: np.ndarray       # int64 — last doc_id of each block (skip bound)
    # positional stream (empty when the index was built without positions):
    # per posting, its doc's ``tf`` token positions (stop-filtered sequence,
    # ascending), delta-encoded within the doc (first absolute) and varint
    # packed doc-major.  block_pos_off gives each block's byte offset so a
    # future block-at-a-time phrase scorer can seek; full decode uses tfs
    # as the split table.
    pos_bytes: bytes = b""
    block_pos_off: np.ndarray | None = None
    # v4 impact frontier (block_impact_frontier): per-block Pareto (tf, dl)
    # pairs, flattened block-major, tf descending within a block; imp_n =
    # pairs per block.  Every encoder and segment row sets them; the None
    # defaults only keep the positional field order after pos_bytes.
    imp_tf: np.ndarray | None = None     # int64 flat
    imp_dl: np.ndarray | None = None     # int32 flat
    imp_n: np.ndarray | None = None      # int32 per block


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray,
                    dls: np.ndarray,
                    poss: np.ndarray | None = None) -> EncodedPostings:
    """doc_ids strictly ascending int64; tfs >= 1; dls = doc length per
    posting (block-bound basis).  ``poss``: optional flattened positions,
    doc-major — posting i owns ``tfs[i]`` ascending positions.

    Fully vectorized across ALL blocks: deltas are computed globally with the
    block-leading value kept absolute, both streams varint-encode in one call,
    and the per-block byte offsets come from the per-value length array —
    byte-identical to encoding each block independently, with no Python loop
    over blocks (which dominated merge time on long head-term lists).
    """
    n = doc_ids.size
    assert tfs.size == n and dls.size == n
    if n == 0:
        z32, z64 = np.zeros(0, np.int32), np.zeros(0, np.int64)
        return EncodedPostings(0, b"", b"", z64, z32, z32, z64,
                               b"", z32, z64, z32, z32)
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    starts = np.arange(0, n, BLOCK_SIZE, dtype=np.int64)
    ends = np.minimum(starts + BLOCK_SIZE, n)
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = np.uint64(doc_ids[0])
    if n > 1:
        deltas[1:] = np.diff(doc_ids).astype(np.uint64)
    deltas[starts] = doc_ids[starts].astype(np.uint64)  # block-leading absolute
    doc_bytes, doc_len = varint_encode_with_lengths(deltas)
    tf_bytes, tf_len = varint_encode_with_lengths(
        tfs.astype(np.uint64) - np.uint64(1))
    doc_off = np.concatenate(([0], np.cumsum(doc_len)))[starts]
    tf_off = np.concatenate(([0], np.cumsum(tf_len)))[starts]
    pos_bytes, pos_off = b"", np.zeros(starts.size, np.int32)
    if poss is not None and poss.size:
        tfs64 = np.asarray(tfs, dtype=np.int64)
        pstarts = np.concatenate(([0], np.cumsum(tfs64)))  # posting -> flat idx
        assert poss.size == pstarts[-1], "positions must sum to sum(tfs)"
        p = np.asarray(poss, dtype=np.int64)
        pdel = np.empty(p.size, dtype=np.uint64)
        pdel[0] = np.uint64(p[0])
        if p.size > 1:
            pdel[1:] = np.diff(p).astype(np.uint64)
        pdel[pstarts[:-1]] = p[pstarts[:-1]].astype(np.uint64)  # doc-leading absolute
        pos_bytes, pos_len = varint_encode_with_lengths(pdel)
        pos_cum = np.concatenate(([0], np.cumsum(pos_len)))
        pos_off = pos_cum[pstarts[starts]].astype(np.int32)
    imp_tf, imp_dl, imp_n = block_impact_frontier(
        tfs, dls, starts, ends - starts)
    return EncodedPostings(
        df=n,
        doc_bytes=doc_bytes,
        tf_bytes=tf_bytes,
        block_first=doc_ids[starts],
        block_doc_off=doc_off.astype(np.int32),
        block_tf_off=tf_off.astype(np.int32),
        block_last=doc_ids[ends - 1],
        pos_bytes=pos_bytes,
        block_pos_off=pos_off,
        imp_tf=imp_tf,
        imp_dl=imp_dl,
        imp_n=imp_n,
    )


def decode_block(enc: EncodedPostings, bi: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode one block -> (doc_ids int64, tfs int64)."""
    nb = enc.block_first.size
    dlo = int(enc.block_doc_off[bi])
    dhi = int(enc.block_doc_off[bi + 1]) if bi + 1 < nb else len(enc.doc_bytes)
    tlo = int(enc.block_tf_off[bi])
    thi = int(enc.block_tf_off[bi + 1]) if bi + 1 < nb else len(enc.tf_bytes)
    deltas = varint_decode(enc.doc_bytes[dlo:dhi])
    ids = np.cumsum(deltas.astype(np.int64))
    tfs = varint_decode(enc.tf_bytes[tlo:thi]).astype(np.int64) + 1
    return ids, tfs


def decode_positions(enc: EncodedPostings, tfs: np.ndarray) -> np.ndarray:
    """Decode the positional stream -> flattened int64 positions, doc-major
    (posting i owns ``tfs[i]`` ascending positions).  ``tfs`` is the decoded
    tf array (the split table).  Same vectorized reduceat-correction shape
    as :func:`decode_postings`, with doc boundaries instead of blocks."""
    if enc.df == 0 or not len(enc.pos_bytes):
        return np.zeros(0, dtype=np.int64)
    deltas = varint_decode(enc.pos_bytes).astype(np.int64)
    cs = np.cumsum(deltas)
    starts = np.concatenate(([0], np.cumsum(
        np.asarray(tfs, dtype=np.int64))))[:-1]
    if starts.size > 1:
        off = np.zeros(starts.size, dtype=np.int64)
        off[1:] = cs[starts[1:] - 1]
        sizes = np.diff(np.append(starts, deltas.size))
        return cs - np.repeat(off, sizes)
    return cs


def decode_postings(enc: EncodedPostings) -> tuple[np.ndarray, np.ndarray]:
    """Decode all blocks -> (doc_ids, tfs), in ONE vectorized pass.

    Both varint streams decode whole (no per-block slicing); the block-leading
    values are absolute doc_ids, so the global cumsum is corrected by
    subtracting, per block, the cumsum carried in from the previous blocks.
    Per-block decode ran one small numpy call chain per 128 postings and
    dominated dense-query latency (~80% of exhaustive-scorer time profiled).
    """
    if enc.df == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    deltas = varint_decode(enc.doc_bytes).astype(np.int64)
    n = deltas.size
    cs = np.cumsum(deltas)
    starts = np.arange(0, n, BLOCK_SIZE, dtype=np.int64)
    if starts.size > 1:
        off = np.zeros(starts.size, dtype=np.int64)
        off[1:] = cs[starts[1:] - 1]
        sizes = np.diff(np.append(starts, n))
        ids = cs - np.repeat(off, sizes)
    else:
        ids = cs
    tfs = varint_decode(enc.tf_bytes).astype(np.int64) + 1
    return ids, tfs


# ----------------------------------------------------- multi-group codec ---

def _block_geometry(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """Block layout for MANY segments at once.  ``sizes``: postings per
    segment (>= 0).  Returns ``(bstarts, bsizes, nblocks)`` where
    ``bstarts`` are GLOBAL posting indices of each block's first posting
    (segments tile the global stream in order; every segment start is a
    block start; blocks never span segments), ``bsizes`` the per-block
    posting counts and ``nblocks`` the per-segment block counts."""
    sizes = np.asarray(sizes, dtype=np.int64)
    nblocks = -(-sizes // BLOCK_SIZE)  # ceil; 0 for empty segments
    total = int(nblocks.sum())
    if total == 0:
        z = np.zeros(0, np.int64)
        return z, z, nblocks
    seg_of_block = np.repeat(np.arange(sizes.size, dtype=np.int64), nblocks)
    first_block = np.concatenate(([0], np.cumsum(nblocks)))[:-1]
    within = np.arange(total, dtype=np.int64) - first_block[seg_of_block]
    gstarts = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    bstarts = gstarts[seg_of_block] + within * BLOCK_SIZE
    bends = np.minimum(bstarts + BLOCK_SIZE,
                       gstarts[seg_of_block] + sizes[seg_of_block])
    return bstarts, bends - bstarts, nblocks


def decode_postings_multi(doc_buf: bytes | memoryview | np.ndarray,
                          tf_buf: bytes | memoryview | np.ndarray,
                          dfs: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Decode the CONCATENATION of many segments' posting streams in one
    vectorized pass -> ``(doc_ids int64, tfs int64)``, both of length
    ``sum(dfs)``.  ``dfs``: postings per segment, in buffer order.

    Equivalent to ``decode_postings`` per segment + concatenate, minus one
    Python call chain per segment — the per-group overhead that dominated
    compaction-merge time (~2.5 ms/group at x4096).  The cumsum runs over
    the whole stream in uint64; block bases are subtracted with wraparound
    arithmetic, which is exact because every true doc_id fits in int64."""
    deltas = varint_decode(doc_buf)
    bstarts, bsizes, _ = _block_geometry(dfs)
    if deltas.size != int(np.asarray(dfs, dtype=np.int64).sum()):
        raise ValueError("posting stream length does not match sum(df)")
    if deltas.size == 0:
        z = np.zeros(0, np.int64)
        return z, z
    cs = np.cumsum(deltas)  # uint64, may wrap — corrected below
    base = cs[bstarts] - deltas[bstarts]
    ids = (cs - np.repeat(base, bsizes)).astype(np.int64)
    tfs = varint_decode(tf_buf).astype(np.int64) + 1
    if tfs.size != deltas.size:
        raise ValueError("tf stream length does not match doc stream")
    return ids, tfs


def encode_postings_multi(doc_ids: np.ndarray, tfs: np.ndarray,
                          dls: np.ndarray, gsizes: np.ndarray) -> dict:
    """Encode MANY segments in one vectorized pass.  ``doc_ids`` strictly
    ascending WITHIN each segment (segments tile the stream per
    ``gsizes``); ``tfs >= 1``; ``dls`` per posting.  No positional stream
    (callers with positions use :func:`encode_postings` per segment).

    Byte-identical per segment to :func:`encode_postings`.  Returns flat
    columns ready for zero-copy Arrow assembly::

        doc_bytes, tf_bytes     -- one buffer each (np.uint8)
        doc_offsets, tf_offsets -- int64, len G+1: per-segment byte spans
        nblocks                 -- int64, len G: list-column lengths
        block_first, block_last     -- int64, len B
        block_doc_off, block_tf_off -- int32, len B
        imp_tf (int64) / imp_dl (int32)  -- flat impact pairs, len P
        imp_n                   -- int32, len B: pairs per block
        imp_offsets             -- int64, len G+1: per-segment pair spans
    """
    gsizes = np.asarray(gsizes, dtype=np.int64)
    n = int(gsizes.sum())
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    assert doc_ids.size == n and tfs.size == n and dls.size == n
    bstarts, bsizes, nblocks = _block_geometry(gsizes)
    gends = np.cumsum(gsizes)
    if n == 0:
        return {"doc_bytes": np.zeros(0, np.uint8),
                "tf_bytes": np.zeros(0, np.uint8),
                "doc_offsets": np.zeros(gsizes.size + 1, np.int64),
                "tf_offsets": np.zeros(gsizes.size + 1, np.int64),
                "nblocks": nblocks,
                "block_first": np.zeros(0, np.int64),
                "block_last": np.zeros(0, np.int64),
                "block_doc_off": np.zeros(0, np.int32),
                "block_tf_off": np.zeros(0, np.int32),
                "imp_tf": np.zeros(0, np.int64),
                "imp_dl": np.zeros(0, np.int32),
                "imp_n": np.zeros(0, np.int32),
                "imp_offsets": np.zeros(gsizes.size + 1, np.int64)}
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = np.uint64(doc_ids[0])
    if n > 1:
        # wraps negative at segment boundaries — overwritten below (every
        # segment start is a block start)
        deltas[1:] = np.diff(doc_ids).astype(np.uint64)
    deltas[bstarts] = doc_ids[bstarts].astype(np.uint64)
    doc_bytes, doc_len = varint_encode_with_lengths(deltas)
    tf_bytes, tf_len = varint_encode_with_lengths(
        np.asarray(tfs, dtype=np.uint64) - np.uint64(1))
    cum_doc = np.concatenate(([0], np.cumsum(doc_len)))
    cum_tf = np.concatenate(([0], np.cumsum(tf_len)))
    gstarts = gends - gsizes
    seg_of_block = np.repeat(np.arange(gsizes.size, dtype=np.int64), nblocks)
    imp_tf, imp_dl, imp_n = block_impact_frontier(tfs, dls, bstarts, bsizes)
    # per-segment pair spans: cumulative pairs at each segment's block start
    pair_cum = np.concatenate(([0], np.cumsum(imp_n, dtype=np.int64)))
    first_block = np.concatenate(([0], np.cumsum(nblocks)))
    imp_offsets = pair_cum[first_block]
    return {
        "doc_bytes": np.frombuffer(doc_bytes, dtype=np.uint8),
        "tf_bytes": np.frombuffer(tf_bytes, dtype=np.uint8),
        "doc_offsets": cum_doc[np.concatenate((gstarts, [n]))],
        "tf_offsets": cum_tf[np.concatenate((gstarts, [n]))],
        "nblocks": nblocks,
        "block_first": doc_ids[bstarts],
        "block_last": doc_ids[bstarts + bsizes - 1],
        "block_doc_off": (cum_doc[bstarts]
                          - cum_doc[gstarts][seg_of_block]).astype(np.int32),
        "block_tf_off": (cum_tf[bstarts]
                         - cum_tf[gstarts][seg_of_block]).astype(np.int32),
        "imp_tf": imp_tf,
        "imp_dl": imp_dl,
        "imp_n": imp_n,
        "imp_offsets": imp_offsets,
    }
