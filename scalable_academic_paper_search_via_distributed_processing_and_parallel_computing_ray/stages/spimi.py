"""SPIMI-style posting construction stages (the engine's core map stages).

Two ``map_batches`` stages:

* :class:`ExtractDocs` — pages batch -> cleaned-docs batch
  ``(doc_id, url, text, doc_len)``.  HTML parsing is inherently per-document
  string work (stdlib parser), so this is the one stage with a per-row loop;
  it runs in a CPU-bound actor pool.  Replaces the reference's cleaning job
  (``dataset_cleaning/CoreDataCleaner.scala:23-37``) + the tokenize/doc_length
  part of ``bm25_precompute.py:30-36``.

* :class:`PartialPostingsBuilder` — docs batch -> partial-posting rows
  ``(term, salt, doc_ids:list<int64>, tfs:list<int32>, dls:list<int32>)``,
  one row per term per batch, doc_ids sorted ascending.  Fully vectorized
  (Arrow group_by + numpy lexsort + zero-copy ListArray assembly).  Head
  terms (partial df >= threshold within the batch) get a content-derived
  salt so the downstream ``groupby(term, salt)`` shuffle spreads Zipfian
  skew over ``num_salts`` reducers (north_rule: "term-frequency skew via
  salted repartitioning of head terms"; the reference has no skew handling
  at all — SURVEY.md §4.3.1).

Carrying ``dls`` (per-posting doc length) through the shuffle costs 4 bytes
per posting but lets the merge stage compute block-max tf_norm bounds
without a doc-length join (SURVEY.md §7.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.extract import html_to_text
from ..functions.textstats import hash64
from .text import doc_lengths, flat_tokens, term_counts

DOC_ID_MASK = (1 << 62) - 1  # keep ids positive int64


def stable_doc_id(url: str) -> int:
    """Order-independent doc id: 62-bit content hash of the url
    (SURVEY.md §4.3.2 — never depend on task completion order)."""
    return hash64(url) & DOC_ID_MASK


class ExtractDocs:
    """pages ``(url, html[, doc_id])`` -> docs ``(doc_id, url, text, doc_len)``.

    ``doc_id`` comes from the input column when present (test fixtures carry
    the generator's ids so oracle joins line up), else from ``stable_doc_id``.
    Inputs that already carry extracted ``text`` (and no ``html``) skip the
    extraction step — the index build then starts at tokenization, matching
    the reference's JSONL-paper path (``bm25_precompute.py:24-26``).

    ``path_to_sid``: when set (and the batch has the ``path`` column from
    ``read_parquet(include_paths=True)``), a ``sid`` shard-id column is
    appended so ONE pipeline can process every pending shard and fan its
    output back out with a hive-partitioned write — per-pipeline fixed costs
    (scheduling + shuffle floors) dominated per-shard pipelines.
    """

    def __init__(self, path_to_sid: dict[str, int] | None = None):
        self.path_to_sid = path_to_sid

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "html" in batch.column_names:
            htmls = batch["html"].to_pylist()
            texts = [html_to_text(h) for h in htmls]
        else:
            texts = batch["text"].to_pylist()
        if "url" in batch.column_names:
            urls = batch["url"].to_pylist()
        else:
            urls = [f"doc://{d}" for d in batch["doc_id"].to_pylist()]
        if "doc_id" in batch.column_names:
            doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            doc_ids = np.fromiter((stable_doc_id(u) for u in urls),
                                  dtype=np.int64, count=len(urls))
        texts_arr = pa.array(texts, pa.string())
        doc_lens = doc_lengths(texts_arr, len(texts))  # Arrow kernels, not per-doc re
        cols = {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "text": texts_arr,
            "doc_len": pa.array(doc_lens, pa.int32()),
        }
        if self.path_to_sid is not None and "path" in batch.column_names:
            sids = [self.path_to_sid[p] for p in batch["path"].to_pylist()]
            cols["sid"] = pa.array(sids, pa.int32())
        return pa.table(cols)


PARTIALS_SCHEMA = pa.schema([
    ("sid", pa.int32()),
    ("term", pa.string()),
    ("salt", pa.int32()),
    ("doc_ids", pa.list_(pa.int64())),
    ("tfs", pa.list_(pa.int32())),
    ("dls", pa.list_(pa.int32())),
    # flattened per-posting token positions (doc-major; posting i owns
    # tfs[i] ascending entries).  Empty lists when positions are disabled —
    # the schema is stable across the flag.
    ("poss", pa.list_(pa.int32())),
])


class PartialPostingsBuilder:
    """docs ``(doc_id, text, doc_len[, sid])`` -> partial postings
    (one row per (shard, term)).

    Stateful actor: the stop-word Arrow array and salt parameters live for
    the actor's lifetime (loaded once in ``__init__`` — reference analog: the
    per-partition scorer state in ``bm25_searcher.py:64-69``).

    ``sid``: the shard-id column :class:`ExtractDocs` tags rows with; one
    pipeline covers every pending shard and batches may mix shards, so
    runs group by (sid, term).  Without the column (single-shard/test use)
    sid is 0.
    """

    def __init__(self, num_salts: int = 16, head_df_frac: float = 0.05,
                 positions: bool = False):
        self.num_salts = int(num_salts)
        self.head_df_frac = float(head_df_frac)
        self.positions = bool(positions)

    def _sids(self, batch: pa.Table) -> np.ndarray:
        if "sid" in batch.column_names:
            return batch["sid"].to_numpy(zero_copy_only=False) \
                .astype(np.int32)
        return np.zeros(batch.num_rows, dtype=np.int32)

    def _salts_for_runs(self, terms: pa.Array, df_part: np.ndarray,
                        run_thr: np.ndarray, first_doc: np.ndarray
                        ) -> np.ndarray:
        """Content-derived salt for head runs (deterministic regardless of
        task order); tail runs keep salt 0."""
        salts = np.zeros(df_part.size, dtype=np.int32)
        for ri in np.flatnonzero(df_part >= run_thr):
            salts[ri] = hash64(
                f"{terms[ri].as_py()}:{first_doc[ri]}") % self.num_salts
        return salts

    def _call_positions(self, batch: pa.Table, sid_col: np.ndarray) -> pa.Table:
        """Occurrence-level build: one row per token occurrence, grouped to
        (sid, term, doc) postings carrying position lists.  The grouped
        Arrow hash-aggregate of the tf-only path can't keep per-occurrence
        order, so this path lexsorts occurrences instead — measured ~1.3x
        the tf-only stage cost, paid only when positions are requested."""
        flat, par = flat_tokens(batch["text"])
        if len(flat) == 0:
            return PARTIALS_SCHEMA.empty_table()
        parn = par.to_numpy(zero_copy_only=False).astype(np.int64)
        # position within each doc: par is ascending, so subtract run starts
        idx = np.arange(parn.size, dtype=np.int64)
        run_cut = np.concatenate(([0], np.flatnonzero(np.diff(parn)) + 1))
        run_len = np.diff(np.append(run_cut, parn.size))
        pos = (idx - np.repeat(idx[run_cut], run_len)).astype(np.int32)
        term_dict = flat.dictionary_encode()
        codes = term_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = term_dict.dictionary
        doc_ids_col = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dls_col = batch["doc_len"].to_numpy(zero_copy_only=False).astype(np.int32)
        doc, dl, sid = doc_ids_col[parn], dls_col[parn], sid_col[parn]

        order = np.lexsort((pos, doc, codes, sid))
        sid_s, code_s = sid[order], codes[order]
        doc_s, dl_s, pos_s = doc[order], dl[order], pos[order]
        n_occ = order.size
        # posting runs: (sid, term, doc)
        pb_cut = np.flatnonzero((np.diff(code_s) != 0) | (np.diff(sid_s) != 0)
                                | (np.diff(doc_s) != 0)) + 1
        pb_starts = np.concatenate(([0], pb_cut))
        pb_ends = np.concatenate((pb_cut, [n_occ]))
        tfs = (pb_ends - pb_starts).astype(np.int32)
        p_sid, p_code = sid_s[pb_starts], code_s[pb_starts]
        p_doc, p_dl = doc_s[pb_starts], dl_s[pb_starts]
        # term runs over postings: (sid, term)
        tb_cut = np.flatnonzero((np.diff(p_code) != 0)
                                | (np.diff(p_sid) != 0)) + 1
        starts = np.concatenate(([0], tb_cut))
        ends = np.concatenate((tb_cut, [p_doc.size]))
        df_part = ends - starts
        offsets = np.concatenate(([0], ends)).astype(np.int64)
        occ_offsets = np.concatenate(
            ([0], pb_ends[ends - 1])).astype(np.int64)

        terms = vocab.take(pa.array(p_code[starts]))
        sid_doc_counts = np.bincount(sid_col, minlength=int(sid_col.max()) + 1)
        run_thr = np.maximum(
            8.0, self.head_df_frac * sid_doc_counts[p_sid[starts]])
        salts = self._salts_for_runs(terms, df_part, run_thr, p_doc[starts])

        off = pa.array(offsets, pa.int64())
        poff = pa.array(occ_offsets, pa.int64())
        return pa.table({
            "sid": pa.array(p_sid[starts], pa.int32()),
            "term": terms,
            "salt": pa.array(salts, pa.int32()),
            "doc_ids": pa.LargeListArray.from_arrays(off, pa.array(p_doc, pa.int64())).cast(pa.list_(pa.int64())),
            "tfs": pa.LargeListArray.from_arrays(off, pa.array(tfs, pa.int32())).cast(pa.list_(pa.int32())),
            "dls": pa.LargeListArray.from_arrays(off, pa.array(p_dl, pa.int32())).cast(pa.list_(pa.int32())),
            "poss": pa.LargeListArray.from_arrays(poff, pa.array(pos_s, pa.int32())).cast(pa.list_(pa.int32())),
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_docs = batch.num_rows
        if n_docs == 0:
            return PARTIALS_SCHEMA.empty_table()
        sid_col = self._sids(batch)
        if self.positions:
            return self._call_positions(batch, sid_col)
        tc = term_counts(batch["text"])          # (pidx, term, tf) — C++ kernels
        if tc.num_rows == 0:
            # every doc in the batch tokenized to nothing (blank /
            # stop-words-only pages) — no postings to emit
            return PARTIALS_SCHEMA.empty_table()
        pidx = tc["pidx"].to_numpy()
        term_dict = tc["term"].combine_chunks().dictionary_encode()
        codes = term_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = term_dict.dictionary                  # StringArray of unique terms
        tf = tc["tf"].to_numpy().astype(np.int32)
        doc_ids_col = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dls_col = batch["doc_len"].to_numpy(zero_copy_only=False).astype(np.int32)
        doc = doc_ids_col[pidx]
        dl = dls_col[pidx]
        sid = sid_col[pidx]

        order = np.lexsort((doc, codes, sid))   # group by (sid, term), doc asc
        sid_s, codes_s = sid[order], codes[order]
        doc_s, tf_s, dl_s = doc[order], tf[order], dl[order]
        # run boundaries per (sid, term)
        cut = np.flatnonzero((np.diff(codes_s) != 0) | (np.diff(sid_s) != 0)) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [codes_s.size]))
        df_part = ends - starts
        offsets = np.concatenate(([0], ends)).astype(np.int64)

        run_codes = codes_s[starts]
        terms = vocab.take(pa.array(run_codes))
        # head threshold against THIS SHARD's docs in the batch: wave
        # batches can mix shards, and a run only ever spans one shard, so a
        # whole-batch threshold would under-salt head terms on mixed batches
        sid_doc_counts = np.bincount(sid_col, minlength=int(sid_col.max()) + 1)
        run_thr = np.maximum(8.0, self.head_df_frac * sid_doc_counts[sid_s[starts]])
        salts = self._salts_for_runs(terms, df_part, run_thr, doc_s[starts])

        off = pa.array(offsets, pa.int64())
        empty_poss = pa.array(np.zeros(starts.size + 1, np.int64), pa.int64())
        return pa.table({
            "sid": pa.array(sid_s[starts], pa.int32()),
            "term": terms,
            "salt": pa.array(salts, pa.int32()),
            "doc_ids": pa.LargeListArray.from_arrays(off, pa.array(doc_s, pa.int64())).cast(pa.list_(pa.int64())),
            "tfs": pa.LargeListArray.from_arrays(off, pa.array(tf_s, pa.int32())).cast(pa.list_(pa.int32())),
            "dls": pa.LargeListArray.from_arrays(off, pa.array(dl_s, pa.int32())).cast(pa.list_(pa.int32())),
            "poss": pa.LargeListArray.from_arrays(
                empty_poss, pa.array([], pa.int32())).cast(pa.list_(pa.int32())),
        })
