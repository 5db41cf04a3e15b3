"""Row-group-fragment parquet reader that ASSIGNS doc ids by position.

SCALE.md switch point 2, flipped: the default doc id is a 62-bit url
hash (``stages/spimi.py:stable_doc_id``) whose birthday bound at 10^12
docs is ~10^5 expected collisions.  ``BuildParams(doc_id_mode=
"sharded")`` switches the build to ids that are collision-free BY
CONSTRUCTION::

    doc_id = (file_seq << ROW_BITS) | row_in_file

``file_seq`` is the file's index in the generation-persistent file
ledger (``doc_id_files.json`` — append-only across extends, so ids
never repeat between generations) and ``row_in_file`` comes from the
parquet row-group offsets, which are deterministic regardless of task
scheduling.  2^23 files x 2^40 rows/file keeps every id a positive
int64; the codec and query path only need orderable int64s.

The reader fans out ONE task per row group (the natural parallelism
unit of a parquet corpus) via ``from_items(fragment metadata) ->
map_batches(read fragment)``: the driver touches only footers
(O(files)), never data.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

from ..state import fsio

ROW_BITS = 40
MAX_FILE_SEQ = (1 << 23) - 1  # ids stay positive int64


def sharded_doc_ids(file_seq: int, row_off: int, n: int) -> np.ndarray:
    if file_seq > MAX_FILE_SEQ:
        raise ValueError(
            f"file_seq {file_seq} exceeds {MAX_FILE_SEQ} — widen ROW_BITS "
            "split or shard the ledger")
    if row_off + n > (1 << ROW_BITS):
        raise ValueError(
            f"file rows {row_off + n} exceed 2^{ROW_BITS} — one parquet "
            "file holds too many rows for the id split")
    base = (file_seq << ROW_BITS) | row_off
    return base + np.arange(n, dtype=np.int64)


def fragment_items(files: list[str], seq_of: dict[str, int]) -> list[dict]:
    """One item per parquet row group: (file, file_seq, rg index, row
    offset, rows).  Footer-only driver scan, threaded."""

    def one(f: str) -> list[dict]:
        md = fsio.pq_file(f).metadata
        out, off = [], 0
        for rg in range(md.num_row_groups):
            n = md.row_group(rg).num_rows
            out.append({"file": f, "file_seq": seq_of[f], "rg": rg,
                        "row_off": off, "rows": n})
            off += n
        return out

    with ThreadPoolExecutor(min(32, max(1, len(files)))) as ex:
        per_file = list(ex.map(one, files))
    return [it for sub in per_file for it in sub]


def read_fragments(files: list[str], columns: list[str],
                   seq_of: dict[str, int],
                   num_blocks: int | None = None) -> Dataset:
    """Dataset over ``files`` reading only ``columns`` plus synthesized
    ``doc_id`` (position-based, see module docstring) and ``path``
    columns.  One read task per row group by default; ``num_blocks``
    coalesces row groups into that many read tasks/blocks so the
    sharded-id build gets the SAME merge-width pin as ``_read_corpus``
    (ADVICE r4: without it the downstream sort-shuffle width reverted to
    row-group count)."""
    items = fragment_items(files, seq_of)

    def read_one(b: pa.Table) -> pa.Table:
        out = []
        for row in b.to_pylist():
            t = fsio.pq_file(row["file"]).read_row_group(
                row["rg"], columns=columns)
            t = t.append_column("doc_id", pa.array(
                sharded_doc_ids(row["file_seq"], row["row_off"],
                                t.num_rows), pa.int64()))
            t = t.append_column("path", pa.array(
                [row["file"]] * t.num_rows, pa.string()))
            out.append(t)
        return pa.concat_tables(out)

    nb = min(len(items), num_blocks) if num_blocks else len(items)
    per_task = -(-len(items) // max(1, nb))
    # num_cpus=0.99 keeps the reader an UNFUSED operator: a from_items
    # block is ONE METADATA ROW, and when the read fuses with the
    # downstream extract/postings chain, that chain's 2048-row batch
    # bundles ALL items into a single task (measured: the whole sharded
    # build collapsed to 1-task waves, 3.5x slower than the auto path;
    # an explicit batch_size does NOT prevent the fusion, a distinct
    # resource request does).  Fractionally under 1 so a full-width
    # read still schedules one task per core.
    return rd.from_items(items, override_num_blocks=max(1, nb)).map_batches(
        read_one, batch_format="pyarrow", batch_size=per_task,
        num_cpus=0.99)


# ------------------------------------------------------- file-seq ledger ---


LEDGER = "doc_id_files.json"


def canon(path: str) -> str:
    """Canonical spelling for ledger identity (ADVICE r4): the same file
    reached via a relative path, ``./``, or a symlink must map to ONE
    ``file_seq`` — a different spelling passing the duplicate check would
    re-ingest every row under fresh doc_ids.  ``file://`` URIs are local
    files too and map to the realpath of their local path; other URIs
    pass through untouched (realpath would mangle ``s3://...`` into a
    bogus CWD-relative local path) — object-store spellings are already
    canonical per key."""
    if path.startswith("file://"):
        path = fsio.resolve(path)[1]
    elif fsio.is_uri(path):
        return path
    return os.path.realpath(path)


def load_ledger(index_dir: str) -> list[str]:
    p = os.path.join(index_dir, LEDGER)
    if not fsio.exists(p):
        return []
    # canonicalize on load too: ledgers written before normalization (or
    # by hand) still dedupe correctly; position — and therefore ids —
    # is untouched
    return [canon(x) for x in fsio.read_json(p)["files"]]


def extend_ledger(index_dir: str, new_files: list[str]) -> dict[str, int]:
    """Append ``new_files`` (canonicalized, deduped, order-preserving) to
    the ledger and return the full {file: seq} map.  The ledger is
    append-only: a file's seq — and therefore its rows' doc ids — never
    changes across resume/extend generations."""
    import json
    cur = load_ledger(index_dir)
    seen = set(cur)
    for f in new_files:
        f = canon(f)
        if f not in seen:
            cur.append(f)
            seen.add(f)
    p = os.path.join(index_dir, LEDGER)
    fsio.write_json_atomic(p, {"files": cur, "row_bits": ROW_BITS})
    return {f: i for i, f in enumerate(cur)}
