"""End-to-end golden + metamorphic tests (SURVEY.md §5.2-5.3):
rank-parity engine vs brute-force oracle, WAND vs exhaustive,
partition-count invariance, resume-equals-fresh."""

import glob
import os
import shutil

import pyarrow.parquet as pq
import pytest

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import (
    build,
    oracle,
    query,
)
from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources.pages import (
    QUERY_SET,
)


@pytest.fixture(scope="module")
def reader(index_dir):
    return query.IndexReader(index_dir)


def _fmt(results):
    return [(r.doc_id, round(r.score, 6)) for r in results]


def test_manifest_stats_match_oracle(reader, oracle_index):
    assert reader.n_docs == oracle_index.n_docs
    assert abs(reader.avg_dl - oracle_index.avg_dl) < 1e-9
    for term in ("spark", "data", "café"):
        assert reader._df.get(term, 0) == oracle_index.df.get(term, 0)


def test_rank_parity_all_queries(reader, oracle_index):
    for q in QUERY_SET:
        want = [(d, round(s, 6)) for d, s in
                oracle.oracle_topk(oracle_index, q["query_text"], q["k"], q["mode"])]
        got_ex = _fmt(reader.search_exhaustive(q["query_text"], q["k"], q["mode"]))
        got_wand = _fmt(reader.search_wand(q["query_text"], q["k"], q["mode"]))
        assert got_ex == want, f"exhaustive != oracle for q{q['query_id']}"
        assert got_wand == want, f"wand != oracle for q{q['query_id']}"


def test_filtered_rank_parity(reader, oracle_index):
    """Metadata-filtered search: WAND == exhaustive == oracle under an
    allowed-doc filter, for several filter shapes.  Stats stay GLOBAL, so
    filtered scores must equal unfiltered scores for surviving docs."""
    import numpy as np
    all_ids = np.asarray(oracle_index.doc_ids, dtype=np.int64)
    shapes = {
        "every3rd": all_ids[::3],
        "singleton": all_ids[7:8],
        "empty": all_ids[:0],
        "all": all_ids,
    }
    for name, allowed in shapes.items():
        mask = reader.make_doc_mask(allowed)
        aset = {int(x) for x in allowed}
        for q in QUERY_SET:
            want = [(d, round(s, 6)) for d, s in
                    oracle.oracle_topk(oracle_index, q["query_text"],
                                       q["k"], q["mode"], allowed=aset)]
            got_ex = _fmt(reader.search_exhaustive(
                q["query_text"], q["k"], q["mode"], mask=mask))
            got_wand = _fmt(reader.search_wand(
                q["query_text"], q["k"], q["mode"], mask=mask))
            assert got_ex == want, f"exhaustive!=oracle {name} q{q['query_id']}"
            assert got_wand == want, f"wand!=oracle {name} q{q['query_id']}"


def test_filtered_scores_equal_unfiltered(reader):
    """A doc that survives the filter keeps its exact unfiltered score
    (global statistics — the filter must not re-weight)."""
    import numpy as np
    full = {r.doc_id: r.score for r in
            reader.search_exhaustive("spark data join", 100)}
    keep = np.asarray(sorted(full), dtype=np.int64)[::2]
    mask = reader.make_doc_mask(keep)
    for r in reader.search_wand("spark data join", 100, mask=mask):
        assert r.doc_id in set(int(x) for x in keep)
        assert abs(r.score - full[r.doc_id]) < 1e-12


def test_wand_equals_exhaustive_various_k(reader):
    for k in (1, 3, 25, 100):
        for qtext in ("spark data join", "vector hash part"):
            assert _fmt(reader.search_wand(qtext, k)) == \
                _fmt(reader.search_exhaustive(qtext, k))


def test_partition_invariance(ray_session, pages_dir, tmp_path, index_dir):
    """Postings identical whether built from 1 or 4 shards (FIXTURES.md F5)."""
    d1 = str(tmp_path / "idx1")
    build.build_index(pages_dir, d1, build.BuildParams(num_shards=4, num_salts=2))
    r1 = query.IndexReader(d1)
    r2 = query.IndexReader(index_dir)  # 2 shards, 4 salts
    assert r1.n_docs == r2.n_docs and abs(r1.avg_dl - r2.avg_dl) < 1e-9
    assert r1._df == r2._df, "per-term document frequencies diverge"
    for q in QUERY_SET:
        assert _fmt(r1.search_wand(q["query_text"], q["k"], q["mode"])) == \
            _fmt(r2.search_wand(q["query_text"], q["k"], q["mode"]))


def test_resume_equals_fresh(ray_session, pages_dir, tmp_path):
    """A resumed build re-runs, whole, every shard that lacks either
    done-marker, and scores like a fresh build (WAND and exhaustive):
    shard 0 lost its docs/ while its segments were done, shard 1 its
    seg/, shard 2 both, and shard 3 only its seg/_SUCCESS marker (a crash
    between the two marker writes)."""
    d = str(tmp_path / "idxr")
    params = build.BuildParams(num_shards=4, num_salts=2)
    m_fresh = build.build_index(pages_dir, d, params)

    def _results():
        r = query.IndexReader(d)
        return [(_fmt(r.search_wand(q["query_text"], q["k"], q["mode"])),
                 _fmt(r.search_exhaustive(q["query_text"], q["k"], q["mode"])))
                for q in QUERY_SET]

    fresh = _results()
    shard = [os.path.join(d, "shards", f"shard-{i:04d}") for i in range(4)]
    shutil.rmtree(os.path.join(shard[0], "docs"))
    shutil.rmtree(os.path.join(shard[1], "seg"))
    shutil.rmtree(os.path.join(shard[2], "docs"))
    shutil.rmtree(os.path.join(shard[2], "seg"))
    os.remove(os.path.join(shard[3], "seg", "_SUCCESS"))
    m = build.build_index(pages_dir, d, params)
    assert m["n_docs"] == m_fresh["n_docs"]
    assert [r["n_postings"] for r in m["shards"]] == \
        [r["n_postings"] for r in m_fresh["shards"]]
    assert _results() == fresh


def test_doc_ids_strictly_ascending_in_segments(index_dir):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.codec import (
        EncodedPostings,
        decode_postings,
    )
    import numpy as np
    for f in glob.glob(os.path.join(index_dir, "shards", "*", "seg", "*.parquet")):
        t = pq.read_table(f)
        d = t.to_pydict()
        for i in range(t.num_rows):
            enc = EncodedPostings(
                df=d["df"][i], doc_bytes=d["doc_bytes"][i], tf_bytes=d["tf_bytes"][i],
                block_first=np.asarray(d["block_first"][i], np.int64),
                block_doc_off=np.asarray(d["block_doc_off"][i], np.int32),
                block_tf_off=np.asarray(d["block_tf_off"][i], np.int32),
                block_last=np.asarray(d["block_last"][i], np.int64))
            ids, _ = decode_postings(enc)
            assert ids.size == d["df"][i]
            assert (np.diff(ids) > 0).all()


def test_salting_spreads_head_terms(index_dir):
    """With a tiny Zipfian vocab every common term is a head term: expect
    more than one distinct salt overall (north_rule skew handling)."""
    salts = set()
    for f in glob.glob(os.path.join(index_dir, "shards", "*", "seg", "*.parquet")):
        salts.update(pq.read_table(f, columns=["salt"])["salt"].to_pylist())
    assert len(salts) > 1


def test_segment_schema_and_old_format_refused(index_dir, pages_dir,
                                               tmp_path):
    """A fresh build's segment files carry exactly ``SEGMENT_SCHEMA``, and
    an index whose manifest names an older segment format is refused by
    the reader, ``extend_index`` and ``compact_index`` alike, each with an
    error that asks for a rebuild."""
    import json

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.functions.codec import (
        FORMAT_VERSION,
    )
    segs = glob.glob(os.path.join(index_dir, "shards", "*", "seg",
                                  "*.parquet"))
    assert segs
    for f in segs:
        assert pq.read_schema(f).remove_metadata().equals(
            build.SEGMENT_SCHEMA), f

    d = str(tmp_path / "old")
    shutil.copytree(index_dir, d)
    mpath = os.path.join(d, "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    manifest["format_version"] = FORMAT_VERSION - 1
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    with pytest.raises(ValueError, match="rebuild required"):
        query.IndexReader(d)
    with pytest.raises(ValueError, match="rebuild required"):
        build.extend_index(pages_dir, d)
    with pytest.raises(ValueError, match="rebuild required"):
        build.compact_index(d, str(tmp_path / "compacted"))
    assert not os.path.exists(tmp_path / "compacted")


def _sorted_partials(pages_dir, positions):
    """Partial postings of the fixture pages split over two shards, made
    from several reversed-order batches so most groups span several
    partial rows whose doc ranges arrive out of order; sorted by (sid,
    term, salt) like the build's merge sort."""
    import numpy as np
    import pyarrow as pa

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.stages import (
        spimi,
    )
    pages = pq.read_table(pages_dir, columns=["doc_id", "url", "html"])
    docs = spimi.ExtractDocs()(pages)
    docs = docs.append_column(
        "sid", pa.array(docs["doc_id"].to_numpy() % 2, pa.int32()))
    pb = spimi.PartialPostingsBuilder(num_salts=4, positions=positions)
    step = max(1, docs.num_rows // 5)
    parts = [pb(docs.slice(a, step))
             for a in reversed(range(0, docs.num_rows, step))]
    t = pa.concat_tables(parts).sort_by(
        [("sid", "ascending"), ("term", "ascending"), ("salt", "ascending")])
    key = list(zip(t["sid"].to_pylist(), t["term"].to_pylist(),
                   t["salt"].to_pylist()))
    starts = [i for i in range(len(key)) if i == 0 or key[i] != key[i - 1]]
    assert len(starts) < t.num_rows  # some groups have several rows
    return t, np.array(starts + [t.num_rows])


@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("chunk_bytes", [64, build.MERGE_CHUNK_BYTES])
def test_merge_postings_block_equals_per_group(pages_dir, positions,
                                               chunk_bytes):
    """One block merge is byte-identical, column for column and row for
    row, to encoding each (sid, term, salt) group on its own with
    ``_encode_group`` — with and without positions, and with a chunk size
    so small that every encode call holds one or two groups (a group split
    across two calls would come out as two rows)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    t, cuts = _sorted_partials(pages_dir, positions)

    def flat(g, col):
        return pc.list_flatten(g[col]).to_numpy(
            zero_copy_only=False).astype(np.int64)

    ref = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        g = t.slice(a, b - a)
        ref.append(build._encode_group(
            g["sid"][0].as_py(), g["term"][0].as_py(), g["salt"][0].as_py(),
            flat(g, "doc_ids"), flat(g, "tfs"), flat(g, "dls"),
            flat(g, "poss"), "dedup"))
    ref = pa.concat_tables(ref)
    out = build.merge_postings_block(t, chunk_bytes=chunk_bytes)
    assert out.num_rows == ref.num_rows == len(cuts) - 1
    assert out.schema.equals(ref.schema)
    for col in ref.column_names:
        assert out[col].combine_chunks().equals(
            ref[col].combine_chunks()), col
    pos_len = pc.binary_length(out["pos_bytes"]).to_numpy()
    assert bool((pos_len > 0).any()) == positions
    # the one-group entry point is the same merge
    g = t.slice(cuts[0], cuts[1] - cuts[0])
    assert build.merge_postings(g).equals(ref.slice(0, 1))
    # the sort can hand the merge an empty block
    assert build.merge_postings_block(t.slice(0, 0)).schema.equals(
        ref.schema)


@pytest.mark.parametrize("positions", [False, True])
def test_merge_postings_block_rejects_duplicate_doc_ids(pages_dir,
                                                        positions):
    """A doc id that appears twice in one group — in two partial rows —
    fails the merge loudly and points at dedup."""
    import pyarrow as pa
    t, cuts = _sorted_partials(pages_dir, positions)
    g = int(cuts[len(cuts) // 2])
    bad = pa.concat_tables([t.slice(0, g + 1), t.slice(g, t.num_rows - g)])
    with pytest.raises(ValueError, match="dedup"):
        build.merge_postings_block(bad)


@pytest.mark.parametrize("fixture", ["index_dir", "pos_index_dir"])
def test_built_segments_hold_one_row_per_term_salt(fixture, request):
    """Every shard's ``seg/`` holds exactly one row per (term, salt): the
    build's sort delivers each group whole to one block merge."""
    d = request.getfixturevalue(fixture)
    shards = sorted(glob.glob(os.path.join(d, "shards", "*", "seg")))
    assert len(shards) == 2
    for s in shards:
        t = pq.read_table(s, columns=["term", "salt"])
        keys = list(zip(t["term"].to_pylist(), t["salt"].to_pylist()))
        assert keys and len(set(keys)) == len(keys), s
