"""Sort-based grouped aggregation (stages/groupagg.py) vs pandas,
stressing groups that span sorted-block boundaries."""

import numpy as np
import pandas as pd
import pyarrow as pa

from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.stages.groupagg import (
    sorted_groupby_agg,
)


def test_matches_pandas_multi_agg(ray_session):
    import ray.data as rd
    rng = np.random.RandomState(3)
    n = 20000
    df = pd.DataFrame({
        "a": rng.randint(0, 50, n).astype(np.int64),   # hot keys span blocks
        "b": rng.randint(0, 20, n).astype(np.int64),
        "v": rng.randint(-5, 100, n).astype(np.int64),
    })
    ds = rd.from_pandas(df).repartition(16)
    got = sorted_groupby_agg(ds, ["a", "b"],
                             [("v", "sum", "s"), ("v", "min", "mn"),
                              ("v", "max", "mx"), ("v", "count", "c")]) \
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    want = df.groupby(["a", "b"]).agg(
        s=("v", "sum"), mn=("v", "min"), mx=("v", "max"),
        c=("v", "count")).reset_index()
    pd.testing.assert_frame_equal(
        got.astype(np.int64), want.astype(np.int64))


def test_string_keys_and_single_giant_group(ray_session):
    import ray.data as rd
    df = pd.DataFrame({"k": ["x"] * 5000 + ["y"],
                       "v": np.arange(5001, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(12)  # "x" spans ~all blocks
    got = sorted_groupby_agg(ds, ["k"], [("v", "sum", "s")]).to_pandas()
    got = dict(zip(got["k"], got["s"]))
    assert got == {"x": int(np.arange(5000).sum()), "y": 5000}


def test_empty_input(ray_session):
    import ray.data as rd
    t = pa.table({"k": pa.array([], pa.int64()),
                  "v": pa.array([], pa.int64())})
    out = sorted_groupby_agg(rd.from_arrow(t), ["k"], [("v", "sum", "s")])
    assert out.count() == 0
    assert set(out.schema().names) == {"k", "s"}
