"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf dir, run its oracle_sql in DuckDB over the same parquet
views, compare row count + schema + order-insensitive values.

Usage: python tools/check_correctness.py [sf_dir] [name ...]

Ray gets ``RAY_GRAFT_CPUS`` CPUs (default 8), the variable bench.py reads,
so a scheduling deadlock that shows only at few CPUs shows here too.
"""

from __future__ import annotations

import os
import sys
import time
import warnings

warnings.filterwarnings("ignore")

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()  # ray Dataset


def canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import duckdb
    import ray
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: engine error: {type(e).__name__}: {e}")
            n_fail += 1
            continue
        secs = time.time() - t0
        if name not in oracles:
            print(f"ROWS {name}: {len(got)} rows (no oracle) [{secs:.1f}s]")
            n_pass += 1
            continue
        try:
            want = canon(con.execute(oracles[name]).df())
        except Exception as e:
            print(f"FAIL {name}: oracle SQL error: {e}")
            n_fail += 1
            continue
        if list(got.columns) != list(want.columns):
            print(f"FAIL {name}: columns {list(got.columns)} != {list(want.columns)}")
            n_fail += 1
            continue
        if len(got) != len(want):
            print(f"FAIL {name}: rows {len(got)} != {len(want)}")
            n_fail += 1
            continue
        # value compare; dtype KIND must also match, because the driver's
        # value hash is dtype-sensitive (e.g. DuckDB sum(BIGINT)->HUGEINT
        # lands as float64 in pandas and hash-mismatches an int64 engine
        # column even when the values are numerically equal — round-1
        # failure mode of join_revenue/semi_join/sessionize).
        eq = True
        for c in got.columns:
            a, b = got[c].to_numpy(), want[c].to_numpy()
            ka, kb = a.dtype.kind, b.dtype.kind
            if (ka in "iuf" or kb in "iuf") and ka != kb:
                print(f"FAIL {name}: column {c} dtype kind {a.dtype} vs {b.dtype} "
                      f"(driver hash is dtype-sensitive; CAST the oracle or the engine)")
                eq = False
                break
            if ka in "iu" and kb in "iu":
                ok = (a == b).all()
            elif ka == "f" or kb == "f":
                ok = (abs(a.astype(float) - b.astype(float)) < 1e-9).all()
            else:
                ok = (a == b).all()
            if not ok:
                bad = (a != b) if a.dtype == b.dtype else None
                print(f"FAIL {name}: column {c} differs; sample got/want:")
                import numpy as np
                idx = np.nonzero(a != b)[0][:5] if bad is not None else range(3)
                for i in idx:
                    print(f"    row {i}: {a[i]!r} vs {b[i]!r}")
                eq = False
                break
        if eq:
            print(f"OK   {name}: {len(got)} rows [{secs:.1f}s]")
            n_pass += 1
        else:
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
