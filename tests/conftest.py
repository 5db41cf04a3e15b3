"""Session-scoped Ray fixture (one ray.init per pytest session) + shared
index fixtures so the expensive build runs once."""

from __future__ import annotations

import shutil
import warnings

import pytest

warnings.filterwarnings("ignore")

PKG = "scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray"
SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def ray_session():
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_dir(ray_session):
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.sources import pages
    return pages.ensure_pages_parquet(SF_DIR, num_files=8)


@pytest.fixture(scope="session")
def index_dir(ray_session, pages_dir, tmp_path_factory):
    """Index built once per session (2 shards, small salt count)."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import build
    d = str(tmp_path_factory.mktemp("index") / "idx")
    build.build_index(pages_dir, d, build.BuildParams(num_shards=2, num_salts=4))
    return d


@pytest.fixture(scope="session")
def pos_index_dir(ray_session, pages_dir, tmp_path_factory):
    """The same index with token positions (phrase queries)."""
    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import build
    d = str(tmp_path_factory.mktemp("posindex") / "idx")
    build.build_index(pages_dir, d, build.BuildParams(num_shards=2, num_salts=4,
                                                      positions=True))
    return d


@pytest.fixture(scope="session")
def oracle_index(pages_dir):
    import pyarrow.parquet as pq

    from scalable_academic_paper_search_via_distributed_processing_and_parallel_computing_ray.pipelines import oracle
    tbl = pq.read_table(pages_dir, columns=["doc_id", "text"])
    docs = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    return oracle.build_oracle_index(docs)
