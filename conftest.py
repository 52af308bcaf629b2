import os
import sys

# Sets SPARK_DRIVER_MEM and PYSPARK_SUBMIT_ARGS; must run before any pyspark
# import, and pytest loads this conftest before any test module.
from jobs._session import spark_builder

import pytest
from pyspark.sql import SparkSession


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set by
    ``jobs._session`` at import, pre-JVM-launch); the per-session configs
    come from its ``spark_builder``.
    """
    s = spark_builder("repro").getOrCreate()
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
