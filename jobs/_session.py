"""The one Spark bootstrap, shared by the spark-submit entrypoints in jobs/
and by the test suite (``conftest.py`` imports this module first).

When launched with plain ``python jobs/<job>.py`` or under pytest, the
driver JVM has not started yet, so the driver memory must go into
PYSPARK_SUBMIT_ARGS before any pyspark import — importing this module does
that. Under ``spark-submit`` these env vars are ignored and the usual
``--driver-memory`` flag applies.
"""
import os


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. spark.driver.memory is read at JVM launch, not
    from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS before pyspark is
    imported anywhere.

    The cgroup read is best-effort: a sandbox such as gVisor may emulate
    sysfs without passing the host limit through. An unbounded value
    (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit) is
    treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)


def spark_builder(app: str):
    """A SparkSession builder with the per-session configs that *are*
    honoured after JVM launch (shuffle partitions, Arrow, broadcast
    threshold). Automatic broadcast joins are disabled so the joins and
    group-bys exercise the shuffle path at small scale. The semi-join
    reduction asks for its broadcast with a hint (``SparkEngine.semijoin``),
    which this threshold does not turn off."""
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )


def get_spark():
    s = spark_builder("repro-job").getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s
