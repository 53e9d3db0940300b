import pytest


@pytest.fixture(scope="session")
def ray_session():
    """ONE Ray session for the whole pytest run (driver requirement)."""
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


SF_TINY = "/root/testdata/sf0.001"
SF_SMALL = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def sf_tiny():
    return SF_TINY


@pytest.fixture(scope="session")
def sf_small():
    return SF_SMALL


@pytest.fixture
def gate_spy(monkeypatch):
    """Every driver-size gate decides through ``sizing.collect_if_fits``;
    this spy records each decision in call order: "driver" when the
    side came back as a table, "shuffle" when it did not fit."""
    from bb_ocr_ray.stages import sizing

    real = sizing.collect_if_fits
    seen = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append("shuffle" if out is None else "driver")
        return out

    monkeypatch.setattr(sizing, "collect_if_fits", spy)
    return seen


@pytest.fixture
def force_shuffle(monkeypatch):
    """Call to send every later gate down its shuffle path (limit 0, or
    pass -1 to push even an empty side over)."""
    from bb_ocr_ray.stages import sizing

    def force(limit: int = 0):
        monkeypatch.setattr(sizing, "_BROADCAST_LIMIT_BYTES", limit)

    return force


@pytest.fixture
def executions(monkeypatch):
    """Spy on Ray Data's streaming executor: one entry (the physical
    plan's last operator) per Dataset execution, in call order."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    real = StreamingExecutor.execute
    seen = []

    def spy(self, dag, *args, **kwargs):
        seen.append(dag.name)
        return real(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    return seen


@pytest.fixture
def ray_data_log(caplog):
    """``caplog`` records of the ``ray.data`` logger tree, which does
    not propagate to the root logger that ``caplog`` listens on."""
    import logging

    logger = logging.getLogger("ray.data")
    logger.addHandler(caplog.handler)
    yield caplog
    logger.removeHandler(caplog.handler)
