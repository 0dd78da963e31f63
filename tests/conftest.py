import pytest


@pytest.fixture(autouse=True)
def _sequential_dispatch(monkeypatch):
    # suites run their tasks in this process unless a test sets the pool
    monkeypatch.delenv("MKDVLAB_WORKERS", raising=False)
