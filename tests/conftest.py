"""Fixtures shared by the test modules."""

import threading

import pytest


def _on_fresh_thread(fn):
    """fn() run on a new thread, which has no scratch area yet."""
    box = []
    worker = threading.Thread(target=lambda: box.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(box) == 1
    return box[0]


@pytest.fixture
def on_fresh_thread():
    return _on_fresh_thread
