"""The single-flight cache's ``start``: a fill begun on ``transport.LEAVES``
that a later ``get`` or ``start`` of the same key joins."""

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from dualtrack import transport
from dualtrack.transport import ProviderError, SingleFlightCache


def test_start_sends_no_second_fetch_for_a_key_kept_or_in_flight():
    cache = SingleFlightCache(8)
    release = threading.Event()
    fetches = []

    def fetch():
        fetches.append(threading.current_thread().name)
        assert release.wait(timeout=2)
        return "v"

    fill = cache.start("k", fetch)
    assert isinstance(fill, Future)
    assert cache.start("k", fetch) is fill  # in flight: the same fill
    release.set()
    assert fill.result(timeout=2) == "v"
    assert cache.start("k", fetch) == "v"  # kept: the value itself
    assert cache.get("k", fetch) == "v"
    assert len(fetches) == 1 and fetches[0].startswith("leaf")


def test_start_keeps_no_failed_fill_and_hands_its_error_to_a_waiting_get():
    cache = SingleFlightCache(8)
    release = threading.Event()
    fetches = []

    def failing():
        fetches.append(1)
        assert release.wait(timeout=2)
        raise ProviderError("endpoint down")

    fill = cache.start("k", failing)
    with ThreadPoolExecutor(1) as pool:
        waiter = pool.submit(cache.get, "k", lambda: "fetched again")
        time.sleep(0.2)  # lets the get reach the fill in flight
        release.set()
        with pytest.raises(ProviderError, match="endpoint down"):
            waiter.result(timeout=2)
    with pytest.raises(ProviderError, match="endpoint down"):
        fill.result(timeout=2)
    assert fetches == [1]
    assert cache.get("k", lambda: "fetched again") == "fetched again"  # not kept, so asked again
    assert cache.start("k", failing) == "fetched again"


def test_start_from_a_leaf_task_raises_and_claims_nothing():
    cache = SingleFlightCache(8)
    with pytest.raises(RuntimeError, match="leaf task"):
        transport.LEAVES.submit(cache.start, "k", lambda: "from a leaf").result(timeout=2)
    assert cache.get("k", lambda: "fresh") == "fresh"
    assert cache._load == 1
