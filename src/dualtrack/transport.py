"""One request path for the four outside services: the SPARQL endpoint and
the HTTP LLM, embedding and rerank providers.

Every way one of them fails, from a refused connection to a reply the caller
cannot use, is a :class:`ProviderError`. The module also holds the budget of
threads that send requests, which sizes every HTTP connection pool, and the
one single-flight cache that both the KG cache and the LLM memo build on.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor

log = logging.getLogger(__name__)

# A transport error, a 429 or a 5xx reply is sent again, up to
# ``HTTP_RETRIES`` attempts in all. The wait after attempt ``n`` is the backoff
# ``HTTP_BACKOFF_S * 2 ** (n - 1)``, scaled by a random factor in [0.5, 1.5]
# so that threads refused together do not retry together, or the reply's
# numeric ``Retry-After`` capped at the request timeout, whichever is longer.
HTTP_RETRIES = 3
HTTP_BACKOFF_S = 1.0

# The provider-request budget. A question runs on one thread and verifies
# its claims on up to ``MAX_CLAIM_WORKERS`` threads of its own, which mostly
# wait on provider round trips; 8 claim threads are not yet shown better
# than 3 over 10 alternating pairs, so 3 stays.
MAX_CLAIM_WORKERS = 3

# Every leaf task of the process runs on ``LEAVES``, whose threads start on
# demand and then stay: necessity prompts, tail fetches, and Stage I/II
# scoring while the necessity prompts are in flight. Question and claim
# threads share it. That is safe because a task on it never submits to or
# waits on an executor, so no task waits for one queued behind it.
LEAF_THREADS = 64
LEAVES = ThreadPoolExecutor(LEAF_THREADS, thread_name_prefix="leaf")


class ProviderError(Exception):
    """An outside service failed: transport, status, or a reply that does
    not hold what the caller asked for."""


class SingleFlightCache:
    """A bounded read-through map shared by threads: ``get(key, fetch)``
    returns the value kept for ``key``, calling ``fetch()`` on a miss.

    - Single-flight: a call for a key already in flight waits for the first
      call's result instead of calling ``fetch`` again, so the number of
      fetches does not depend on thread timing. The wait is safe on
      ``LEAVES``, since the first call is running, not queued.
    - An error is never kept: the key is dropped, so the next call fetches
      again, and the calls already waiting on it get the same error.
    - At most ``bound`` keys are kept, the least recently used evicted first.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self._lock = threading.Lock()
        # key -> finished value, or a Future while the first call runs
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, fetch):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = Future()
                if len(self._entries) > self.bound:
                    self._entries.popitem(last=False)
                owner = True
            else:
                self._entries.move_to_end(key)
                owner = False
        if not owner:
            return entry.result() if isinstance(entry, Future) else entry
        try:
            value = fetch()
        except BaseException as exc:
            with self._lock:
                if self._entries.get(key) is entry:
                    del self._entries[key]
            entry.set_exception(exc)
            raise
        with self._lock:
            if self._entries.get(key) is entry:
                self._entries[key] = value
        entry.set_result(value)
        return value

    def holds(self, key) -> bool:
        """Whether ``key`` has a finished value. It may still be evicted
        before the next ``get``."""
        with self._lock:
            entry = self._entries.get(key)
        return entry is not None and not isinstance(entry, Future)


def http_session(parallelism: int = 1):
    """A ``requests`` session that keeps a connection open for every thread
    that can send a request at once, so concurrent requests reuse their
    connections: ``parallelism`` question threads, ``MAX_CLAIM_WORKERS``
    claim threads for each, and the ``LEAF_THREADS`` of ``LEAVES``."""
    import requests  # deferred: stub and offline runs never pay its import
    from requests.adapters import HTTPAdapter

    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=parallelism * (1 + MAX_CLAIM_WORKERS) + LEAF_THREADS)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


def _retry_wait(response, attempt: int, timeout: float) -> float:
    """Seconds to sleep after failed attempt ``attempt`` (counting from 1).
    A missing reply (a transport error), a missing header or an HTTP-date
    header counts as no ``Retry-After``."""
    backoff = HTTP_BACKOFF_S * random.uniform(0.5, 1.5) * 2 ** (attempt - 1)
    try:
        retry_after = max(0.0, float(getattr(response, "headers", {}).get("Retry-After", 0)))
    except ValueError:
        retry_after = 0.0
    return max(backoff, min(retry_after, timeout))


def request_json(session, method: str, url: str, timeout: float, what: str, **kwargs) -> dict:
    """Send ``session.<method>(url, timeout=timeout, **kwargs)`` and return
    the reply's JSON object.

    A transport error, a 429 and a 5xx reply are retried as ``HTTP_RETRIES``
    and ``HTTP_BACKOFF_S`` describe. Any other non-200 status, a reply that
    is not JSON or not a JSON object, and the last of the retried failures
    raise ``ProviderError`` with a message that starts
    ``"<what> endpoint failed"``.
    """
    import requests

    failed = f"{what} endpoint failed"
    send = getattr(session, method)
    for attempt in range(1, HTTP_RETRIES + 1):
        try:
            response = send(url, timeout=timeout, **kwargs)
        except requests.RequestException as exc:
            if attempt == HTTP_RETRIES:
                raise ProviderError(f"{failed}: {exc}") from exc
            response, fault = None, exc
        else:
            transient = response.status_code == 429 or response.status_code >= 500
            if not transient or attempt == HTTP_RETRIES:
                break
            fault = f"status {response.status_code}"
        log.warning("%s (attempt %d): %s", failed, attempt, fault)
        time.sleep(_retry_wait(response, attempt, timeout))
    if response.status_code != 200:
        raise ProviderError(f"{failed}: status {response.status_code}")
    try:
        body = response.json()
    except ValueError as exc:
        raise ProviderError(f"{failed}: reply is not JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ProviderError(f"{failed}: reply is a JSON {type(body).__name__}, not an object")
    return body
