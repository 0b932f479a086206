"""One request path for the four outside services: the SPARQL endpoint and
the HTTP LLM, embedding and rerank providers.

Every way one of them fails, from a refused connection to a reply the caller
cannot use, is a :class:`ProviderError`. The module also holds the budget of
threads that send requests, which sizes every HTTP connection pool, and the
one single-flight cache that the KG cache, the LLM memo and the embedding
cache build on.
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

# The provider-request budget: two long-lived, process-wide executors whose
# threads start on demand and then stay. Both mostly wait on provider round
# trips.
#
# Every claim of the process runs on ``CLAIMS``: a parallel question submits
# all of its claims at once, so up to 8 claims of each of 4 questions run at
# the same time. A claim waits on leaf tasks and never submits to
# ``CLAIMS``, so no claim waits for one queued behind it.
CLAIM_THREADS = 32
CLAIMS = ThreadPoolExecutor(CLAIM_THREADS, thread_name_prefix="claim")

# Every leaf task of the process runs on ``LEAVES``, and each is one
# provider request: a necessity prompt, a chain step's early sufficiency
# prompt, a tail fetch, an embedding fill or an early Stage II rerank.
# Question and claim threads share it, and those threads wait on the tasks
# they started. That is safe because a leaf task never submits to an
# executor and never waits on another task, so no task waits for one
# queued behind it. ``LEAVES`` checks the first rule: a
# submit from one of its own threads raises ``RuntimeError`` instead of
# queueing a task that could wait for a free leaf thread forever.
LEAF_THREADS = 64


class _LeafExecutor(ThreadPoolExecutor):
    """A thread pool that refuses a submit from one of its own threads."""

    def __init__(self, max_workers: int, thread_name_prefix: str):
        self._own = threading.local()
        super().__init__(max_workers, thread_name_prefix, initializer=self._adopt)

    def _adopt(self) -> None:
        self._own.thread = True

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if getattr(self._own, "thread", False):
            raise RuntimeError("a leaf task submitted to LEAVES; leaf tasks never submit to an executor")
        return super().submit(fn, *args, **kwargs)


LEAVES = _LeafExecutor(LEAF_THREADS, thread_name_prefix="leaf")


class ProviderError(Exception):
    """An outside service failed: transport, status, or a reply that does
    not hold what the caller asked for."""


class SingleFlightCache:
    """A bounded read-through map shared by threads: ``get(key, fetch)``
    returns the value kept for ``key``, calling ``fetch()`` on a miss, and
    ``start(key, fetch)`` begins that call on ``LEAVES`` instead.

    - Single-flight: a call for a key already in flight waits for the first
      call's result instead of calling ``fetch`` again, so the number of
      fetches does not depend on thread timing. Only question and claim
      threads wait on a fill: a leaf task never waits on another task.
    - An error is never kept: the key is dropped, so the next call fetches
      again, and the calls already waiting on it get the same error.
    - The kept values weigh at most ``bound`` in all, the least recently
      used evicted first. ``weigh(value)`` is a finished value's weight, 1
      by default, so that ``bound`` counts keys; a key in flight weighs 1.
    """

    def __init__(self, bound: int, weigh=None):
        self.bound = bound
        self._weigh = weigh or (lambda value: 1)
        self._lock = threading.Lock()
        # key -> finished value, or a Future while the first call runs
        self._entries: OrderedDict = OrderedDict()
        self._load = 0  # the entries' weights summed

    def _add(self, weight: int) -> None:
        """Add ``weight`` to the load, then evict the least recently used
        keys until it fits ``bound``. A value is weighed again when it is
        evicted, so it must not change while kept. Called with the lock
        held."""
        self._load += weight
        while self._load > self.bound:
            _, evicted = self._entries.popitem(last=False)
            self._load -= 1 if isinstance(evicted, Future) else self._weigh(evicted)

    def _claim(self, key):
        """(entry, True) for a key claimed by this call, whose entry is a
        new future, else (the kept value or the future in flight, False)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry, False
            entry = self._entries[key] = Future()
            self._add(1)
        return entry, True

    def _drop(self, key, entry: Future, exc: BaseException) -> None:
        """Forget a claimed key whose fill failed; every call waiting on
        ``entry`` gets ``exc``."""
        with self._lock:
            if self._entries.get(key) is entry:
                del self._entries[key]
                self._load -= 1
        entry.set_exception(exc)

    def _fill(self, key, entry: Future, fetch):
        """Fill a claimed key with ``fetch()``'s value and return it."""
        try:
            value = fetch()
        except BaseException as exc:
            self._drop(key, entry, exc)
            raise
        weight = self._weigh(value)
        with self._lock:
            if self._entries.get(key) is entry:
                self._entries[key] = value
                self._add(weight - 1)
        entry.set_result(value)
        return value

    def get(self, key, fetch):
        entry, claimed = self._claim(key)
        if claimed:
            return self._fill(key, entry, fetch)
        return entry_value(entry)

    def start(self, key, fetch):
        """Claim ``key`` and fill it on ``LEAVES``, unless it is kept or in
        flight. Returns the key's entry: the future of its fill while one
        runs, else its kept value. A caller that reads a fill it started
        reads that future: once the fill has failed, its key is gone, and a
        ``get`` would fetch again. Raises ``RuntimeError``, claiming
        nothing, when called from a leaf task."""
        entry, claimed = self._claim(key)
        if claimed:
            try:
                LEAVES.submit(self._fill, key, entry, fetch)
            except RuntimeError as exc:
                self._drop(key, entry, exc)
                raise
        return entry


def entry_value(entry):
    """The value of an entry that :meth:`SingleFlightCache.start` returned:
    the kept value itself, or its fill's result, waited for. A failed fill
    raises its error."""
    return entry.result() if isinstance(entry, Future) else entry


def http_session(parallelism: int = 1):
    """A ``requests`` session that keeps a connection open for every thread
    that can send a request at once, so concurrent requests reuse their
    connections: ``parallelism`` question threads, the ``CLAIM_THREADS`` of
    ``CLAIMS`` and the ``LEAF_THREADS`` of ``LEAVES``."""
    import requests  # deferred: stub and offline runs never pay its import
    from requests.adapters import HTTPAdapter

    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=parallelism + CLAIM_THREADS + LEAF_THREADS)
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
