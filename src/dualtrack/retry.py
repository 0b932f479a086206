"""How long to wait before re-sending an HTTP request that an endpoint
refused; the SPARQL client and the HTTP providers' POST path share the rule."""

from __future__ import annotations


def retry_wait(response, attempt: int, backoff: float, timeout: float) -> float:
    """Seconds to sleep after failed attempt ``attempt`` (counting from 1):
    the exponential backoff ``backoff * 2 ** (attempt - 1)`` or the reply's
    numeric ``Retry-After`` delay capped at ``timeout``, whichever is longer.
    A missing reply (a transport failure), a missing header or an HTTP-date
    header counts as no delay."""
    try:
        retry_after = max(0.0, float(getattr(response, "headers", {}).get("Retry-After", 0)))
    except ValueError:
        retry_after = 0.0
    return max(backoff * 2 ** (attempt - 1), min(retry_after, timeout))
