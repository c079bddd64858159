"""Retry backoff: a bounded exponential schedule.

The serve load generator retransmits an unacknowledged frame after
:meth:`RetryPolicy.bounded_backoff_for`: ``backoff_seconds * 2**(a - 1)``
for retry ``a``, capped after ``max_retries`` doublings so a long outage
never inflates the wait without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import require_finite

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded exponential backoff schedule.

    Attributes
    ----------
    max_retries:
        Doublings before the delay stops growing.
    backoff_seconds:
        Base backoff; retry ``a`` (1-based) waits ``backoff * 2**(a-1)``.
    """

    max_retries: int = 1
    backoff_seconds: float = 0.1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds cannot be negative")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): ``base * 2**(a-1)``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return self.backoff_seconds * (2 ** (attempt - 1))

    def bounded_backoff_for(self, attempt: int) -> float:
        """:meth:`backoff_for` with the exponent capped at ``max_retries``.

        Unbounded retransmission loops (exactly-once delivery must retry
        until acknowledged) use this form: the delay grows exponentially
        for the first ``max_retries`` attempts and then stays flat, so a
        long outage never inflates the wait past the cap.
        """
        return self.backoff_for(min(max(attempt, 1), self.max_retries + 1))

