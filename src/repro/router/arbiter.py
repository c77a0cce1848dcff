"""Arbiters.

The switch allocator uses round-robin arbitration (Table 2 of the paper);
the same primitive breaks ties in the priority-based VC allocator.
"""

from __future__ import annotations


class RoundRobinArbiter:
    """A round-robin arbiter over ``size`` requesters.

    The grant pointer advances past the last winner, so every persistent
    requester is served within ``size`` grants (strong fairness).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("arbiter needs at least one requester")
        self.size = size
        self._pointer = 0

    def grant_mask(self, mask: int) -> int | None:
        """Grant one requester of ``mask`` (bit ``i`` set: requester
        ``i`` in ``[0, size)`` requests), or ``None`` if none requests.

        The winner is the first requester at or after the pointer, else
        the first one before it: ascending set bits from the pointer are
        the cyclic scan order.
        """
        if not mask:
            return None
        pointer = self._pointer
        ahead = mask >> pointer
        if ahead:
            winner = pointer + (ahead & -ahead).bit_length() - 1
        else:
            winner = (mask & -mask).bit_length() - 1
        self._pointer = winner + 1 if winner + 1 < self.size else 0
        return winner
