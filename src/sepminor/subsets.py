"""Per-subset tables for the exhaustive scans over the vertex subsets of a
small graph.

A vertex subset S is a bitmask, held in numpy arrays as intp (numpy's index
type, so masks index the tables below without a conversion).  No table has
2^n entries: masks are split at bit c = min(n, 12) into a low part
S & (2^c - 1) and a high part S >> c, and each quantity is put together from
one table over each part:

- N(S), the union of the neighbourhoods of S's vertices, is
  N_lo[S & (2^c - 1)] | N_hi[S >> c];
- |S| is np.bitwise_count(S);
- e(S), the number of edges inside S, is e_lo[low] + e_hi[high] plus the
  edges between the two parts.

Scans run over blocks of the 2^c masks that share a high part, in ascending
mask order (`high_parts`, `block`), or one popcount layer at a time
(`layer`).  The part tables take O(2^c + 2^(n-c)) memory, a block O(2^c)
and a layer O(C(n, k)).

The kernel refuses any graph with more than MAX_VERTICES = 24 vertices,
whatever budget a caller passes: a scan visits 2^n masks, and the treewidth
DP keeps two tables of 2^n bytes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded

__all__ = ["MAX_VERTICES", "SubsetTables"]

MAX_VERTICES = 24
_LOW_BITS = 12


def _union_table(masks: Sequence[int]) -> np.ndarray:
    """table[x] = OR of masks[i] over the bits i of x, for x < 2^len(masks)."""
    table = np.zeros(1 << len(masks), dtype=np.intp)
    for i, m in enumerate(masks):
        table[1 << i : 2 << i] = table[: 1 << i] | m
    return table


def _edge_table(masks: Sequence[int], shift: int) -> np.ndarray:
    """table[x] = number of edges inside the vertex set x << shift, where
    masks[i] is the adjacency mask of vertex i + shift."""
    table = np.zeros(1 << len(masks), dtype=np.intp)
    for i, m in enumerate(masks):
        below = np.arange(1 << i, dtype=np.intp)
        table[1 << i : 2 << i] = table[: 1 << i] + np.bitwise_count(below & (m >> shift))
    return table


@lru_cache(maxsize=None)
def _by_popcount(bits: int) -> list[np.ndarray]:
    """The masks below 2^bits, grouped by popcount, each group ascending.
    Cached for bits <= 12 and shared between callers, so read only."""
    masks = np.arange(1 << bits, dtype=np.intp)
    counts = np.bitwise_count(masks)
    groups = [masks[counts == k] for k in range(bits + 1)]
    for group in groups:
        group.flags.writeable = False
    return groups


class SubsetTables:
    """Per-subset tables of the graph with adjacency masks `masks`."""

    def __init__(self, masks: Sequence[int]):
        n = len(masks)
        if n > MAX_VERTICES:
            raise BudgetExceeded(f"exhaustive subset scans need n <= {MAX_VERTICES}, got {n}")
        c = min(n, _LOW_BITS)
        self.c = c
        self.high_parts = range(1 << (n - c))
        self._low = np.arange(1 << c, dtype=np.intp)
        self._low_mask = (1 << c) - 1
        self._nbr_low = _union_table(masks[:c])
        self._nbr_high = _union_table(masks[c:])
        self._edges_low = _edge_table(masks[:c], 0)
        self._edges_high = _edge_table(masks[c:], c)
        self._low_nbrs_of_high = [m & self._low_mask for m in masks[c:]]
        self._low_layers = _by_popcount(c)
        self._high_layers = _by_popcount(n - c)

    def block(self, high: int) -> np.ndarray:
        """The 2^c masks whose high part is `high`, ascending."""
        return self._low | (high << self.c)

    def block_boundaries(self, high: int, s: np.ndarray) -> np.ndarray:
        """|N(S) - S| for each S in s = block(high)."""
        return np.bitwise_count((self._nbr_low | self._nbr_high[high]) & ~s)

    def block_edges(self, high: int) -> np.ndarray:
        """e(S) for each S in block(high)."""
        edges = self._edges_low + self._edges_high[high]
        h = high
        while h:
            v = (h & -h).bit_length() - 1
            h &= h - 1
            edges = edges + np.bitwise_count(self._low & self._low_nbrs_of_high[v])
        return edges

    def layer(self, k: int) -> np.ndarray:
        """Every mask with popcount k, in no particular order."""
        parts = [
            ((high[:, None] << self.c) | self._low_layers[k - j]).ravel()
            for j, high in enumerate(self._high_layers)
            if 0 <= k - j <= self.c
        ]
        return np.concatenate(parts)

    def neighbourhood(self, s: np.ndarray) -> np.ndarray:
        """N(S) for each mask S in s."""
        return self._nbr_low[s & self._low_mask] | self._nbr_high[s >> self.c]

    def component_boundaries(self, s: np.ndarray, start: np.ndarray) -> np.ndarray:
        """|N(C) - S| for each S in s, where C is the component of G[S] that
        holds the vertex of the one-bit mask at the same place in start.

        C grows by closure, C <- (N(C) | C) & S, one round per BFS layer of
        the deepest component.
        """
        comp = start
        while True:
            nbr = self.neighbourhood(comp)
            grown = (nbr | comp) & s
            if (grown == comp).all():
                return np.bitwise_count(nbr & ~s)
            comp = grown
