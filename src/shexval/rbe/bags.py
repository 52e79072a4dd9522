"""Finite multisets of symbols, stored as Counters with positive counts."""

from __future__ import annotations

from collections import Counter

__all__ = ["Bag"]

Bag = Counter
