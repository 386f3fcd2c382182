"""Borel sets as finite disjoint unions of half-open intervals (a, b].

A set is its intervals and nothing else: an interval that is the cylinder
of an iterated function system is recognised from its ends by
``ifs.IteratedFunctionSystem.cylinder_word``, so two sets that compare equal
get the same masses and integrals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BorelSet:
    intervals: tuple = ()

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not a < b:
                raise ValueError(f"interval ({a}, {b}] is empty or reversed")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def interval(cls, a, b) -> "BorelSet":
        return cls(((a, b),))

    @classmethod
    def from_intervals(cls, pairs) -> "BorelSet":
        pairs = sorted((float(a), float(b)) for a, b in pairs)
        return cls(tuple(pairs))

    @classmethod
    def empty(cls) -> "BorelSet":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def hull(self):
        if self.is_empty:
            return None
        return self.intervals[0][0], self.intervals[-1][1]

    def total_length(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def contains(self, x) -> bool:
        return any(a < x <= b for a, b in self.intervals)

    def intersect(self, other: "BorelSet") -> "BorelSet":
        out = []
        for a0, b0 in self.intervals:
            for a1, b1 in other.intervals:
                lo, hi = max(a0, a1), min(b0, b1)
                if lo < hi:
                    out.append((lo, hi))
        return BorelSet(tuple(sorted(out)))

    def union_disjoint(self, other: "BorelSet") -> "BorelSet":
        # half-open intervals may touch at endpoints but not overlap
        merged = sorted(self.intervals + other.intervals)
        for (_, b0), (a1, _) in zip(merged, merged[1:]):
            if a1 < b0:
                raise ValueError("union_disjoint called on overlapping sets")
        return BorelSet(tuple(merged))

    def clip(self, lo, hi) -> "BorelSet":
        """Intersection with the single interval (lo, hi]."""
        return self.intersect(BorelSet.interval(lo, hi))
