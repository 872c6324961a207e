"""Symbolic wedge-of-spheres homotopy types.

A descriptor is either contractible or a finite multiset of sphere
dimensions >= -1 (the formal sphere S^-1 is the empty complex, so that
suspension shifts it to S^0). ``predict`` evaluates the closed recursion
for the homotopy type of the independence complex of the delta family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

__all__ = [
    "WedgeDescriptor",
    "suspend",
    "wedge",
    "predict",
    "descriptor_betti",
    "descriptor_euler",
]


@dataclass(frozen=True)
class WedgeDescriptor:
    """Canonical form: sorted (dimension, multiplicity) pairs; empty = point."""

    spheres: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for t, (d, k) in enumerate(self.spheres):
            if d < -1:
                raise ValueError(f"sphere dimension {d} below -1")
            if k < 1:
                raise ValueError(f"multiplicity {k} must be positive")
            if t and self.spheres[t - 1][0] >= d:
                raise ValueError("dimensions must be strictly increasing")

    @classmethod
    def point(cls) -> "WedgeDescriptor":
        return cls(())

    @classmethod
    def sphere(cls, dim: int, count: int = 1) -> "WedgeDescriptor":
        return cls(((dim, count),))

    @classmethod
    def from_betti(cls, betti: dict) -> "WedgeDescriptor":
        return cls(tuple(sorted((d, k) for d, k in betti.items() if k)))

    @property
    def is_contractible(self) -> bool:
        return not self.spheres

    def __str__(self):
        if not self.spheres:
            return "point"
        if sum(k for _, k in self.spheres) > 10_000:  # too many to write one by one
            return " ∨ ".join(f"(S^{d})^∨{k}" if k > 1 else f"S^{d}" for d, k in self.spheres)
        parts = []
        for d, k in self.spheres:
            parts.extend([f"S^{d}"] * k)
        return " ∨ ".join(parts)

    def to_json_obj(self) -> dict:
        if not self.spheres:
            return {"contractible": True}
        return {"spheres": {str(d): k for d, k in self.spheres}}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WedgeDescriptor":
        if obj.get("contractible"):
            return cls.point()
        spheres = obj.get("spheres", {})
        return cls.from_betti({int(d): int(k) for d, k in spheres.items()})


def suspend(d: WedgeDescriptor, times: int) -> WedgeDescriptor:
    """Reduced suspension applied ``times`` times: every dimension shifts up."""
    if times < 0:
        raise ValueError("suspension count must be non-negative")
    return WedgeDescriptor(tuple((dim + times, k) for dim, k in d.spheres))


def wedge(ds: Iterable[WedgeDescriptor]) -> WedgeDescriptor:
    """One-point union: multiset union of spheres; a point is the identity."""
    counts: dict[int, int] = {}
    for d in ds:
        for dim, k in d.spheres:
            counts[dim] = counts.get(dim, 0) + k
    return WedgeDescriptor.from_betti(counts)


@cache
def predict(m: int, n: int) -> WedgeDescriptor:
    """Homotopy type of the independence complex of the delta graph (m, n).

    m = 1 alternates between a single sphere (n even) and a point (n odd);
    for m >= 2 the base cases n <= 4 are point, S^0, S^1 v S^(m-1), S^m, and
    larger n unfolds the suspension-wedge recursion on n-3 and n-4, bottom
    up, so a large n needs no deep call stack.
    """
    if not isinstance(m, int) or not isinstance(n, int) or m < 1 or n < 1:
        raise ValueError(f"m and n must be positive integers, got m={m!r}, n={n!r}")
    if m == 1:
        if n % 2:
            return WedgeDescriptor.point()
        return WedgeDescriptor.sphere(n // 2 - 1)
    # window[i] = predict(m, k - 3 + i); start at k = 4, slide up to k = n
    window = (
        WedgeDescriptor.point(),
        WedgeDescriptor.sphere(0),
        wedge([WedgeDescriptor.sphere(1), WedgeDescriptor.sphere(m - 1)]),
        WedgeDescriptor.sphere(m),
    )
    for _ in range(n - 4):
        a, b = window[1], window[0]  # n - 3 and n - 4 for the next n
        window = (*window[1:], wedge([suspend(a, 2), suspend(a, m), suspend(b, m + 1)]))
    return window[min(n, 4) - 1]


def descriptor_betti(d: WedgeDescriptor) -> dict:
    """Reduced Betti numbers of the descriptor: multiplicity per dimension."""
    return {dim: k for dim, k in d.spheres}


def descriptor_euler(d: WedgeDescriptor) -> int:
    """Reduced Euler characteristic: alternating sum over the spheres."""
    return sum((1 if dim % 2 == 0 else -1) * k for dim, k in d.spheres)
