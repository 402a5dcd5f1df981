"""Permutations of a finite set {0..n-1}, composed left to right.

Points are 0-based internally.  Cycle notation accepted and produced by this
module is 1-based, which is the convention used in most printed tables of
generators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm

from .arith import read_int
from .errors import CycleNotationError
from .partitions import _IDENTITY, SetPartition, _table

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_DEGREE_LIMIT = "permutations need degree below 256, got %d"


def _invert_images(p: bytes) -> bytes:
    # maketrans maps each p[i] to i and every other byte to itself.
    return bytes.maketrans(p, _IDENTITY[: len(p)])[: len(p)]


def _orbit_rgs(images) -> bytes:
    """Restricted-growth string of the cycle partition of a permutation's images.

    Labels are assigned in order of each cycle's minimum point, so the result
    is the canonical code of the orbit partition.
    """
    n = len(images)
    rgs = [-1] * n
    nxt = 0
    for i in range(n):
        if rgs[i] < 0:
            j = i
            while rgs[j] < 0:
                rgs[j] = nxt
                j = images[j]
            nxt += 1
    return bytes(rgs)


def _cycles(images) -> list[tuple[int, ...]]:
    """All cycles of the permutation with these images (fixed points
    included), min point first, sorted by min."""
    out = []
    seen = [False] * len(images)
    for i in range(len(images)):
        if not seen[i]:
            cyc = [i]
            seen[i] = True
            j = images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = images[j]
            out.append(tuple(cyc))
    return out


def _image_order(images) -> int:
    """Order of the permutation with these images: lcm of its cycle lengths."""
    return lcm(*map(len, _cycles(images)))


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1} stored as its images, one byte per point, so
    the degree is below 256.  It can be built from any sequence of ints.

    Composition acts on the right: ``(p * q)(i) == q(p(i))``, i.e. ``p * q``
    means "apply p, then q", and is ``p.images.translate(_table(q.images))``.
    """

    images: bytes

    def __post_init__(self):
        images = self.images
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if n > 255:
            raise ValueError(_DEGREE_LIMIT % n)
        try:
            code = bytes(images)
        except TypeError:
            raise ValueError("images must be ints") from None
        except ValueError:
            code = None
        # n images cover 0..n-1 exactly when none of those points is missing.
        if code is None or _IDENTITY[:n].translate(None, code):
            raise ValueError("images are not a bijection of 0..%d" % (n - 1))
        object.__setattr__(self, "images", code)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> Permutation:
        """Parse 1-based disjoint cycle notation, e.g. ``"(1 7)(4 10)"``.

        Points are ASCII integers (`read_int`), separated by spaces or
        commas.  Raises CycleNotationError for unbalanced parentheses, stray
        text, a point that is not an ASCII integer, has more digits than 255
        or lies outside 1..degree, or a point appearing twice, and
        ValueError for a degree of 256 or more.
        """
        if degree < 1:
            raise CycleNotationError("degree must be at least 1")
        # Refused before the text is parsed or the images allocated.
        if degree > 255:
            raise ValueError(_DEGREE_LIMIT % degree)
        outside = _CYCLE_RE.sub("", text)
        if outside.strip(" ,\t\n"):
            raise CycleNotationError("unexpected text outside cycles: %r" % text)
        images = list(range(degree))
        seen: set[int] = set()
        for match in _CYCLE_RE.finditer(text):
            toks = match.group(1).replace(",", " ").split()
            points = [read_int(t, 255, CycleNotationError, "point") for t in toks]
            if None in points:
                raise CycleNotationError("non-integer point in %r" % match.group(0))
            for pt in points:
                if not 1 <= pt <= degree:
                    raise CycleNotationError("point %d outside 1..%d" % (pt, degree))
                if pt in seen:
                    raise CycleNotationError("point %d repeated" % pt)
                seen.add(pt)
            for a, b in zip(points, points[1:]):
                images[a - 1] = b - 1
            if points:
                images[points[-1] - 1] = points[0] - 1
        return cls(images)

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        return Permutation(self.images.translate(_table(other.images)))

    def inverse(self) -> Permutation:
        return Permutation(_invert_images(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return _IDENTITY.startswith(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """All cycles (fixed points included), min point first, sorted by min."""
        return _cycles(self.images)

    def order(self) -> int:
        return _image_order(self.images)

    def orbit_partition(self) -> SetPartition:
        """The partition of {0..n-1} into this permutation's cycles."""
        return SetPartition._trusted(_orbit_rgs(self.images))

    def cycle_string(self) -> str:
        """1-based cycle notation; fixed points omitted; identity is "()"."""
        parts = ["(%s)" % " ".join(str(p + 1) for p in c) for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "()"

    def __str__(self) -> str:
        return self.cycle_string()
