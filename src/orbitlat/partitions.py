"""Set partitions of {0..n-1} and their refinement lattice.

A partition is stored as a restricted-growth string (RGS): position i holds
the block label of point i, labels appearing in first-use order starting at 0.
The RGS is a canonical form, so equal partitions have equal codes and the
code doubles as a hash key.  It is kept as bytes, so the degree must be
below 256; that is checked once, when a partition is built.

Join and meet work on the codes: join by a union-find over the labels of
one code, meet by numbering label pairs.  `partition_codes` lists every code
of a degree, and `_coarsenings` and `_refinements` list the codes above and
below one code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator

from .arith import read_int
from .errors import PartitionFormatError, _quoted

_IDENTITY = bytes(range(256))
_TAILS = [bytes([label]) for label in range(256)]


def _relabel(code: bytes, table: bytearray) -> bytes:
    """Canonical form of a bytes labelling: labels renumbered by first use,
    through `table`, a 256-byte scratch buffer that a loop allocates once."""
    for new, old in enumerate(dict.fromkeys(code)):
        table[old] = new
    return code.translate(table)


def _table(p: bytes) -> bytes:
    """The permutation images `p` padded with the identity to a 256-byte
    table, so that ``q.translate(_table(p))`` is q followed by p."""
    return p + _IDENTITY[len(p) :]


def _check_degree(degree: int) -> None:
    if degree > 255:
        raise ValueError("codes need degree below 256, got %d" % degree)


def _check_rgs(rgs) -> None:
    """Raise ValueError for a degree of 256 or more, else name the first
    position where `rgs` stops being a restricted-growth string of ints, or
    refuse an empty one."""
    _check_degree(len(rgs))
    mx = -1
    for i, lab in enumerate(rgs):
        if not isinstance(lab, int) or lab < 0 or lab > mx + 1:
            raise ValueError("not a restricted-growth string at position %d" % i)
        if lab == mx + 1:
            mx = lab
    if not rgs:
        raise ValueError("degree must be at least 1")


def join_codes(a: bytes, b: bytes) -> bytes:
    """Join of the codes `a` (canonical) and `b` (any labelling).  Each label
    of `b` links the first label of `a` it met to every later one.  A root
    goes under the smaller root, so parents precede children and, as `a`
    uses its labels in first-use order, classes first appear in root order."""
    parent = list(range(max(a) + 1))
    first: dict[int, int] = {}
    for x, y in zip(a, b):
        z = first.setdefault(y, x)
        if z != x:
            while parent[x] != x:
                x = parent[x]
            while parent[z] != z:
                z = parent[z]
            if x > z:
                x, z = z, x
            parent[z] = x
    table = bytearray(256)
    rank = 0
    for label, up in enumerate(parent):
        if up == label:
            table[label] = rank
            rank += 1
        else:
            table[label] = table[up]
    return a.translate(table)


def meet_codes(a: bytes, b: bytes) -> bytes:
    """Meet of two codes: pairs of labels numbered in order of first use."""
    ids: dict[tuple[int, int], int] = {}
    return bytes([ids.setdefault(k, len(ids)) for k in zip(a, b)])


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0..degree-1} in canonical restricted-growth form."""

    rgs: bytes

    def __post_init__(self):
        # Fast path: bytes, or a short tuple of plain ints in 0..255, is an
        # RGS exactly when relabelling it by first use leaves it unchanged.
        # Anything else gets the verdict and message of the position loop.
        rgs = code = self.rgs
        if (
            type(rgs) is tuple
            and 0 < len(rgs) < 256
            and set(map(type, rgs)) == {int}
            and min(rgs) >= 0
            and max(rgs) < 256
        ):
            code = bytes(rgs)
        if not (
            type(code) is bytes
            and 0 < len(code) < 256
            and _relabel(code, bytearray(256)) == code
        ):
            _check_rgs(rgs)
            code = bytes(rgs)
        object.__setattr__(self, "rgs", code)

    @classmethod
    def _trusted(cls, code: bytes) -> SetPartition:
        """Wrap a canonical code made in this package, skipping the checks."""
        part = object.__new__(cls)
        object.__setattr__(part, "rgs", code)
        return part

    @property
    def degree(self) -> int:
        return len(self.rgs)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1

    @classmethod
    def from_blocks(
        cls, blocks: Iterable[Iterable[int]], degree: int, first: int = 0
    ) -> SetPartition:
        """Build from explicit blocks of points numbered from `first`; they
        must be disjoint, nonempty and cover.  Errors name points as given."""
        _check_degree(degree)
        labels = [-1] * degree
        for k, block in enumerate(blocks):
            block = list(block)
            if not block:
                raise ValueError("empty block")
            for pt in block:
                if not first <= pt < first + degree:
                    raise ValueError("point %r outside %d..%d" % (pt, first, first + degree - 1))
                if labels[pt - first] != -1:
                    raise ValueError("point %d in two blocks" % pt)
                labels[pt - first] = k
        if -1 in labels:
            raise ValueError("point %d not covered" % (labels.index(-1) + first))
        return cls(_relabel(bytes(labels), bytearray(256)))

    @classmethod
    def from_string(cls, text: str, degree: int) -> SetPartition:
        """Parse the 1-based textual form, e.g. ``"{1,2|3|4}"``; points are
        ASCII integers (`read_int`) of at most as many digits as 255."""
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise PartitionFormatError("expected {...}: %s" % _quoted(text))
        blocks = []
        for chunk in text[1:-1].split("|"):
            toks = chunk.replace(",", " ").split()
            if not toks:
                raise PartitionFormatError("empty block in %s" % _quoted(text))
            points = [read_int(t, 255, PartitionFormatError, "point") for t in toks]
            if None in points:
                raise PartitionFormatError("non-integer point in %s" % _quoted(chunk))
            blocks.append(points)
        try:
            return cls.from_blocks(blocks, degree, first=1)
        except ValueError as exc:
            raise PartitionFormatError(str(exc)) from None

    def blocks(self) -> list[list[int]]:
        """Blocks as sorted lists, ordered by least element."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, lab in enumerate(self.rgs):
            out[lab].append(i)
        return out

    def code(self) -> bytes:
        """The canonical code, as stored."""
        return self.rgs

    def join(self, other: SetPartition) -> SetPartition:
        self._check(other)
        return SetPartition._trusted(join_codes(self.rgs, other.rgs))

    def meet(self, other: SetPartition) -> SetPartition:
        self._check(other)
        return SetPartition._trusted(meet_codes(self.rgs, other.rgs))

    __or__ = join
    __and__ = meet

    def refines(self, other: SetPartition) -> bool:
        """True when every block of self lies inside a block of other."""
        self._check(other)
        target: dict[int, int] = {}
        for i, lab in enumerate(self.rgs):
            want = target.setdefault(lab, other.rgs[i])
            if other.rgs[i] != want:
                return False
        return True

    def _check(self, other: SetPartition):
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))

    def __str__(self) -> str:
        return "{%s}" % "|".join(",".join(str(p + 1) for p in b) for b in self.blocks())


def is_chain(parts: Iterable[SetPartition]) -> bool:
    """True when the given partitions are pairwise comparable by refinement.

    In a chain the block count strictly decreases along refinement, so after
    deduplication it suffices to sort by block count and check neighbours.
    """
    unique = sorted(set(parts), key=lambda p: (-p.block_count, p.rgs))
    for a, b in zip(unique, unique[1:]):
        if a.block_count == b.block_count or not a.refines(b):
            return False
    return True


def partition_codes(degree: int) -> Iterator[bytes]:
    """Every restricted-growth code of the given degree, in lex order: each
    head (the first degree - 1 labels) in lex order, followed by every last
    label up to one past the head's largest."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    _check_degree(degree)
    if degree == 1:
        yield b"\0"
        return
    last = degree - 1
    head = bytearray(last)
    top = [0] * last  # top[i] is the largest label in head[: i + 1]
    while True:
        prefix = bytes(head)
        for tail in _TAILS[: top[-1] + 2]:
            yield prefix + tail
        i = last - 1
        while i > 0 and head[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return
        head[i] += 1
        top[i] = max(top[i - 1], head[i])
        for j in range(i + 1, last):
            head[j] = 0
            top[j] = top[i]


# The codes of degree 1..6, the block sizes `_refinements` splits most often.
_SPLITS = [()] + [tuple(partition_codes(degree)) for degree in range(1, 7)]


def all_partitions(degree: int) -> Iterator[SetPartition]:
    """Every partition of {0..degree-1}, in lex order of their codes."""
    return map(SetPartition._trusted, partition_codes(degree))


def _coarsenings(code: bytes) -> Iterator[bytes]:
    """Every partition that the canonical `code` refines, as codes.  Each
    merges the k labels of `code` by an RGS on them; as `code` uses its
    labels in first-use order, the translated code is canonical as it is."""
    for merge in partition_codes(max(code) + 1):
        yield code.translate(_table(merge))


def _refinements(code: bytes) -> Iterator[bytes]:
    """Every partition that refines the canonical `code`, as codes.  Each
    splits every block by an RGS on its points, shifted past the labels of
    the blocks before it; the split labels, laid out block after block, are
    read back in point order and relabelled by first use."""
    n = len(code)
    if n == 1:
        yield code
        return
    order = sorted(range(n), key=code.__getitem__)
    read = itemgetter(*sorted(range(n), key=order.__getitem__))
    splits = []
    start = 0
    for label in range(max(code) + 1):
        size = code.count(label)
        split = _SPLITS[size] if size < len(_SPLITS) else list(partition_codes(size))
        if start:
            shift = _IDENTITY[start:] + _IDENTITY[:start]
            split = [labels.translate(shift) for labels in split]
        splits.append(split)
        start += size
    table = bytearray(256)
    for choice in product(*splits):
        yield _relabel(bytes(read(b"".join(choice))), table)
