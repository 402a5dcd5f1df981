"""Builders for the permutation group families under study.

Every builder returns a PermGroup with a documented point encoding and
checks the expected order against the stabilizer chain (also under
``python -O``), so a wrong generating set or a wrong chain cannot go
unnoticed.  Pair encodings always follow the one convention
(x, y) -> y*|X| + x, which keeps the copies of X contiguous blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import factorial, gcd, prod

from .arith import factorize, is_prime, multiplicative_order
from .errors import GeneratorFileError, GroupSpecError, PostconditionError
from .gf import SUPPORTED_ORDERS, gf, nonzero_vectors, normalize_projective, projective_points
from .groups import PermGroup
from .perms import Permutation

DEGREE_CAP = 64

# Deepest parenthesis nesting a spec may have, checked before parsing
# recurses into a dsum/dprod/wr pair.  Each pair level adds a point or
# multiplies the degree, so a deeper spec within DEGREE_CAP only repeats
# trivial factors.
SPEC_DEPTH_CAP = DEGREE_CAP

LINEAR_VARIANTS = ("GL", "SL", "GL·Frob", "SL·Frob")
LINEAR_ACTIONS = ("points", "lines", "hyperplanes")


def _check_degree(n: int) -> None:
    if n < 1:
        raise GroupSpecError("degree must be at least 1, got %d" % n)
    if n > DEGREE_CAP:
        raise GroupSpecError("degree %d exceeds cap %d" % (n, DEGREE_CAP))


def _checked_order(group: PermGroup, expected: int) -> PermGroup:
    """Return the group if its chain order is the expected one."""
    if group.order != expected:
        raise PostconditionError(
            "stabilizer chain gives order %d, expected %d" % (group.order, expected)
        )
    return group


def symmetric_group(n: int) -> PermGroup:
    _check_degree(n)
    gens = []
    if n >= 2:
        gens.append(Permutation((1, 0) + tuple(range(2, n))))
    if n >= 3:
        gens.append(Permutation(tuple(range(1, n)) + (0,)))
    group = PermGroup(gens, n)
    return _checked_order(group, factorial(n))


def alternating_group(n: int) -> PermGroup:
    _check_degree(n)
    gens = []
    if n >= 3:
        gens.append(Permutation((1, 2, 0) + tuple(range(3, n))))
    if n >= 4:
        if n % 2:
            gens.append(Permutation(tuple(range(1, n)) + (0,)))
        else:
            # even n: an n-cycle is odd, so cycle the last n-1 points instead
            gens.append(Permutation((0,) + tuple(range(2, n)) + (1,)))
    group = PermGroup(gens, n)
    return _checked_order(group, factorial(n) // 2 if n >= 3 else 1)


def cyclic_group(n: int) -> PermGroup:
    """C_n acting on itself by translation."""
    _check_degree(n)
    gens = [] if n == 1 else [Permutation(tuple((x + 1) % n for x in range(n)))]
    group = PermGroup(gens, n)
    return _checked_order(group, n)


def dihedral_group(n: int) -> PermGroup:
    """The n-cycle together with x -> -x on Z_n; order 2n for n >= 3."""
    _check_degree(n)
    gens = []
    if n > 1:
        gens.append(Permutation(tuple((x + 1) % n for x in range(n))))
        gens.append(Permutation(tuple(-x % n for x in range(n))))
    group = PermGroup(gens, n)
    return _checked_order(group, 2 * n if n >= 3 else n)


_NAMED = ("sym", "alt", "cyclic", "dihedral")


def direct_sum_action(g: PermGroup, h: PermGroup) -> PermGroup:
    """G x H acting intransitively on the disjoint union of the two domains.

    Points 0..|X|-1 carry the G-action, points |X|.. carry the H-action.
    """
    dg, dh = g.degree, h.degree
    if dg + dh > DEGREE_CAP:
        raise GroupSpecError("degree %d exceeds cap %d" % (dg + dh, DEGREE_CAP))
    rest = bytes(range(dg, dg + dh))
    gens = [Permutation(p.images + rest) for p in g.generators]
    head = bytes(range(dg))
    gens += [Permutation(head + bytes(x + dg for x in p.images)) for p in h.generators]
    group = PermGroup(gens, dg + dh)
    return _checked_order(group, g.order * h.order)


def product_action(g: PermGroup, h: PermGroup) -> PermGroup:
    """G x H acting coordinatewise on pairs; (x, y) is point y*|X| + x."""
    dg, dh = g.degree, h.degree
    degree = dg * dh
    if degree > DEGREE_CAP:
        raise GroupSpecError("degree %d exceeds cap %d" % (degree, DEGREE_CAP))
    gens = []
    for p in g.generators:
        gens.append(Permutation(tuple(y * dg + p.images[x] for y in range(dh) for x in range(dg))))
    for p in h.generators:
        gens.append(Permutation(tuple(p.images[y] * dg + x for y in range(dh) for x in range(dg))))
    group = PermGroup(gens, degree)
    return _checked_order(group, g.order * h.order)


def wreath_imprimitive(g: PermGroup, h: PermGroup) -> PermGroup:
    """G wr H on pairs (x, y) -> y*|X| + x, with blocks B_y = X x {y}.

    The base group is one copy of G per point of Y; generators place a copy
    of G in the first block of each H-orbit (H-conjugation reaches the rest)
    and let H's generators permute the blocks.  The |G|^|Y| * |H| order is
    checked, so the generators provably close over the full base group.
    """
    dg, dh = g.degree, h.degree
    degree = dg * dh
    if degree > DEGREE_CAP:
        raise GroupSpecError("degree %d exceeds cap %d" % (degree, DEGREE_CAP))
    gens = []
    for orbit in h.orbits():
        y0 = orbit[0]
        for p in g.generators:
            images = list(range(degree))
            for x in range(dg):
                images[y0 * dg + x] = y0 * dg + p.images[x]
            gens.append(Permutation(images))
    for p in h.generators:
        gens.append(Permutation(tuple(p.images[y] * dg + x for y in range(dh) for x in range(dg))))
    group = PermGroup(gens, degree)
    return _checked_order(group, g.order**dh * h.order)


def centralizer_in_sym(g: Permutation) -> PermGroup:
    """The full centralizer of g in the symmetric group on g's domain.

    For each cycle length k with orbits O_1 < O_2 < ... the generators are
    the cycle of g on O_1 and the swaps O_i <-> O_{i+1} aligned so that they
    commute with g; together these generate the product over k of C_k wr Sym
    on the k-orbits.
    """
    n = g.degree
    _check_degree(n)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in g.cycles():
        by_length.setdefault(len(cycle), []).append(cycle)
    gens: list[Permutation] = []
    expected = 1
    for k, orbits in sorted(by_length.items()):
        expected *= k ** len(orbits) * factorial(len(orbits))
        if k > 1:
            images = list(range(n))
            first = orbits[0]
            for e in range(k):
                images[first[e]] = first[(e + 1) % k]
            gens.append(Permutation(images))
        for a, b in zip(orbits, orbits[1:]):
            images = list(range(n))
            for e in range(k):
                images[a[e]] = b[e]
                images[b[e]] = a[e]
            gens.append(Permutation(images))
    for p in gens:
        if p * g != g * p:
            raise PostconditionError("centralizer generator %s does not commute with %s" % (p, g))
    group = PermGroup(gens, n)
    return _checked_order(group, expected)


def frobenius_cyclic(n: int, r: int) -> PermGroup:
    """The extension of Z_n by a multiplier of order r mod every prime-power
    factor of n, acting on Z_n; order n*r, Frobenius when r > 1.

    Requires r to divide p-1 for every prime p dividing n; the multiplier is
    the least d that works (any valid d yields a conjugate subgroup of Sym).
    """
    if n < 1 or r < 1:
        raise GroupSpecError("need n >= 1 and r >= 1, got n=%d r=%d" % (n, r))
    _check_degree(n)
    for p in sorted(factorize(n)):
        if (p - 1) % r:
            raise GroupSpecError(
                "r=%d does not divide p-1 for prime %d dividing %d" % (r, p, n)
            )
    d = None
    for cand in range(1, n + 1):
        if gcd(cand, n) == 1 and all(
            multiplicative_order(cand % p**a, p**a) == r for p, a in factorize(n).items()
        ):
            d = cand
            break
    if d is None:
        raise PostconditionError("no multiplier of order %d modulo %d" % (r, n))
    gens = []
    if n > 1:
        gens.append(Permutation(tuple((x + 1) % n for x in range(n))))
    if d > 1:
        gens.append(Permutation(tuple(x * d % n for x in range(n))))
    group = PermGroup(gens, max(n, 1))
    return _checked_order(group, n * r)


def gamma_group(p: int, a: int) -> PermGroup:
    """The extension of Z_{p^a} by x -> (p^(a-1)+1) x, of order p^(a+1)."""
    if not is_prime(p) or a < 2:
        raise GroupSpecError("need a prime p and a >= 2, got p=%r a=%r" % (p, a))
    n = p**a
    if n > DEGREE_CAP:
        raise GroupSpecError("degree %d exceeds cap %d" % (n, DEGREE_CAP))
    r = p ** (a - 1) + 1
    gens = [
        Permutation(tuple((x + 1) % n for x in range(n))),
        Permutation(tuple(x * r % n for x in range(n))),
    ]
    group = PermGroup(gens, n)
    return _checked_order(group, p ** (a + 1))


def _mat_vec(field, v, m):
    d = len(v)
    out = []
    for jj in range(d):
        s = 0
        for ii in range(d):
            s = field.add(s, field.mul(v[ii], m[ii][jj]))
        out.append(s)
    return tuple(out)


def _mat_inv(field, m):
    d = len(m)
    aug = [list(row) + [1 if ii == jj else 0 for jj in range(d)] for ii, row in enumerate(m)]
    for col in range(d):
        pivot = next(rr for rr in range(col, d) if aug[rr][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(inv, x) for x in aug[col]]
        for rr in range(d):
            if rr != col and aug[rr][col]:
                factor = aug[rr][col]
                aug[rr] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(aug[rr], aug[col])
                ]
    return tuple(tuple(row[d:]) for row in aug)


def _linear_orders(d: int, q: int) -> tuple[int, int, int, int]:
    gl = prod(q**d - q**k for k in range(d))
    sl = gl // (q - 1)
    pgl = gl // (q - 1)
    psl = sl // gcd(d, q - 1)
    return gl, sl, pgl, psl


def linear_group_action(d: int, q: int, variant: str, action: str) -> PermGroup:
    """GL_d(q) or SL_d(q), optionally extended by the Frobenius field
    automorphism, acting on nonzero row vectors, on projective points, or on
    hyperplanes (the dual projective action via inverse-transpose).

    Point sets are ordered lexicographically by coordinate codes, projective
    representatives normalized to leading coordinate 1, so every permutation
    here is reproducible.
    """
    if d not in (2, 3):
        raise GroupSpecError("dimension must be 2 or 3, got %r" % (d,))
    if q not in SUPPORTED_ORDERS:
        raise GroupSpecError("unsupported field order %r" % (q,))
    variant = variant.replace(".", "·")
    if variant not in LINEAR_VARIANTS:
        raise GroupSpecError("unknown variant %r" % (variant,))
    if action not in LINEAR_ACTIONS:
        raise GroupSpecError("unknown action %r" % (action,))
    field = gf(q)
    alpha = field.primitive_element()

    mats = []
    for k in range(field.e):
        t = [[1 if ii == jj else 0 for jj in range(d)] for ii in range(d)]
        t[0][1] = field.pow(alpha, k)
        mats.append(tuple(tuple(row) for row in t))
    cyc = [[0] * d for _ in range(d)]
    for ii in range(d):
        cyc[ii][(ii + 1) % d] = 1
    if d % 2 == 0:
        cyc[d - 1][0] = field.neg(1)  # restore determinant 1
    mats.append(tuple(tuple(row) for row in cyc))
    if variant.startswith("GL") and q > 2:
        diag = [[1 if ii == jj else 0 for jj in range(d)] for ii in range(d)]
        diag[0][0] = alpha
        mats.append(tuple(tuple(row) for row in diag))

    if action == "points":
        domain = nonzero_vectors(d, q)
        normalize = lambda v: v
    else:
        domain = projective_points(d, q)
        normalize = lambda v: normalize_projective(field, v)
    if len(domain) > DEGREE_CAP:
        raise GroupSpecError("degree %d exceeds cap %d" % (len(domain), DEGREE_CAP))
    index = {v: k for k, v in enumerate(domain)}

    gens = []
    for m in mats:
        act = _mat_inv(field, m) if action == "hyperplanes" else m
        if action == "hyperplanes":
            act = tuple(zip(*act))  # transpose
        gens.append(Permutation(tuple(index[normalize(_mat_vec(field, v, act))] for v in domain)))
    if variant.endswith("Frob"):
        gens.append(
            Permutation(
                tuple(index[normalize(tuple(field.frobenius(c) for c in v))] for v in domain)
            )
        )

    group = PermGroup(gens, len(domain))
    gl, sl, pgl, psl = _linear_orders(d, q)
    expected = (gl if variant.startswith("GL") else sl) if action == "points" else (
        pgl if variant.startswith("GL") else psl
    )
    if variant.endswith("Frob"):
        expected *= field.e
    return _checked_order(group, expected)


def load_generators(path: str) -> PermGroup:
    """Read a generator file: first content line `degree n`, then one
    generator per line in cycle notation; `#` starts a comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise GeneratorFileError("cannot read %s: %s" % (path, exc)) from exc
    degree = None
    gens = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if degree is None:
            parts = text.split()
            if len(parts) == 2 and parts[0] == "degree":
                try:
                    degree = _read_int(parts[1], "degree")
                except GroupSpecError as exc:
                    raise GeneratorFileError("%s:%d: %s" % (path, lineno, exc)) from None
            if degree is None:
                raise GeneratorFileError(
                    "%s:%d: expected 'degree n' header, got %r" % (path, lineno, text)
                )
            if degree < 1:
                raise GeneratorFileError("%s:%d: degree must be positive" % (path, lineno))
            if degree > DEGREE_CAP:
                raise GeneratorFileError(
                    "%s:%d: degree %d exceeds cap %d" % (path, lineno, degree, DEGREE_CAP)
                )
            continue
        try:
            gens.append(Permutation.from_cycles(text, degree))
        except ValueError as exc:
            raise GeneratorFileError("%s:%d: %s" % (path, lineno, exc)) from exc
    if degree is None:
        raise GeneratorFileError("%s: missing 'degree n' header" % path)
    return PermGroup(gens, degree)


def format_generator_file(group: PermGroup, comment: str | None = None) -> str:
    lines = ["degree %d" % group.degree]
    if comment:
        lines += ["# " + part for part in comment.splitlines()]
    lines += [p.cycle_string() for p in group.generators]
    return "\n".join(lines) + "\n"


# --- group specification grammar -------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A parsed group description; `text` is the original spelling."""

    family: str
    params: tuple
    text: str

    @property
    def degree(self) -> int | None:
        """The degree the spec fixes before any build, or None if only a
        build can tell (frob, gamma, lin, file)."""
        if self.family in _NAMED:
            return self.params[0]
        if self.family == "cent":
            return self.params[1]
        if self.family in ("dsum", "dprod", "wr"):
            left, right = (part.degree for part in self.params)
            if left is None or right is None:
                return None
            return left + right if self.family == "dsum" else left * right
        return None

    def build(self) -> PermGroup:
        degree = self.degree
        if degree is not None and degree > DEGREE_CAP:
            raise GroupSpecError("degree %d exceeds cap %d" % (degree, DEGREE_CAP))
        return _BUILDERS[self.family](*self.params)


def _split_pair(body: str, context: str) -> tuple[str, str]:
    if not (body.startswith("(") and body.endswith(")")):
        raise GroupSpecError("%s expects (spec,spec), got %r" % (context, body))
    if max(accumulate((ch == "(") - (ch == ")") for ch in body)) > SPEC_DEPTH_CAP:
        raise GroupSpecError("%s: spec nested deeper than %d levels" % (context, SPEC_DEPTH_CAP))
    inner = body[1:-1]
    depth = 0
    for pos, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[:pos], inner[pos + 1 :]
    raise GroupSpecError("%s expects two comma-separated specs in %r" % (context, body))


def _read_int(text: str, what: str) -> int | None:
    """`text` as an integer in ASCII digits with an optional leading '-'
    (blanks around it ignored), or None if it is not one.

    No parameter with more digits than DEGREE_CAP is valid, so the digit
    count is checked before int() reads the number; the error shows the
    number only when it is short.
    """
    text = text.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    size = len(digits.lstrip("0"))
    if size > len(str(DEGREE_CAP)):
        shown = text if size <= 20 else "of %d digits" % size
        raise GroupSpecError("%s %s exceeds cap %d" % (what, shown, DEGREE_CAP))
    return int(text)


def _int_params(body: str, count: int, context: str) -> tuple[int, ...]:
    parts = body.split(",")
    if len(parts) != count:
        raise GroupSpecError("%s expects %d integer parameters, got %r" % (context, count, body))
    values = tuple(_read_int(part, "%s: parameter" % context) for part in parts)
    for part, value in zip(parts, values):
        if value is None:
            raise GroupSpecError("%s: non-integer parameter %r" % (context, part.strip()))
    return values


def parse_group_spec(text: str) -> GroupSpec:
    stripped = text.strip()
    family, sep, body = stripped.partition(":")
    family = family.strip()
    if not sep:
        raise GroupSpecError("missing ':' in group spec %r" % (stripped,))
    if family in _NAMED:
        (n,) = _int_params(body, 1, family)
        return GroupSpec(family, (n,), stripped)
    if family in ("dsum", "dprod", "wr"):
        left, right = _split_pair(body, family)
        return GroupSpec(family, (parse_group_spec(left), parse_group_spec(right)), stripped)
    if family == "cent":
        cycles, at, deg = body.rpartition("@")
        degree = _read_int(deg, "cent: degree") if at else None
        if degree is None or degree < 0:
            raise GroupSpecError("cent expects <cycles>@N, got %r" % (body,))
        return GroupSpec(family, (cycles.strip(), degree), stripped)
    if family == "frob":
        return GroupSpec(family, _int_params(body, 2, family), stripped)
    if family == "gamma":
        return GroupSpec(family, _int_params(body, 2, family), stripped)
    if family == "lin":
        parts = [part.strip() for part in body.split(",")]
        if len(parts) != 4:
            raise GroupSpecError("lin expects D,Q,VARIANT,ACTION, got %r" % (body,))
        d, q = (_read_int(part, "lin: parameter") for part in parts[:2])
        if d is None or q is None:
            raise GroupSpecError("lin: non-integer dimension or order in %r" % (body,))
        return GroupSpec(family, (d, q, parts[2], parts[3]), stripped)
    if family == "file":
        if not body:
            raise GroupSpecError("file expects a path")
        return GroupSpec(family, (body,), stripped)
    raise GroupSpecError("unknown group family %r" % (family,))


def parse_element_spec(text: str) -> Permutation:
    """Parse ``<cycles>@N`` into a permutation of degree N."""
    cycles, at, deg = text.strip().rpartition("@")
    degree = _read_int(deg, "element spec: degree") if at else None
    if degree is None or degree < 0:
        raise GroupSpecError("element spec expects <cycles>@N, got %r" % (text,))
    _check_degree(degree)
    try:
        return Permutation.from_cycles(cycles.strip(), degree)
    except ValueError as exc:
        raise GroupSpecError("element spec: %s" % exc) from exc


def _build_cent(cycles: str, degree: int) -> PermGroup:
    _check_degree(degree)
    try:
        g = Permutation.from_cycles(cycles, degree)
    except ValueError as exc:
        raise GroupSpecError("cent: %s" % exc) from exc
    return centralizer_in_sym(g)


_BUILDERS = {
    "sym": symmetric_group,
    "alt": alternating_group,
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "dsum": lambda a, b: direct_sum_action(a.build(), b.build()),
    "dprod": lambda a, b: product_action(a.build(), b.build()),
    "wr": lambda a, b: wreath_imprimitive(a.build(), b.build()),
    "cent": _build_cent,
    "frob": frobenius_cyclic,
    "gamma": gamma_group,
    "lin": linear_group_action,
    "file": load_generators,
}


def build_group(text: str) -> PermGroup:
    return parse_group_spec(text).build()
