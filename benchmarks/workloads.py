"""The four benchmark workloads and the seeded inputs each pass runs on.

Everything here is plain Python with no dependency on orbitlat, so the
inputs are made the same way whatever the library under test does.  A pass
sees only what `make_inputs(workload, seed, workdir)` returns.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
EXPECTED = BENCH / "expected"

WORKLOADS = ("stream", "scan", "build", "many-small")

# Groups whose `check` is the whole workload, keyed by the name of the
# generator file recorded for them in data/.  On `stream` the groups are
# large and not coherent, so both scans stop early and streaming and coding
# the elements dominate; on `scan` they are small and (mostly) coherent, so
# both scans run over every pair.
CHECK_GROUPS = {
    "stream": {
        "alt9": "alt:9",
        "gl_frob": "lin:3,4,GL·Frob,lines",
        "sl_frob": "lin:3,4,SL·Frob,lines",
        "m11": "file:src/orbitlat/data/m11.gens",
    },
    "scan": {
        "sym7": "sym:7",
        "wr_s3_s3": "wr:(sym:3,sym:3)",
        "wr_s2_s4": "wr:(sym:2,sym:4)",
        "cent_2x4": "cent:(1 2)(3 4)(5 6)(7 8)@8",
        "sym6": "sym:6",
    },
}

# Large degree, nothing streamed: the stabilizer chain is the whole cost.
# The two `check` ops must stop at the enumeration cap with exit code 2.
BUILD_OPS = (
    ("orbits", "sym:40"),
    ("construct", "wr:(sym:8,sym:8)"),
    ("orbits", "alt:30"),
    ("check", "sym:30"),
    ("check", "cent:(1 2 3 4)(5 6 7 8)(9 10 11 12)(13 14 15 16)@40"),
)

CENSUS_DEGREE = 5
# (inner, outer) factors; every partition of the product's points is decided.
WREATH_PAIRS = (("sym:3", "sym:3"), ("cyclic:2", "sym:4"), ("sym:4", "cyclic:2"))
CENT_CASES = 3000
CENT_DEGREES = (8, 40)

# The traced pass streams and scans only groups up to this order (all of the
# stream, scan and census groups; none of the build groups).
PROBE_ORDER_MAX = 200_000

RELABEL_STEPS = 64


# --- permutations and partitions, independent of the library ---------------


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Image tuple of 1-based cycle notation such as "(1 2 3)(4 5)"."""
    images = list(range(degree))
    for chunk in text.replace(")", "").split("(")[1:]:
        points = [int(t) - 1 for t in chunk.replace(",", " ").split()]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def cycle_string(images) -> str:
    seen = [False] * len(images)
    parts = []
    for i in range(len(images)):
        if seen[i]:
            continue
        cycle = [i]
        seen[i] = True
        j = images[i]
        while j != i:
            cycle.append(j)
            seen[j] = True
            j = images[j]
        if len(cycle) > 1:
            parts.append("(%s)" % " ".join(str(p + 1) for p in cycle))
    return "".join(parts) or "()"


def read_gens(path: Path) -> tuple[int, list[tuple[int, ...]]]:
    """Degree and generators of a generator file (`degree n`, then cycles)."""
    degree = None
    gens = []
    for line in path.read_text(encoding="utf-8").splitlines():
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if degree is None:
            degree = int(text.split()[1])
        else:
            gens.append(parse_cycles(text, degree))
    return degree, gens


def canonical(labels) -> bytes:
    """Restricted-growth code of an arbitrary labelling."""
    ids: dict = {}
    return bytes(ids.setdefault(lab, len(ids)) for lab in labels)


def cycle_code(images) -> bytes:
    """Code of the partition into the cycles of a permutation."""
    labels = [-1] * len(images)
    for i in range(len(images)):
        j = i
        while labels[j] < 0:
            labels[j] = i
            j = images[j]
    return canonical(labels)


def partitions(degree: int):
    """Every restricted-growth string of the given length, in lex order."""
    rgs = [0] * degree

    def rec(i, top):
        if i == degree:
            yield tuple(rgs)
            return
        for lab in range(top + 2):
            rgs[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(1, 0)


# --- seeded inputs ----------------------------------------------------------


def relabelling(seed: int, key: str, gens) -> list[int]:
    """Point i of the recorded group becomes point sigma[i] of the input.

    sigma is a random element of the group itself (a product of
    RELABEL_STEPS random generators).  The generators a pass sees change with
    the seed, but the group, its pi-set and the code order the closure scans
    follow do not, so every seed asks for the same work.  A uniformly random
    relabelling moves the lex-least witness, and with it how far the scans
    run before they stop.
    """
    rng = random.Random("%d/%s" % (seed, key))
    sigma = list(range(len(gens[0])))
    for _ in range(RELABEL_STEPS):
        g = rng.choice(gens)
        sigma = [g[p] for p in sigma]
    return sigma


def relabel(images, sigma) -> tuple[int, ...]:
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[sigma[i]] = sigma[j]
    return tuple(out)


def _centralizer_case(rng: random.Random):
    """A permutation g, a partition P, and whether P is the cycle partition
    of some element commuting with g, known by construction.

    g has at least two cycle lengths.  A feasible P is the cycle partition of
    a random element of the centralizer (cycles of equal length permuted,
    each mapped on with a random rotation).  An infeasible P merges two parts
    that hold points from cycles of different lengths.
    """
    n = rng.randint(*CENT_DEGREES)
    while True:
        lengths = []
        while sum(lengths) < n:
            lengths.append(rng.randint(1, min(6, n - sum(lengths))))
        if len(set(lengths)) > 1:
            break
    points = list(range(n))
    rng.shuffle(points)
    cycles, pos = [], 0
    for length in lengths:
        cycles.append(points[pos : pos + length])
        pos += length
    g = [0] * n
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            g[a] = b

    h = [0] * n
    for length in set(lengths):
        same = [c for c in cycles if len(c) == length]
        targets = same[:]
        rng.shuffle(targets)
        for src, dst in zip(same, targets):
            shift = rng.randrange(length)
            for k, pt in enumerate(src):
                h[pt] = dst[(k + shift) % length]
    code = cycle_code(h)
    feasible = rng.random() < 0.5
    if not feasible:
        a, b = rng.sample(sorted(set(lengths)), 2)
        pa = next(c for c in cycles if len(c) == a)[0]
        pb = next(c for c in cycles if len(c) == b)[0]
        merged = code[pb]
        code = canonical(code[pa] if lab == merged else lab for lab in code)
    return tuple(g), tuple(code), feasible


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Inputs for one pass.  `stream` and `scan` write relabelled generator
    files into workdir; `many-small` draws its centralizer cases."""
    if workload in CHECK_GROUPS:
        groups = {}
        for key in CHECK_GROUPS[workload]:
            degree, gens = read_gens(DATA / ("%s.gens" % key))
            sigma = relabelling(seed, key, gens)
            path = workdir / ("%s.gens" % key)
            lines = ["degree %d" % degree]
            lines += [cycle_string(relabel(g, sigma)) for g in gens]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            groups[key] = {"spec": "file:%s" % path, "sigma": sigma}
        return {"groups": groups}
    if workload == "build":
        return {}
    if workload == "many-small":
        wreath = []
        for inner, outer in WREATH_PAIRS:
            degree = spec_degree(inner) * spec_degree(outer)
            wreath.append((inner, outer, list(partitions(degree))))
        rng = random.Random("%d/centralizer" % seed)
        cases = [_centralizer_case(rng) for _ in range(CENT_CASES)]
        return {"wreath": wreath, "centralizer": cases}
    raise ValueError("unknown workload %r" % workload)


def spec_degree(spec: str) -> int:
    """Degree of the sym:N and cyclic:N factors used by WREATH_PAIRS."""
    return int(spec.split(":")[1])


def factor_elements(spec: str) -> set[tuple[int, ...]]:
    """Every element of a sym:N or cyclic:N factor (cyclic:N is generated by
    the N-cycle (1 2 ... N))."""
    family, n = spec.split(":")[0], spec_degree(spec)
    if family == "sym":
        return set(itertools.permutations(range(n)))
    return {tuple((i + k) % n for i in range(n)) for k in range(n)}
