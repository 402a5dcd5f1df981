"""One pass of one workload, in a fresh interpreter started by run.py.

Usage (run.py passes these; PYTHONPATH must point at the checkout's src/):

    python3 benchmarks/child.py --workload W --seed N --mode {setup,run,trace}
        --t0 NS --workdir DIR [--trace-file PATH]

`setup` stops after the set-up (import, expected outputs, seeded inputs).
`run` times the workload's ops with tracing off.  `trace` runs the same ops
inside spans, then probes each layer on the groups the ops built, and writes
the spans to --trace-file.  Every pass checks every output after the timed
region and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import lzma
import re
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads as W
from spans import NoSpans, Spans

import orbitlat.cli as cli
import orbitlat.coherence as coherence
from orbitlat.coherence import analyze, census
from orbitlat.constructions import build_group
from orbitlat.groups import PermGroup, pi_set
from orbitlat.partitions import SetPartition, join_codes, meet_codes
from orbitlat.perms import Permutation
from orbitlat.witnesses import (
    build_centralizer_element,
    build_wreath_element,
    centralizer_partition_conditions,
    wreath_partition_conditions,
)

# Pairs per group timed by the join_codes / meet_codes probes.
PAIR_SAMPLE = 20_000


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# --- the workloads' ops ------------------------------------------------------


def _cli(argv, spans):
    """Run one CLI invocation; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with spans.span("cli.op"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash counts as a failed op, not a failed run
            code = "raised %r" % exc
    return code, out.getvalue(), err.getvalue()


def run_checks(inputs, spans):
    return {key: _cli(["check", g["spec"]], spans) for key, g in inputs["groups"].items()}


def run_build(inputs, spans):
    return [_cli(argv, spans) for argv in W.BUILD_OPS]


def run_many_small(inputs, spans):
    out = {}
    try:
        with spans.span("coherence.census"):
            out["census"] = "".join(json.dumps(r) + "\n" for r in census(W.CENSUS_DEGREE))
    except Exception as exc:
        out["census"] = "raised %r" % exc

    out["wreath"] = []
    for inner, outer, parts in inputs["wreath"]:
        with spans.span("constructions.build_group"):
            g_group = build_group(inner)
        with spans.span("constructions.build_group"):
            h_group = build_group(outer)
        results = []
        for rgs in parts:
            try:
                partition = SetPartition(rgs)
                with spans.span("witnesses.decide") as s:
                    cond = wreath_partition_conditions(partition, g_group, h_group)
                    s.n = cond.overall
                element = None
                if cond.overall:
                    with spans.span("witnesses.build"):
                        element = build_wreath_element(partition, g_group, h_group).images
                results.append((cond.c1, cond.c2, cond.c4, element))
            except Exception as exc:
                results.append("raised %r" % exc)
        out["wreath"].append(results)

    results = []
    for g_images, rgs, _ in inputs["centralizer"]:
        try:
            g = Permutation(g_images)
            partition = SetPartition(rgs)
            with spans.span("witnesses.decide") as s:
                feasible = centralizer_partition_conditions(partition, g)
                s.n = feasible
            element = None
            if feasible:
                with spans.span("witnesses.build"):
                    element = build_centralizer_element(partition, g).images
            results.append((feasible, element))
        except Exception as exc:
            results.append("raised %r" % exc)
    out["centralizer"] = results
    return out


RUNNERS = {"stream": run_checks, "scan": run_checks, "build": run_build, "many-small": run_many_small}


# --- checks --------------------------------------------------------------------


class Checker:
    """Counts ops checked and ops with at least one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._op_failed = False

    def op(self) -> None:
        self.attempted += 1
        self._op_failed = False

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += not self._op_failed
            self._op_failed = True
            if len(self.errors) < 10:
                self.errors.append(what)
        return ok


def _pi_codes(key: str, degree: int) -> set[bytes]:
    raw = lzma.decompress((W.EXPECTED / ("pi-%s.xz" % key)).read_bytes())
    return {raw[i : i + degree] for i in range(0, len(raw), degree)}


def _unrelabelled(text: str, sigma) -> bytes:
    """Code of a printed partition mapped back to the recorded labelling."""
    inverse = [0] * len(sigma)
    for i, j in enumerate(sigma):
        inverse[j] = i
    labels = [0] * len(sigma)
    for k, block in enumerate(text.strip("{}").split("|")):
        for pt in block.split(","):
            labels[inverse[int(pt) - 1]] = k
    return W.canonical(labels)


def _join(a: bytes, b: bytes) -> bytes:
    """Join by relabelling to a fixed point, independent of the library."""
    labels = list(range(len(a)))
    changed = True
    while changed:
        changed = False
        for code in (a, b):
            low: dict[int, int] = {}
            for i, lab in enumerate(code):
                low[lab] = min(low.get(lab, labels[i]), labels[i])
            for i, lab in enumerate(code):
                if labels[i] != low[lab]:
                    labels[i] = low[lab]
                    changed = True
    return W.canonical(labels)


def _meet(a: bytes, b: bytes) -> bytes:
    return W.canonical(zip(a, b))


def verify_checks(outputs, inputs, expected, chk: Checker):
    for key, (code, stdout, stderr) in outputs.items():
        chk.op()
        exp = expected[key]
        name = "check %s" % key
        if not chk.check(code == 0 and stderr == "", "%s: exit %r, stderr %r" % (name, code, stderr[:200])):
            continue
        try:
            got = json.loads(stdout)
        except ValueError:
            chk.check(False, "%s: stdout is not JSON: %r" % (name, stdout[:200]))
            continue
        spec = inputs["groups"][key]["spec"]
        chk.check(list(got) == exp["keys"], "%s: keys %s" % (name, list(got)))
        chk.check(got.get("group") == spec, "%s: group %r" % (name, got.get("group")))
        chk.check(isinstance(got.get("ms_elapsed"), int), "%s: ms_elapsed" % name)
        for field, want in exp["fields"].items():
            chk.check(got.get(field) == want, "%s: %s %r != %r" % (name, field, got.get(field), want))
        sigma = inputs["groups"][key]["sigma"]
        for op_name, op in (("join", _join), ("meet", _meet)):
            witness = got.get("%s_witness" % op_name)
            coherent = exp["fields"]["%s_coherent" % op_name]
            if coherent:
                chk.check(witness is None, "%s: %s witness on a coherent group" % (name, op_name))
                continue
            ok = isinstance(witness, list) and len(witness) == 2
            if ok:
                pi = _pi_codes(key, exp["fields"]["degree"])
                a, b = (_unrelabelled(p, sigma) for p in witness)
                ok = a in pi and b in pi and op(a, b) not in pi
            chk.check(ok, "%s: invalid %s witness %r" % (name, op_name, witness))


def verify_build(outputs, expected, chk: Checker):
    for (code, stdout, stderr), exp in zip(outputs, expected):
        chk.op()
        name = " ".join(exp["argv"])
        chk.check(code == exp["exit"], "%s: exit %r != %r" % (name, code, exp["exit"]))
        chk.check(stdout == exp["stdout"], "%s: stdout differs: %r" % (name, stdout[:200]))
        if exp["exit"] == 2:
            match = re.search(r"requires cap >= (\d+)", stderr)
            chk.check(
                match is not None and match.group(1) == exp["required"],
                "%s: stderr %r" % (name, stderr[:300]),
            )
        else:
            chk.check(stderr == "", "%s: stderr %r" % (name, stderr[:300]))


def _in_wreath(images, dx, g_elements, h_elements) -> bool:
    """Membership in the imprimitive wreath product: blocks [y*dx, (y+1)*dx)
    go to blocks, the block permutation lies in H and each block map in G."""
    dy = len(images) // dx
    h = []
    for y in range(dy):
        target = images[y * dx] // dx
        f = tuple(images[y * dx + x] - target * dx for x in range(dx))
        if not all(0 <= v < dx for v in f) or f not in g_elements:
            return False
        h.append(target)
    return tuple(h) in h_elements


def verify_many_small(outputs, inputs, expected, chk: Checker):
    chk.op()
    chk.check(outputs["census"] == expected["census"], "census %d: output differs" % W.CENSUS_DEGREE)
    for (inner, outer, parts), results in zip(inputs["wreath"], outputs["wreath"]):
        verdicts = expected["wreath"]["%s|%s" % (inner, outer)]
        g_elements = W.factor_elements(inner)
        h_elements = W.factor_elements(outer)
        dx = W.spec_degree(inner)
        for rgs, result, want in zip(parts, results, verdicts):
            chk.op()
            name = "wreath %s|%s %s" % (inner, outer, rgs)
            if isinstance(result, str):
                chk.check(False, "%s: %s" % (name, result))
                continue
            c1, c2, c4, element = result
            if not chk.check("%d" % (c1 * 4 + c2 * 2 + c4) == want, "%s: conditions %s" % (name, result[:3])):
                continue
            if element is not None:
                chk.check(
                    W.cycle_code(element) == bytes(rgs) and _in_wreath(element, dx, g_elements, h_elements),
                    "%s: element %s" % (name, W.cycle_string(element)),
                )
    for (g, rgs, feasible), result in zip(inputs["centralizer"], outputs["centralizer"]):
        chk.op()
        name = "centralizer %s %s" % (W.cycle_string(g), rgs)
        if isinstance(result, str):
            chk.check(False, "%s: %s" % (name, result))
            continue
        got, h = result
        if not chk.check(got == feasible, "%s: feasible %r" % (name, got)):
            continue
        if h is not None:
            commutes = all(h[g[i]] == g[h[i]] for i in range(len(g)))
            chk.check(commutes and W.cycle_code(h) == bytes(rgs), "%s: element %s" % (name, W.cycle_string(h)))


# --- traced pass: layer spans and probes ------------------------------------------


def install_layer_spans(spans: Spans, built: list, subs: list) -> None:
    """Open a span around each library call the CLI and census make."""

    def wrap(fn, name, keep=None, count=None):
        def traced(*args, **kwargs):
            with spans.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.n = count(result)
            if keep is not None:
                keep.append(result)
            return result

        return traced

    cli.build_group = wrap(cli.build_group, "constructions.build_group", keep=built)
    cli.analyze = coherence.analyze = wrap(coherence.analyze, "coherence.analyze")
    coherence.pi_set = wrap(coherence.pi_set, "groups.pi_set")
    coherence.subgroups = wrap(coherence.subgroups, "groups.subgroups", keep=subs, count=len)


def _visited_pairs(codes, witness) -> int:
    """Pairs (i, j), i < j, an ordered scan visits up to and including its witness."""
    m = len(codes)
    if witness is None:
        return m * (m - 1) // 2
    i, j = (codes.index(p.code()) for p in witness)
    return i * (m - 1) - i * (i - 1) // 2 + (j - i)


def _pair_sample(codes, limit):
    out = []
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            if len(out) >= limit:
                return out
            out.append((a, b))
    return out


def probe_group(group, spans, chk: Checker, name: str, expected=None, parallel=False, cli_output=None):
    """Time each layer on one group through its public call."""
    chk.op()
    with spans.span("groups.chain") as chain:
        rebuilt = PermGroup(group.generators, group.degree)
        chain.n = len(rebuilt.base)
    chk.check(rebuilt.order == group.order, "%s: rebuilt chain order %d" % (name, rebuilt.order))
    if group.order > W.PROBE_ORDER_MAX:
        return
    with spans.span("groups.stream") as stream:
        stream.n = sum(1 for _ in group.element_images())
    chk.check(stream.n == group.order, "%s: streamed %d of %d elements" % (name, stream.n, group.order))
    with spans.span("groups.pi_set") as pi_span:
        pi = pi_set(group)
        pi_span.n = len(pi)
    if expected is not None:
        chk.check(len(pi) == expected["pi_size"], "%s: pi_size %d" % (name, len(pi)))
    if parallel:
        with spans.span("groups.pi_set_w2"):
            pi2 = pi_set(group, workers=2)
        chk.check(pi2.codes == pi.codes, "%s: pi_set differs with workers=2" % name)

    codes = sorted(pi.codes)
    for op_name, flags, op in (
        ("join", dict(meet=False, chain=False), join_codes),
        ("meet", dict(join=False, chain=False), meet_codes),
    ):
        with spans.span("coherence.analyze_%s" % op_name) as scan:
            report = analyze(group, **flags)
        witness = getattr(report, "%s_witness" % op_name)
        scan.n = _visited_pairs(codes, witness)
        if expected is not None:
            chk.check(
                getattr(report, "%s_coherent" % op_name) == expected["%s_coherent" % op_name],
                "%s: %s verdict" % (name, op_name),
            )
        if cli_output is not None:
            chk.check(
                cli_output.get("%s_witness" % op_name) == (witness and [str(p) for p in witness]),
                "%s: %s witness differs from the CLI's" % (name, op_name),
            )
        pairs = _pair_sample(codes, min(PAIR_SAMPLE, scan.n))
        with spans.span("partitions.%s_codes" % op_name) as calls:
            for a, b in pairs:
                op(a, b)
            calls.n = len(pairs)
    with spans.span("coherence.analyze_chain"):
        analyze(group, join=False, meet=False)


def run_probes(workload, inputs, outputs, expected, spans, built, subs, chk: Checker):
    """Probe every group the ops built (the census: every subgroup it found)."""
    if workload in W.CHECK_GROUPS:
        for key, group in zip(inputs["groups"], built):
            try:
                cli_output = json.loads(outputs[key][1])
            except ValueError:
                cli_output = None
            probe_group(
                group, spans, chk, key, expected[key]["fields"],
                parallel=workload == "stream", cli_output=cli_output,
            )
    elif workload == "build":
        for (command, spec), group in zip(W.BUILD_OPS, built):
            probe_group(group, spans, chk, "%s %s" % (command, spec))
    else:
        chk.op()
        found = subs[0] if subs else []
        chk.check(len(found) == expected["subgroups"], "census found %d subgroups" % len(found))
        for index, group in enumerate(found):
            probe_group(group, spans, chk, "census subgroup %d" % index)


# --- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=int, required=True, help="monotonic ns when the parent started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    if not Path(cli.__file__).resolve().is_relative_to(W.ROOT / "src"):
        raise SystemExit("orbitlat was imported from %s, not from %s" % (cli.__file__, W.ROOT / "src"))
    expected = json.loads((W.EXPECTED / "expected.json").read_text(encoding="utf-8"))[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=args.workdir))
    try:
        inputs = W.make_inputs(args.workload, args.seed, workdir)
        first_op = time.monotonic_ns()
        result = {"setup_s": (first_op - args.t0) / 1e9}
        if args.mode != "setup":
            result.update(run_pass(args, inputs, expected))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_pass(args, inputs, expected) -> dict:
    traced = args.mode == "trace"
    spans = Spans() if traced else NoSpans()
    built: list = []
    subs: list = []
    if traced:
        install_layer_spans(spans, built, subs)
    runner = RUNNERS[args.workload]

    cpu0 = _cpu_s()
    start = time.monotonic_ns()
    outputs = runner(inputs, spans)
    wall_s = (time.monotonic_ns() - start) / 1e9
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()

    chk = Checker()
    if args.workload in W.CHECK_GROUPS:
        verify_checks(outputs, inputs, expected, chk)
    elif args.workload == "build":
        verify_build(outputs, expected, chk)
    else:
        verify_many_small(outputs, inputs, expected, chk)
    if traced:
        run_probes(args.workload, inputs, outputs, expected, spans, built, subs, chk)
        spans.dump(args.trace_file)
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "errors": chk.errors,
    }


if __name__ == "__main__":
    sys.exit(main())
