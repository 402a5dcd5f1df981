"""Record the inputs and expected outputs the benchmark checks against.

Run from the repository root with the library on the path:

    PYTHONPATH=src python3 benchmarks/record.py

It writes data/<group>.gens (generators of the stream and scan groups, which
passes relabel), expected/expected.json (verdicts, exact stdout, wreath
criterion verdicts, counts) and expected/pi-<group>.xz (the sorted pi-set
codes used to validate relabelled witnesses).  The recorded files define what
"correct" means for every later commit, so re-recording them after a change
to the library would hide an output change from the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import os
import re

import workloads as W

from orbitlat import cli
from orbitlat.constructions import build_group, format_generator_file, symmetric_group
from orbitlat.groups import pi_set, subgroups
from orbitlat.partitions import SetPartition
from orbitlat.witnesses import wreath_partition_conditions

VERDICT_FIELDS = ("degree", "order", "pi_size", "join_coherent", "meet_coherent", "is_chain")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record_checks(groups: dict) -> dict:
    expected = {}
    for key, spec in groups.items():
        group = build_group(spec)
        path = W.DATA / ("%s.gens" % key)
        path.write_text(format_generator_file(group, comment=spec), encoding="utf-8")
        code, stdout, stderr = _cli(["check", "file:%s" % path])
        assert code == 0 and not stderr, (spec, code, stderr)
        got = json.loads(stdout)
        expected[key] = {"keys": list(got), "fields": {f: got[f] for f in VERDICT_FIELDS}}
        codes = b"".join(sorted(pi_set(group).codes))
        (W.EXPECTED / ("pi-%s.xz" % key)).write_bytes(lzma.compress(codes, preset=9))
    return expected


def record_build() -> list:
    expected = []
    for argv in W.BUILD_OPS:
        code, stdout, stderr = _cli(argv)
        entry = {"argv": list(argv), "exit": code, "stdout": stdout}
        if code == 2:
            entry["required"] = re.search(r"requires cap >= (\d+)", stderr).group(1)
        else:
            assert not stderr, (argv, stderr)
        expected.append(entry)
    return expected


def record_many_small() -> dict:
    code, census_text, _ = _cli(["census", str(W.CENSUS_DEGREE)])
    assert code == 0
    wreath = {}
    for inner, outer in W.WREATH_PAIRS:
        g_group, h_group = build_group(inner), build_group(outer)
        degree = g_group.degree * h_group.degree
        digits = []
        for rgs in W.partitions(degree):
            c = wreath_partition_conditions(SetPartition(rgs), g_group, h_group)
            digits.append("%d" % (c.c1 * 4 + c.c2 * 2 + c.c4))
        wreath["%s|%s" % (inner, outer)] = "".join(digits)
    return {
        "census": census_text,
        "subgroups": len(subgroups(symmetric_group(W.CENSUS_DEGREE))),
        "wreath": wreath,
    }


def main() -> None:
    os.chdir(W.ROOT)
    W.DATA.mkdir(exist_ok=True)
    W.EXPECTED.mkdir(exist_ok=True)
    expected = {workload: record_checks(groups) for workload, groups in W.CHECK_GROUPS.items()}
    expected["build"] = record_build()
    expected["many-small"] = record_many_small()
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    (W.EXPECTED / "expected.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
