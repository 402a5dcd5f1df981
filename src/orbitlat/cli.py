"""Command-line interface.

One JSON object (or JSON line stream) per invocation on stdout; diagnostics
on stderr.  Exit codes: 0 for any computed verdict, 1 for malformed input,
2 when an enumeration cap is exceeded.  Output is deterministic across runs,
except for the ms_elapsed timing field.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coherence import analyze, census
from .constructions import (
    _check_degree,
    build_group,
    format_generator_file,
    parse_element_spec,
    parse_group_spec,
)
from .errors import CapExceeded
from .groups import DEFAULT_PI_CAP, pi_set
from .partitions import SetPartition
from .verification import format_report, run_verify_paper
from .witnesses import (
    build_centralizer_element,
    build_wreath_element,
    centralizer_partition_conditions,
    wreath_partition_conditions,
)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 (not argparse's default 2, which is reserved
    for exceeded caps) with a one-line diagnostic."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(1)


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError("expected a worker count of at least 1, got %r" % text)
    return count


def _add_limits(parser, workers_only: bool = False) -> None:
    if not workers_only:
        parser.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_PI_CAP,
            help="largest group order that will be enumerated (default %(default)s)",
        )
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="accepted for compatibility and ignored: every command runs in one process",
    )


def _cmd_check(args) -> int:
    group = build_group(args.spec)
    join, meet, chain = args.join, args.meet, args.chain
    if not (join or meet or chain):
        join = meet = chain = True
    report = analyze(
        group,
        description=args.spec.strip(),
        join=join,
        meet=meet,
        chain=chain,
        cap=args.cap,
    )
    print(report.to_json())
    return 0


def _cmd_pi(args) -> int:
    group = build_group(args.spec)
    for partition in pi_set(group, cap=args.cap).partitions():
        print(partition)
    return 0


def _cmd_orbits(args) -> int:
    print(build_group(args.spec).orbit_partition())
    return 0


def _cmd_census(args) -> int:
    for record in census(args.degree, cap=args.cap):
        print(json.dumps(record))
    return 0


def _cmd_witness_cent(args) -> int:
    g = parse_element_spec(args.element)
    partition = SetPartition.from_string(args.partition, g.degree)
    feasible = centralizer_partition_conditions(partition, g)
    element = build_centralizer_element(partition, g).cycle_string() if feasible else None
    print(json.dumps({"feasible": feasible, "element": element}))
    return 0


def _cmd_witness_wreath(args) -> int:
    # The product's degree is checked before any build when both specs fix
    # their degree, and after the build otherwise.
    specs = [parse_group_spec(args.inner), parse_group_spec(args.outer)]
    if None not in (spec.degree for spec in specs):
        _check_degree(specs[0].degree * specs[1].degree)
    inner, outer = (spec.build() for spec in specs)
    _check_degree(inner.degree * outer.degree)
    partition = SetPartition.from_string(args.partition, inner.degree * outer.degree)
    conditions = wreath_partition_conditions(partition, inner, outer)
    element = (
        build_wreath_element(partition, inner, outer).cycle_string()
        if conditions.overall
        else None
    )
    print(
        json.dumps(
            {
                "c1": conditions.c1,
                "c2": conditions.c2,
                "c4": conditions.c4,
                "overall": conditions.overall,
                "element": element,
            }
        )
    )
    return 0


def _cmd_construct(args) -> int:
    text = format_generator_file(build_group(args.spec), comment=args.spec.strip())
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # Reported by `main` as one error line, exit 1.
            raise ValueError("cannot write %s: %s" % (args.output, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_paper(args) -> int:
    results = run_verify_paper(slow=args.slow)
    print(format_report(results))
    return 0 if all(result.ok for result in results) else 1


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="orbitlat",
        description="Orbit-partition coherence checks for finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="coherence verdicts for one group spec")
    check.add_argument("spec", help="group spec, e.g. sym:5 or wr:(sym:3,cyclic:2)")
    check.add_argument("--join", action="store_true", help="check join-coherence")
    check.add_argument("--meet", action="store_true", help="check meet-coherence")
    check.add_argument("--chain", action="store_true", help="check the chain property")
    _add_limits(check)
    check.set_defaults(func=_cmd_check)

    pi = sub.add_parser("pi", help="every orbit partition of the group, sorted")
    pi.add_argument("spec")
    _add_limits(pi)
    pi.set_defaults(func=_cmd_pi)

    orbits = sub.add_parser("orbits", help="orbit partition of the whole group")
    orbits.add_argument("spec")
    orbits.set_defaults(func=_cmd_orbits)

    census_cmd = sub.add_parser("census", help="analyze every subgroup of sym:N")
    census_cmd.add_argument("degree", type=int)
    _add_limits(census_cmd)
    census_cmd.set_defaults(func=_cmd_census)

    cent = sub.add_parser(
        "witness-cent", help="realize a partition in the centralizer of an element"
    )
    cent.add_argument("element", help="permutation as <cycles>@N, e.g. '(1 2)(3 4)@4'")
    cent.add_argument("partition", help="partition as {1,2|3,4} on the same points")
    cent.set_defaults(func=_cmd_witness_cent)

    wreath = sub.add_parser(
        "witness-wreath", help="realize a partition in an imprimitive wreath product"
    )
    wreath.add_argument("inner", help="group spec for the inner factor")
    wreath.add_argument("outer", help="group spec for the outer factor")
    wreath.add_argument("partition", help="partition of the |inner| x |outer| points")
    wreath.set_defaults(func=_cmd_witness_wreath)

    construct = sub.add_parser("construct", help="emit a generator file for a spec")
    construct.add_argument("spec")
    construct.add_argument("-o", "--output", help="write to a file instead of stdout")
    construct.set_defaults(func=_cmd_construct)

    verify = sub.add_parser("verify-paper", help="re-run the reproducible claim suite")
    verify.add_argument("--slow", action="store_true", help="include the large groups")
    _add_limits(verify, workers_only=True)
    verify.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        detail = " (requires cap >= %d)" % exc.required if exc.required else ""
        print("cap exceeded: %s%s" % (exc, detail), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
