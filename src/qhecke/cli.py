"""Command-line driver: verification suites, dimension tables, matrix dumps.

Reports are emitted as a single JSON document with exact strings only (no
floats, no timestamps unless requested), so identical configurations produce
byte-identical output.  Exit codes: 0 all checks passed, 1 a verification
check failed, 2 usage errors, size-bound refusals or a report that cannot
be written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .partitions import predicted_dimensions
from .suites import (
    SizeBoundError,
    suite_alt,
    suite_alt_centralizer,
    suite_hecke,
    suite_schur_weyl,
    suite_specialization,
)
from .tensor import (
    GradedSpace,
    PiRepresentation,
    phi_tensor,
    rho_generator,
)

DUMP_TRUNCATE = 50


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``argv`` (default ``sys.argv[1:]``).  Every subcommand is
    created, so help listings and choice errors are complete, but only a leaf
    whose name appears in ``argv`` gets its arguments, ``--help`` included."""
    named = set(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="qhecke",
        description="Exact verification suites for the type-A Hecke algebra, "
                    "its even subalgebra, and their centralizers on graded tensor space.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    def base(p):
        p.add_argument("--out", type=str, default=None,
                       help="write the report to this path instead of stdout")

    def stamped(p):
        base(p)
        p.add_argument("--timestamps", action="store_true",
                       help="include a generation timestamp in the report")

    def common(p):
        stamped(p)
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the sampled even words and the specialization "
                            "points (default 0, reproducible)")

    def rank(p):
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--bound", type=int, default=6,
                       help="largest admissible rank (default 6)")

    def shape(p):
        for name in ("--m", "--n", "--r"):
            p.add_argument(name, type=int, required=True)

    def tensor(p):
        shape(p)
        p.add_argument("--mode", choices=["exact", "specialized"], default=None,
                       help="exact Q(q) linear algebra or two-point specialization "
                            "(default: exact up to tensor dimension 8)")
        p.add_argument("--bound", type=int, default=None,
                       help="override the tensor-space dimension bound")
        p.add_argument("--dump", action="store_true",
                       help="include truncated matrix dumps in the report")

    def points(p):
        shape(p)
        p.add_argument("--points", type=str, default=None,
                       help="comma-separated rational points, e.g. 2,3/2; a list "
                            "that starts with a negative point takes the = form, "
                            "--points=-1,1/2")
        p.add_argument("--bound", type=int, default=None)

    def gen(p):
        shape(p)
        p.add_argument("--gen", type=str, required=True,
                       help="one of T<i>, Tp<i>, X<i>, sigma, qh<b>, e<i>, f<i>, phi")
        p.add_argument("--limit", type=int, default=None,
                       help="truncate to this many entries")

    for group, name, helptext, adders in (
            (vsub, "hecke", "relations, counting, crossed-product presentation",
             (common, rank)),
            (vsub, "alt", "even subalgebra: counts, closure, generator relations",
             (stamped, rank)),
            (vsub, "schur-weyl", "double-commutant checks for the full action",
             (common, tensor)),
            (vsub, "alt-centralizer", "centralizer structure of the even image",
             (common, tensor)),
            (vsub, "specialize", "rank agreement at rational points and q=1 sanity",
             (common, points)),
            (sub, "dims", "predicted dimension table over hook partitions", (stamped, shape)),
            (sub, "dump", "sparse dump of one generator matrix", (base, gen))):
        leaf = group.add_parser(name, help=helptext, add_help=name in named)
        if name in named:
            for add in adders:
                add(leaf)
    return parser


def _parse_points(text: str) -> list[Fraction]:
    points = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            points.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"point {part!r} is not a rational number") from None
    if not points:
        raise ValueError("no points given")
    return points


def _generator_matrix(space: GradedSpace, label: str):
    rep = PiRepresentation(space)
    m = re.fullmatch(r"(T|Tp|X|qh|e|f)(\d+)", label)
    if m:
        kind, idx = m.group(1), int(m.group(2))
        if kind == "T":
            return rep.t_matrix(idx)
        if kind == "Tp":
            return rep.tprime_matrix(idx)
        if kind == "X":
            return rep.x_matrix(idx)
        return rho_generator(space, kind, idx)
    if label == "sigma":
        return rho_generator(space, "sigma")
    if label == "phi":
        return phi_tensor(space)
    raise ValueError(f"unknown generator label {label!r}")


def _emit(doc: dict | str, out_path: str | None) -> None:
    """Write a report, a dict as indented JSON and a str as it is."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(command: str, args, config_keys) -> dict:
    """The tool, command and config echo, then the opt-in timestamp."""
    doc = {
        "tool": "qhecke",
        "command": command,
        "config": {k: str(getattr(args, k)) for k in config_keys
                   if getattr(args, k, None) is not None},
    }
    if args.timestamps:
        import datetime
        doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return doc


def _suite_dumps(args) -> dict:
    """Truncated sparse dumps of the generator matrices in play."""
    out = {}
    space = GradedSpace(args.m, args.n, args.r)
    rep = PiRepresentation(space)
    for i in range(1, args.r):
        out[f"T{i}"] = rep.t_matrix(i).dump_lines(DUMP_TRUNCATE)
    return out


def main(argv=None) -> int:
    args = build_parser(argv).parse_args(argv)
    try:
        if args.command == "verify":
            if args.suite == "hecke":
                report = suite_hecke(args.r, seed=args.seed, bound=args.bound)
                keys = ("r", "seed", "bound")
            elif args.suite == "alt":
                report = suite_alt(args.r, bound=args.bound)
                keys = ("r", "bound")
            elif args.suite == "schur-weyl":
                report = suite_schur_weyl(args.m, args.n, args.r, mode=args.mode,
                                          seed=args.seed, bound=args.bound)
                keys = ("m", "n", "r", "seed", "mode", "bound")
            elif args.suite == "alt-centralizer":
                report = suite_alt_centralizer(args.m, args.n, args.r, mode=args.mode,
                                               seed=args.seed, bound=args.bound)
                keys = ("m", "n", "r", "seed", "mode", "bound")
            else:
                points = _parse_points(args.points) if args.points is not None else None
                report = suite_specialization(args.m, args.n, args.r,
                                              points=points, seed=args.seed,
                                              bound=args.bound)
                keys = ("m", "n", "r", "seed", "points", "bound")
            doc = {**_header(f"verify {args.suite}", args, keys), **report.as_dict()}
            if getattr(args, "dump", False):
                doc["dumps"] = _suite_dumps(args)
            _emit(doc, args.out)
            return 0 if report.passed else 1

        if args.command == "dims":
            table = predicted_dimensions(args.m, args.n, args.r)
            doc = {
                **_header("dims", args, ("m", "n", "r")),
                "records": [
                    {"partition": ",".join(str(p) for p in part),
                     "tableaux": str(d), "class": cls}
                    for part, d, cls in table.records
                ],
                "dimA": str(table.dimA), "dimA0": str(table.dimA0),
                "dimA1": str(table.dimA1),
                "dimC": str(table.dimC), "dimC0": str(table.dimC0),
                "dimC1": str(table.dimC1),
            }
            _emit(doc, args.out)
            return 0

        if args.command == "dump":
            space = GradedSpace(args.m, args.n, args.r)
            matrix = _generator_matrix(space, args.gen)
            lines = matrix.dump_lines(args.limit)
            _emit("".join(line + "\n" for line in lines), args.out)
            return 0
    except (SizeBoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
