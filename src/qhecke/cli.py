"""Command-line driver: verification suites, dimension tables, matrix dumps.

Each leaf's options are declared once, in the option table below.  A plain
command line -- a command (and suite), then that leaf's options under their
full names, each at most once, as ``--name value``, ``--name=value`` or a bare
flag -- is read from the table by `read_plain` without argparse.  Every other
line (``--help``, abbreviations, repeats, errors) goes to the argparse parser
that `build_parser` makes from the same table; it renders help and usage
errors, exit code 2.

Reports are emitted as a single JSON document with exact strings only (no
floats, no timestamps unless requested), so identical configurations produce
byte-identical output.  Exit codes: 0 all checks passed, 1 a verification
check failed, 2 usage errors, size-bound refusals or a report that cannot
be written.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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


# The option table: each leaf's options in the order of its help page, as
# (name, type or choices, default, required, help).  A leaf of `verify` is
# keyed by its suite, `dims` and `dump` by their command.  The type is the
# callable argparse converts a value with; a tuple lists the choices of a
# string option, and `bool` marks a flag.
_OUT = ("out", str, None, False, "write the report to this path instead of stdout")
_STAMPED = (_OUT, ("timestamps", bool, False, False,
                   "include a generation timestamp in the report"))
_COMMON = (*_STAMPED, ("seed", int, 0, False,
                       "seed of the sampled even words and the specialization "
                       "points (default 0, reproducible)"))
_RANK = (("r", int, None, True, None),
         ("bound", int, 6, False, "largest admissible rank (default 6)"))
_SHAPE = tuple((name, int, None, True, None) for name in ("m", "n", "r"))
_TENSOR = (*_COMMON, *_SHAPE,
           ("mode", ("exact", "specialized"), None, False,
            "exact Q(q) linear algebra or two-point specialization "
            "(default: exact up to tensor dimension 8)"),
           ("bound", int, None, False, "override the tensor-space dimension bound"),
           ("dump", bool, False, False, "include truncated matrix dumps in the report"))

SUITES = {
    "hecke": ("relations, counting, crossed-product presentation", (*_COMMON, *_RANK)),
    "alt": ("even subalgebra: counts, closure, generator relations", (*_STAMPED, *_RANK)),
    "schur-weyl": ("double-commutant checks for the full action", _TENSOR),
    "alt-centralizer": ("centralizer structure of the even image", _TENSOR),
    "specialize": ("rank agreement at rational points and q=1 sanity", (
        *_COMMON, *_SHAPE,
        ("points", str, None, False,
         "comma-separated rational points, e.g. 2,3/2; a list that starts "
         "with a negative point takes the = form, --points=-1,1/2"),
        ("bound", int, None, False, None))),
}
COMMANDS = {
    "verify": ("run a verification suite", SUITES),
    "dims": ("predicted dimension table over hook partitions", (*_STAMPED, *_SHAPE)),
    "dump": ("sparse dump of one generator matrix", (
        _OUT, *_SHAPE,
        ("gen", str, None, True, "one of T<i>, Tp<i>, X<i>, sigma, qh<b>, e<i>, f<i>, phi"),
        ("limit", int, None, False, "truncate to this many entries"))),
}


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv``, when ``argv`` is plain.

    Plain is a command (and suite) of the table, then that leaf's options
    under their full names, each at most once: ``--name value`` with a value
    that does not start with ``-``, ``--name=value``, or a bare flag.  Values
    convert and choices and required options check as in argparse.  Anything
    else -- abbreviations, repeats, ``-h``, ``--``, stray words, a bad value or
    a missing option -- gives None, and argparse reads it instead.
    """
    rest = iter(argv)
    names = {"command": next(rest, None)}
    leaf = COMMANDS.get(names["command"], (None, None))[1]
    if leaf is SUITES:
        names["suite"] = next(rest, None)
        leaf = SUITES.get(names["suite"], (None, None))[1]
    if leaf is None:
        return None
    options = {opt[0]: opt for opt in leaf}
    values = {}
    for token in rest:
        name, eq, value = token[2:].partition("=")
        opt = options.get(name) if token.startswith("--") else None
        if opt is None or name in values:
            return None
        kind = opt[1]
        if kind is bool:
            if eq:
                return None
            values[name] = True
            continue
        if not eq:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        values[name] = value
    if any(required and name not in values for name, _, _, required, _ in leaf):
        return None
    return SimpleNamespace(**names, **{name: values.get(name, default)
                                       for name, _, default, _, _ in leaf})


def build_parser():
    """The argparse parser of the whole table; it renders help and usage errors."""
    import argparse

    def add_leaf(group, name, helptext, options):
        leaf = group.add_parser(name, help=helptext)
        for opt, kind, default, required, opthelp in options:
            if kind is bool:
                leaf.add_argument(f"--{opt}", action="store_true", help=opthelp)
            else:
                choices = kind if isinstance(kind, tuple) else None
                leaf.add_argument(f"--{opt}", type=None if choices else kind, choices=choices,
                                  default=default, required=required, help=opthelp)

    parser = argparse.ArgumentParser(
        prog="qhecke",
        description="Exact verification suites for the type-A Hecke algebra, "
                    "its even subalgebra, and their centralizers on graded tensor space.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (helptext, leaf) in COMMANDS.items():
        if leaf is SUITES:
            vsub = sub.add_parser(command, help=helptext).add_subparsers(
                dest="suite", required=True)
            for suite, (suitehelp, options) in SUITES.items():
                add_leaf(vsub, suite, suitehelp, options)
        else:
            add_leaf(sub, command, helptext, leaf)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
