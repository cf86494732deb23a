"""Command-line front end: subcommand dispatch, JSON ingestion, and
canonical text/JSON reports.

Exit codes: 0 success, 1 mathematical check failure, 2 input/output
error, 3 validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, jets, k0, projspace, stringy
from .expr import parse_expr
from .k0 import ValidationError, load_json_object

EXIT_OK = 0
EXIT_MATH = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


def emit_table(rows, header=None) -> str:
    """Aligned fixed-width columns with a stable row order."""
    rows = [[str(c) for c in row] for row in rows]
    all_rows = ([list(header)] if header else []) + rows
    if not all_rows:
        return ""
    widths = [max(len(r[i]) for r in all_rows)
              for i in range(len(all_rows[0]))]
    lines = []
    if header:
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit(args, text_value, json_value):
    if args.output == "json":
        print(json.dumps(json_value, indent=2, sort_keys=True))
    else:
        print(text_value)


def _parse_class(text: str) -> k0.K0Class:
    poly = parse_expr(text, variables=("L",))
    return k0.poly_to_class(poly, {"L": k0.LEFSCHETZ})


# ---------------------------------------------------------------------
# subcommands


def cmd_genus(args) -> int:
    # the genus reads the series only through z^n; a negative n is
    # rejected by genus_on_projective
    series = catalog.builtin_series(args.series, order=max(args.n, 0))
    value = str(catalog.genus_on_projective(series, args.n))
    _emit(args, value, {"series": args.series, "n": args.n, "value": value})
    return EXIT_OK


def cmd_hrr(args) -> int:
    lhs, rhs, equal = projspace.hrr_check(args.n, args.d)
    lhs, rhs = str(lhs), str(rhs)
    text = emit_table([[args.n, args.d, lhs, rhs, equal]],
                      header=("n", "d", "sections", "integral", "equal"))
    _emit(args, text, {"n": args.n, "d": args.d, "sections": lhs,
                       "integral": rhs, "equal": equal})
    return EXIT_OK if equal else EXIT_MATH


def cmd_ty(args) -> int:
    value = str(projspace.ty_class_degree(args.n))
    _emit(args, value, {"n": args.n, "value": value})
    return EXIT_OK


def cmd_k0(args) -> int:
    if args.action in ("eval", "chiy", "euler"):
        cls = _parse_class(args.arg)
        if args.action == "eval":
            value = cls
        elif args.action == "chiy":
            value = k0.chi_y_of_class(cls)
        else:
            value = k0.euler_of_class(cls)
        value = str(value)
        _emit(args, value, {"action": args.action, "class": args.arg,
                            "value": value})
        return EXIT_OK
    if args.action == "blowup-check":
        data = load_json_object(args.arg)
        try:
            parts = {key: _parse_class(data[key])
                     for key in ("x", "y", "bl", "exc")}
        except KeyError as exc:
            raise ValidationError(f"blow-up datum misses key {exc}")
        ok = k0.blowup_relation_check(parts["x"], parts["y"],
                                      parts["bl"], parts["exc"])
        _emit(args, f"blow-up relation: {'holds' if ok else 'fails'}",
              {"action": "blowup-check", "holds": ok})
        return EXIT_OK if ok else EXIT_MATH
    return _run_pro(args, load_json_object(args.arg))  # the action is pro


def _tower_field(data: dict, key: str):
    try:
        return data[key]
    except KeyError:
        raise ValidationError(f"tower datum misses key {key!r}") from None


def _tower_int(data: dict, key: str) -> int:
    value = _tower_field(data, key)
    if type(value) is not int:  # a JSON integer, and not true or false
        raise ValidationError(
            f"tower {key!r} must be an integer, got {value!r}")
    return value


def _run_pro(args, data: dict) -> int:
    mode = data.get("mode")
    if mode not in ("euler", "class"):
        raise ValidationError("tower mode must be 'euler' or 'class'")
    level = _tower_int(data, "level")
    if mode == "euler":
        eulers = _tower_field(data, "eulers")
        if type(eulers) is not list or any(type(e) is not int
                                           for e in eulers):
            raise ValidationError(f"tower 'eulers' must be a list of "
                                  f"integers, got {eulers!r}")
        tower = k0.TowerDatum(eulers=tuple(eulers))
        value = str(k0.pro_euler(tower, level, _tower_int(data, "chi")))
        _emit(args, value, {"mode": "euler", "value": value})
        return EXIT_OK
    gamma = _parse_class(_tower_field(data, "gamma"))
    tower = k0.TowerDatum(gamma=gamma)
    num, left = k0.pro_grothendieck(
        tower, level, _parse_class(_tower_field(data, "value")))
    num = str(num)
    text = num if left == 0 else f"({num}) / ({gamma})^{left}"
    _emit(args, text, {"mode": "class", "numerator": num,
                       "denominator_power": left})
    return EXIT_OK


def cmd_pro(args) -> int:
    return _run_pro(args, load_json_object(args.file))


def cmd_stringy(args) -> int:
    datum = stringy.load_datum(args.file)
    if args.action == "compare":
        if not args.file2:
            raise ValidationError("compare needs a second datum file")
        other = stringy.load_datum(args.file2)
        report = stringy.invariance_check(datum, other)
        # chi_y is None (not defined) unless both data have index 1; each
        # value is printed once for both outputs
        rows = [(label, None if row is None else
                 (str(row[0]), str(row[1]), row[2]))
                for label, row in (("integral", report.integral),
                                   ("E-function", report.e_function),
                                   ("chi_y", report.chi_y),
                                   ("euler", report.euler))]
        text = emit_table([(label, *(row or ("n/a",) * 3))
                           for label, row in rows],
                          header=("invariant", "first", "second", "equal"))
        _emit(args, text, {
            label: None if row is None else
            dict(zip(("first", "second", "equal"), row))
            for label, row in rows})
        return EXIT_OK if report.all_equal else EXIT_MATH
    if args.action == "integral":
        if args.relative:
            names = [n for n, _ in datum.components]
            bits = [[i for i in range(len(names)) if m >> i & 1]
                    for m in range(len(datum.strata))]
            # rows by subset size, then lexicographic in component order
            order = sorted(range(len(bits)),
                           key=lambda m: (len(bits[m]), bits[m]))
            rows = [("{" + ", ".join(names[i] for i in bits[m]) + "}",
                     str(datum.strata[m])) for m in order]
            text = emit_table(rows, header=("stratum", "class"))
            _emit(args, text, dict(rows))
            return EXIT_OK
        value = stringy.motivic_integral(datum)
    elif args.action == "efun":
        value = stringy.stringy_E(datum)
    elif args.action == "chiy":
        value = stringy.stringy_chi_y(datum)
    else:
        value = stringy.stringy_euler(datum)
    value = str(value)
    _emit(args, value, {"action": args.action, "value": value})
    return EXIT_OK


def cmd_jets(args) -> int:
    try:
        exponents = tuple(int(a) for a in args.exponents.split(","))
    except ValueError as exc:
        raise ValidationError(
            f"bad exponent list {args.exponents!r}") from exc
    spec = jets.JetSpec(args.dim, exponents, level=max(args.pmax, 1))
    partial, closed, verdict = jets.oracle_integral(spec, args.pmax)
    partial, closed = str(partial), str(closed)
    text = emit_table(
        [["partial", partial], ["closed", closed], ["verdict", verdict]])
    _emit(args, text, {"partial": partial, "closed": closed,
                       "verdict": verdict})
    return EXIT_OK if verdict else EXIT_MATH


# ---------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genera",
        description="Exact computation of genera, Grothendieck-ring "
                    "classes, and stringy invariants.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", parents=[common],
                       help="genus of a projective space")
    p.add_argument("--series", required=True, choices=catalog.SERIES_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("hrr", parents=[common],
                       help="Euler characteristic of O(d) two ways")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_hrr)

    p = sub.add_parser("ty", parents=[common],
                       help="degree of the modified Todd class")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_ty)

    p = sub.add_parser("k0", parents=[common],
                       help="Grothendieck-ring calculations")
    p.add_argument("action",
                   choices=("eval", "chiy", "euler", "blowup-check", "pro"))
    p.add_argument("arg", help="class expression in L, or a JSON file")
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser("stringy", parents=[common],
                       help="stringy invariants of resolution data")
    p.add_argument("action",
                   choices=("integral", "efun", "chiy", "euler", "compare"))
    p.add_argument("file")
    p.add_argument("file2", nargs="?")
    p.add_argument("--relative", action="store_true",
                   help="keep per-stratum labels instead of pushing to a point")
    p.set_defaults(func=cmd_stringy)

    p = sub.add_parser("jets", parents=[common],
                       help="jet-space oracle for monomial divisors")
    p.add_argument("action", choices=("oracle",))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--exponents", required=True,
                   help="comma-separated nonnegative integers")
    p.add_argument("--pmax", type=int, default=24)
    p.set_defaults(func=cmd_jets)

    p = sub.add_parser("pro", parents=[common],
                       help="proalgebraic tower quotients")
    p.add_argument("file")
    p.set_defaults(func=cmd_pro)

    parser.verbs = sub.choices  # each verb's parser by name, for _parse
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: parsing keeps no
    state in it or in its verb parsers between calls."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """The arguments of one query. The parser of the verb in argv[0] reads
    argv[1:], as the full parser would hand them to it, and prints the
    same help and errors; an argv with no verb first, or with an argument
    left over, goes to the full parser, which prints argparse's usage,
    help and errors for it. Only the full parser sets ``command``, which
    nothing reads."""
    parser = _parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except stringy.ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"error: cannot read {getattr(exc, 'filename', None) or exc}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
