"""Command-line front end.

Subcommands mirror the library layers: validate an instance's trees,
embed a zero-dimensional catalog space, run witness maps, re-metrize, encode
metric codes, and run the verification suite.  Reports are deterministic
given (instance, flags, seed): numeric output is exact-rational text, check
lines are canonically ordered, and reruns are byte-identical.

Exit codes: 0 success, 1 verification or validation failure or an exhausted
search, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .baire import eventually_periodic
from .codes import (MalformedCode, MetricAxiomViolation, RationalMetricTable, entry_lines,
                    render_code_file)
from .dsl import ParseError
from .instances import (DEFAULT_BOUNDS, InstanceFile, UnknownCatalogName, build_instance,
                        builtin_instance, load_json, merge_bounds, parse_instance,
                        point_from_descriptor)
from .luzin import (CellSearchExhausted, LuzinScheme, baire_closed_presentation,
                    cantor_presentation, discrete_presentation)
from .remetrize import certified_ball_list, epsilon_code
from .trees import InsufficientDensePoints, TreeError, ValidationCapExceeded
from .verify import (CheckResult, check_extension_certificates, check_tree_valid,
                     run_instance_suite)
from .witness import MATRIX_CATALOG, UseBoundViolation, WitnessClosure, WitnessSearchExhausted

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _bounds(args, bounds: dict[str, int]) -> dict[str, int]:
    """The bounds with the explicit --depth, --budget and --witness-bound applied."""
    overrides = {key: getattr(args, key) for key in ("depth", "budget", "witness_bound")
                 if getattr(args, key, None) is not None}
    return merge_bounds(bounds, overrides)


def _read_instance(args) -> InstanceFile:
    """The instance --instance names, under its own bounds."""
    if args.instance is None:
        raise UnknownCatalogName("<missing --instance>")
    path = Path(args.instance)
    if path.exists():
        return parse_instance(path.read_text(encoding="utf-8"))
    return builtin_instance(args.instance)


def _load_instance(args) -> InstanceFile:
    """The instance --instance names, under its bounds with the explicit flags applied."""
    inst = _read_instance(args)
    inst.bounds = _bounds(args, inst.bounds)
    return inst


def _write(args, text: str):
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(args, lines: list[str]):
    _write(args, "\n".join(lines) + "\n")


def _report(args, results: list[CheckResult], header: list[str]) -> int:
    failures = [r for r in results if not r.passed]
    if args.format == "full-report":
        doc = {
            "report": "clopen/1",
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "failures": [r.name for r in failures],
        }
        _emit(args, [json.dumps(doc, sort_keys=True, indent=2)])
    else:
        lines = list(header) + [r.line() for r in results]
        if failures:
            lines.append("failures " + json.dumps([r.name for r in failures]))
        _emit(args, lines)
    return EXIT_FAILURE if failures else EXIT_OK


def _build_or_report(args, inst):
    """Build an instance; on a tree or matrix contract violation emit a failing report."""
    try:
        return build_instance(inst), None
    except (TreeError, UseBoundViolation) as exc:
        failure = CheckResult("tree-valid", False, f"{type(exc).__name__}: {exc}")
        return None, _report(args, [failure], [f"instance {inst.id}"])


def cmd_validate(args) -> int:
    inst = _load_instance(args)
    built, failed = _build_or_report(args, inst)
    if built is None:
        return failed
    depth = inst.bounds["depth"]
    lines = [f"instance {inst.id}", f"depth {depth}"]
    sp = built.sum_space
    if sp is None:
        return _report(args, [], lines + [f"degenerate {built.degenerate}"])
    results = [check_tree_valid(rep.fam.tree, depth, name=f"tree-valid:{side}")
               for side, rep in (("a", sp.part_a), ("c", sp.part_c))]
    return _report(args, results, lines)


def cmd_embed(args) -> int:
    # --depth is only the printed prefix length: the ambient tree is validated
    # at the file's own depth, since the embedding reads past it on demand
    inst = _read_instance(args) if args.space == "baire-closed" else None
    bounds = _bounds(args, inst.bounds if inst is not None else DEFAULT_BOUNDS)
    depth, bound = bounds["depth"], bounds["witness_bound"]
    if args.space == "cantor":
        pres = cantor_presentation(witness_bound=bound)
    elif args.space.startswith("discrete:"):
        size = args.space.split(":", 1)[1]
        if not size.isdecimal() or int(size) < 1:
            raise ParseError(0, 0, f"discrete:<n> needs a positive integer n, not {size!r}")
        pres = discrete_presentation(int(size))
    elif inst is not None:
        pres = baire_closed_presentation(build_instance(inst).ambient_fam, witness_bound=bound)
    else:
        raise UnknownCatalogName(args.space, kind="embedding space")
    scheme = LuzinScheme(pres)
    lines = [f"space {pres.name}", f"depth {depth}"]
    for i in range(args.count):
        image = scheme.embed(pres.dense_point(i))
        prefix = " ".join(str(image(n)) for n in range(depth))
        lines.append(f"embed {i} -> {prefix}")
    _emit(args, lines)
    return EXIT_OK


def cmd_witness(args) -> int:
    factory = MATRIX_CATALOG.get(args.matrix)
    if factory is None:
        raise UnknownCatalogName(args.matrix, kind="matrix")
    closure = WitnessClosure(factory())
    if args.point:
        point = point_from_descriptor(load_json(args.point, "--point: "))
    else:
        point = eventually_periodic(args.preperiod, args.period or [0])
    depth = _bounds(args, DEFAULT_BOUNDS)["depth"]
    beta = closure.witness_point(point)
    values = " ".join(str(beta(n)) for n in range(depth))
    lines = [
        f"matrix {args.matrix}",
        f"witness {values}",
        f"modulus {closure.continuity_modulus(point, depth)}",
    ]
    _emit(args, lines)
    return EXIT_OK


def cmd_remetrize(args) -> int:
    inst = _load_instance(args)
    built = build_instance(inst)
    lines = ["format remetrize/1", f"instance {inst.id}"]
    if built.sum_space is None:
        lines.append(f"degenerate {built.degenerate}")
        lines.append("presentation ambient (unchanged)")
        _emit(args, lines)
        return EXIT_OK
    table = built.table()
    k = min(table.K, 24)
    lines.append(f"K {k}")
    lines += entry_lines(table, k)
    eps = epsilon_code(built.sum_space)
    bits = "".join(str(eps(t)) for t in range(args.epsilon_prefix))
    lines.append(f"epsilon {bits}")
    if built.sum_space.certifiable:
        cap = built.file.bounds["enumeration_cap"]
        certified = certified_ball_list(built.sum_space, 3, cap)
        result = check_extension_certificates(built.sum_space, cap, certified)
        lines.append(f"certificates {len(certified)} {'ok' if result.passed else 'FAIL'}")
        if not result.passed:
            lines.append(f"certificate-failure {result.detail}")
            _emit(args, lines)
            return EXIT_FAILURE
    _emit(args, lines)
    return EXIT_OK


def cmd_encode(args) -> int:
    inst = _load_instance(args)
    built = build_instance(inst)
    if built.sum_space is None:
        # the ambient stands unchanged: a code file with no entries, whose tail says why
        table = RationalMetricTable(dist=_no_entry, K=0,
                                    tail_rule=f"degenerate:{built.degenerate}", label=inst.id)
        _write(args, render_code_file(table, inst.id))
        return EXIT_OK
    _write(args, render_code_file(built.table(), inst.id))
    return EXIT_OK


def _no_entry(i: int, j: int) -> Fraction:
    raise MalformedCode(f"a degenerate instance's code has no entry ({i},{j})")


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    built, failed = _build_or_report(args, inst)
    if built is None:
        return failed
    results = run_instance_suite(built, axiom_count=args.axiom_count, seed=args.seed)
    return _report(args, results, [f"instance {inst.id}", f"seed {args.seed}"])


def _int_at_least(least: int, what: str):
    """An argparse type: an integer >= least, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
        return value
    return parse


# counts are positive, like the bounds in merge_bounds; point entries are naturals
_POSITIVE = _int_at_least(1, "a positive integer")
_NATURAL = _int_at_least(0, "a natural number")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse objects form reference cycles,
    so a parser per call would leave them to the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="clopen",
        description="finite-scale re-metrization: trees, embeddings, witnesses, codes")
    sub = parser.add_subparsers(dest="command", required=True)

    depth = DEFAULT_BOUNDS["depth"]
    # the shared flags; each subcommand takes only those it reads
    shared = {
        "instance": dict(help="instance file path or catalog name"),
        "budget": dict(type=int, default=None,
                       help=f"scan budget (default {DEFAULT_BOUNDS['budget']} or the instance's)"),
        "witness-bound": dict(dest="witness_bound", type=int, default=None,
                              help="dense-witness scan ceiling (default "
                                   f"{DEFAULT_BOUNDS['witness_bound']} or the instance's)"),
        "seed": dict(type=int, default=0),
        "out": dict(help="write the report to a file instead of stdout"),
        "format": dict(choices=("table", "full-report"), default="table"),
    }

    def command(name, fn, help_text, depth_help, *flags):
        """A subcommand with --depth (each reads it its own way) and the flags."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--depth", type=int, default=None, help=depth_help)
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.set_defaults(fn=fn)
        return p

    tree_depth = f"tree validation depth (default {depth} or the instance's)"
    command("validate", cmd_validate, "validate an instance's trees", tree_depth,
            "instance", "out", "format")

    p_embed = command("embed", cmd_embed, "embed a zero-dimensional catalog space",
                      f"length of each printed embedding prefix (default {depth}, or the "
                      "instance's with baire-closed)", "instance", "witness-bound", "out")
    p_embed.add_argument("--space", default="cantor",
                         help="cantor, discrete:<n>, or baire-closed "
                              "(over --instance's ambient tree)")
    p_embed.add_argument("--count", type=_POSITIVE, default=8,
                         help="how many dense points to embed")

    p_witness = command("witness", cmd_witness, "run a least-witness map",
                        f"witness values printed and the modulus depth (default {depth})", "out")
    p_witness.add_argument("--matrix", default="diagonal")
    p_witness.add_argument("--preperiod", type=_NATURAL, nargs="*", default=[])
    p_witness.add_argument("--period", type=_NATURAL, nargs="*", default=[0])
    p_witness.add_argument("--point", help="JSON point descriptor: "
                           '{"pre": [...], "period": [...]} or {"rule": "expr in n"}')

    p_remetrize = command("remetrize", cmd_remetrize, "print the summed space's table",
                          tree_depth, "instance", "out")
    p_remetrize.add_argument("--epsilon-prefix", dest="epsilon_prefix",
                             type=_POSITIVE, default=64)

    command("encode", cmd_encode, "emit the instance's metric code file", tree_depth,
            "instance", "out")

    p_verify = command("verify", cmd_verify, "run the instance verification suite",
                       f"tree validation and check depth (default {depth} or the instance's)",
                       "instance", "budget", "seed", "out", "format")
    p_verify.add_argument("--axiom-count", dest="axiom_count", type=_POSITIVE, default=60)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    # OSError and UnicodeDecodeError: an unreadable --instance or unwritable --out path;
    # ValidationCapExceeded: a --depth or bounds.depth too deep to validate
    except (ParseError, UnknownCatalogName, ValidationCapExceeded, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TreeError, UseBoundViolation) as exc:  # the instance breaks its own contract
        print(f"validation failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MetricAxiomViolation as exc:  # a table the axiom check rejects
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (CellSearchExhausted, WitnessSearchExhausted, InsufficientDensePoints) as exc:
        print(f"search exhausted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
