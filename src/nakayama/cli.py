"""Command line interface.

Subcommands:
    algebra info          basic facts about an algebra
    indec list            all indecomposable modules
    hom M N               dim Hom(M, N)
    ext M N [--degree i]  dim Ext^i(M, N)
    tau M                 Auslander-Reiten translate
    pd M                  projective dimension
    profile               global dimension and Gorenstein flags
    tilt enumerate        tilting modules (of the Auslander algebra under --n/--kind)
    tilt graph            exchange graph as DOT
    sttilt enumerate      support tau-tilting pairs
    auslander build       Auslander algebra of a radical-square-zero algebra
    verify paper          named verification assertions as JSON

Algebras come either from --algebra FILE (JSON: {"kind": ..., "kupisch":
[...]}) or from the --n/--kind shortcut, which builds the connected
radical-square-zero Nakayama algebra; `tilt` verbs then target its
Auslander algebra.  Modules are literals like "M(4,3)", "P(2)", "S(1)".
Exit codes: 0 success, 1 failed verification, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .algebra import (
    Algebra,
    AlgebraError,
    algebra_to_json,
    load_algebra,
    make_rsz_nakayama,
    module_literal,
    parse_module,
)
from . import homology as H
from .auslander import auslander_algebra
from .tau_tilting import enumerate_sttilt
from .tilting import enumerate_tilting, exchange_graph, exchange_graph_dot
from .verification import paper_report

USAGE_ERROR = 2

# Size limits of the exponential verbs, refused up front with USAGE_ERROR.
# Single runs at the limit on a 2-CPU Xeon VM: tilt enumerate --n 14
# --kind cyclic 4.7 s; tilt graph --n 10 --kind cyclic 12 s; sttilt
# enumerate --n 14 --kind cyclic (2^14 kill sets, 228,486 pairs) 7.0 s,
# 2.9 s of it enumeration and the rest JSON output; verify paper --max-n
# 12 8.1 s.
MAX_TILT_ENUMERATE_N = 14
MAX_TILT_GRAPH_N = 10
MAX_STTILT_SIMPLES = 14
MAX_VERIFY_N = 12


def _json_dim(value) -> object:
    return "infinity" if value == math.inf else value


def _add_algebra_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", metavar="FILE", help="JSON algebra file")
    p.add_argument("--n", type=int, help="number of simples (radical-square-zero shortcut)")
    p.add_argument("--kind", choices=("linear", "cyclic"), help="orientation for --n")


def _resolve_algebra(args, auslander: bool = False) -> Algebra:
    """Algebra from --algebra or --n/--kind; tilt verbs target the Auslander algebra."""
    if args.algebra and (args.n is not None or args.kind):
        raise AlgebraError("give either --algebra or --n/--kind, not both")
    if args.algebra:
        return load_algebra(args.algebra)
    if args.n is None or args.kind is None:
        raise AlgebraError("need --algebra FILE or both --n and --kind")
    lam = make_rsz_nakayama(args.n, args.kind)
    if auslander:
        return auslander_algebra(lam).gamma
    return lam


def _check_limit(verb: str, what: str, value: int | None, limit: int) -> None:
    if value is not None and value > limit:
        raise AlgebraError(f"{verb}: {what} {value} exceeds the limit {limit}")


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(args, payload: object) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_algebra_info(args) -> int:
    A = _resolve_algebra(args)
    payload = {
        **algebra_to_json(A),
        "simples": A.n,
        "dimension": A.dimension(),
        "indecomposables": A.dimension(),
        "radical_square_zero": A.is_radical_square_zero(),
        "self_injective": A.is_selfinjective(),
    }
    _dump(args, payload)
    return 0


def cmd_indec_list(args) -> int:
    A = _resolve_algebra(args)
    mods = A.indecomposables()
    _dump(args, {"count": len(mods), "modules": mods.literals()})
    return 0


def cmd_hom(args) -> int:
    A = _resolve_algebra(args)
    m = parse_module(A, args.M)
    n = parse_module(A, args.N)
    _dump(args, {"dim": H.hom_dim(A, m, n)})
    return 0


def cmd_ext(args) -> int:
    A = _resolve_algebra(args)
    m = parse_module(A, args.M)
    n = parse_module(A, args.N)
    if args.degree < 1:
        raise AlgebraError("--degree must be at least 1")
    _dump(args, {"dim": H.ext_dim(A, m, n, args.degree)})
    return 0


def cmd_tau(args) -> int:
    A = _resolve_algebra(args)
    m = parse_module(A, args.M)
    t = H.tau(A, m)
    _dump(args, {"tau": None if t is None else str(t)})
    return 0


def cmd_pd(args) -> int:
    A = _resolve_algebra(args)
    m = parse_module(A, args.M)
    _dump(args, {"pd": _json_dim(H.proj_dim(A, m))})
    return 0


def cmd_profile(args) -> int:
    A = _resolve_algebra(args)
    prof = H.gorenstein_profile(A)
    _dump(
        args,
        {
            "gldim": _json_dim(prof.gldim),
            "I0": prof.i0.literals(),
            "I1": prof.i1.literals(),
            "I0_projective": prof.i0_projective,
            "I1_projective": prof.i1_projective,
            "is_1_gorenstein": prof.is_1_gorenstein,
            "is_auslander": prof.is_auslander,
        },
    )
    return 0


def cmd_tilt_enumerate(args) -> int:
    _check_limit("tilt enumerate", "--n", args.n, MAX_TILT_ENUMERATE_N)
    A = _resolve_algebra(args, auslander=True)
    records = enumerate_tilting(A)
    if args.format == "json":
        _dump(
            args,
            {
                "algebra": algebra_to_json(A),
                "count": len(records),
                "tilting": [rec.modules.literals() for rec in records],
            },
        )
    else:
        lines = [f"# {len(records)} tilting modules over {A}"]
        lines += [str(rec.modules) for rec in records]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_tilt_graph(args) -> int:
    _check_limit("tilt graph", "--n", args.n, MAX_TILT_GRAPH_N)
    A = _resolve_algebra(args, auslander=True)
    graph = exchange_graph(A)
    _emit(args, exchange_graph_dot(graph))
    return 0


def cmd_sttilt_enumerate(args) -> int:
    A = _resolve_algebra(args)
    _check_limit("sttilt enumerate", "number of simples", A.n, MAX_STTILT_SIMPLES)
    pairs = enumerate_sttilt(A)
    if args.format == "json":
        _dump(
            args,
            {
                "algebra": algebra_to_json(A),
                "count": len(pairs),
                "pairs": [
                    {"modules": p.modules.literals(), "killed": sorted(p.killed)}
                    for p in pairs
                ],
            },
        )
    else:
        lines = [f"# {len(pairs)} support tau-tilting pairs over {A}"]
        for p in pairs:
            killed = ",".join(str(v) for v in sorted(p.killed)) or "-"
            lines.append(f"{p.modules} | killed {killed}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_auslander_build(args) -> int:
    A = _resolve_algebra(args)
    res = auslander_algebra(A)
    _dump(
        args,
        {
            "lambda": algebra_to_json(res.lam),
            "gamma": algebra_to_json(res.gamma),
            "dictionary": {str(v): module_literal(m) for v, m in sorted(res.dictionary.items())},
            "projective_injective_vertices": sorted(res.projinj),
        },
    )
    return 0


def cmd_verify_paper(args) -> int:
    _check_limit("verify paper", "--max-n", args.max_n, MAX_VERIFY_N)
    report = paper_report(max_n=args.max_n, with_oracle=args.with_oracle)
    _dump(args, report)
    return 0 if all(item["passed"] for item in report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakayama",
        description="Tilting combinatorics of Nakayama algebras given by Kupisch series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="algebra-level facts")
    algebra_sub = p_algebra.add_subparsers(dest="subcommand", required=True)
    p = algebra_sub.add_parser("info", help="kind, Kupisch series, dimension, flags")
    _add_algebra_args(p)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_algebra_info)

    p_indec = sub.add_parser("indec", help="indecomposable modules")
    indec_sub = p_indec.add_subparsers(dest="subcommand", required=True)
    p = indec_sub.add_parser("list", help="list all indecomposables")
    _add_algebra_args(p)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_indec_list)

    p = sub.add_parser("hom", help="dim Hom(M, N)")
    _add_algebra_args(p)
    p.add_argument("M")
    p.add_argument("N")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("ext", help="dim Ext^i(M, N)")
    _add_algebra_args(p)
    p.add_argument("M")
    p.add_argument("N")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("tau", help="Auslander-Reiten translate of M")
    _add_algebra_args(p)
    p.add_argument("M")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("pd", help="projective dimension of M")
    _add_algebra_args(p)
    p.add_argument("M")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("profile", help="global dimension and Gorenstein flags")
    _add_algebra_args(p)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_profile)

    p_tilt = sub.add_parser("tilt", help="classical tilting modules")
    tilt_sub = p_tilt.add_subparsers(dest="subcommand", required=True)
    p = tilt_sub.add_parser("enumerate", help="all tilting modules")
    _add_algebra_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_tilt_enumerate)
    p = tilt_sub.add_parser("graph", help="exchange graph + Hasse diagram as DOT")
    _add_algebra_args(p)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_tilt_graph)

    p_sttilt = sub.add_parser("sttilt", help="support tau-tilting pairs")
    sttilt_sub = p_sttilt.add_subparsers(dest="subcommand", required=True)
    p = sttilt_sub.add_parser("enumerate", help="all support tau-tilting pairs")
    _add_algebra_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_sttilt_enumerate)

    p_aus = sub.add_parser("auslander", help="Auslander algebras of rsz algebras")
    aus_sub = p_aus.add_subparsers(dest="subcommand", required=True)
    p = aus_sub.add_parser("build", help="Kupisch model, dictionary, projective-injectives")
    _add_algebra_args(p)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_auslander_build)

    p_verify = sub.add_parser("verify", help="verification batteries")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("paper", help="named assertions for the headline claims")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
