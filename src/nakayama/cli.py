"""Command line interface.

Subcommands, one row each of `COMMANDS`:
    algebra info          kind, Kupisch series, dimension, flags
    indec list            all indecomposable modules
    hom M N               dim Hom(M, N)
    ext M N [--degree i]  dim Ext^i(M, N)
    tau M                 Auslander-Reiten translate
    pd M                  projective dimension
    profile               global dimension and Gorenstein flags
    tilt enumerate        tilting modules (of the Auslander algebra under --n/--kind)
    tilt graph            exchange graph and Hasse diagram as DOT
    sttilt enumerate      support tau-tilting pairs
    auslander build       Auslander algebra of a radical-square-zero algebra
    verify paper          named verification assertions as JSON

Algebras come either from --algebra FILE (JSON: {"kind": ..., "kupisch":
[...]}) or from the --n/--kind shortcut, which builds the connected
radical-square-zero Nakayama algebra; `tilt` verbs then target its
Auslander algebra.  Modules are literals like "M(4,3)", "P(2)", "S(1)".
`main` checks the size limits, resolves the algebra and writes the
handler's output, once for every command.
Exit codes: 0 success, 1 failed verification, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
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

# Size limits, refused up front with USAGE_ERROR: an option limit (--n,
# --max-n) of an exponential verb is checked before any algebra is built,
# an --algebra file of such a verb is limited by its number of simples, and
# every --algebra file by its dimension d (the sum of its Kupisch series).
# Single runs at the limit on a 2-CPU Xeon VM: tilt enumerate --n 14
# --kind cyclic 0.96 s; tilt graph --n 10 --kind cyclic 1.3 s (--kind
# linear 0.6 s); sttilt enumerate --n 14 --kind cyclic (2^14 kill sets,
# 228,486 pairs) 9.2 s, 3.1 s of it enumeration and the rest JSON output;
# verify paper --max-n 12 0.75 s.
# The worst files measured: for tilt, the path algebra linear (1, 2, ...,
# N), with Catalan(N) tilting modules: tilt enumerate N=12 (208,012
# modules) 9.3 s, tilt graph N=8 (1,430 modules) 2.4 s; for sttilt, the
# self-injective cyclic (N, ..., N), with C(2N, N) pairs: N=10 (184,756
# pairs, d = 100) 8.9 s and 501 MB peak RSS.  Every verb scans the d
# modules, and cyclic (N, N+1, ..., N+k-1) has Catalan(k) tilting modules
# too, so the worst files grow slowly with d.  Paired single runs at
# d ~ 10^4 against the small worst files: tilt enumerate on cyclic (827,
# ..., 838) 9.6 s (path 8.9 s); tilt graph on (1246, ..., 1253) 2.8 s
# (path 2.4 s), and exchange_graph on (1247, ..., 1254), d = 10,004,
# 1.7 s; sttilt enumerate on (1000,)*10 9.4 s ((10,)*10 10.6 s).
# tilt graph makes k(k-1) Gen comparisons for k tilting modules, each
# module's profile walked once: cyclic --n 12 (k = 4,096) makes 16.7 M
# (23 s in-process) and the path algebra N=9 (k = 4,862) 23.6 M (30 s),
# well past 10 s, so the two tilt graph limits stay at 10 and 8.
MAX_TILT_ENUMERATE_N = 14
MAX_TILT_GRAPH_N = 10
MAX_TILT_ENUMERATE_SIMPLES = 12
MAX_TILT_GRAPH_SIMPLES = 8
MAX_STTILT_N = 14
MAX_STTILT_SIMPLES = 10
MAX_VERIFY_N = 12
MAX_FILE_DIMENSION = 10_000


def _json_dim(value) -> object:
    return "infinity" if value == math.inf else value


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


def _check_limit(verb: str, what: str, value: int | None, limit: int | None) -> None:
    if value is not None and limit is not None and value > limit:
        raise AlgebraError(f"{verb}: {what} {value} exceeds the limit {limit}")


# Handlers take the resolved algebra (None for verify paper) and the parsed
# arguments, and return a JSON payload or finished text.


def cmd_algebra_info(A: Algebra, args) -> object:
    return {
        **algebra_to_json(A),
        "simples": A.n,
        "dimension": A.dimension(),
        "indecomposables": A.dimension(),
        "radical_square_zero": A.is_radical_square_zero(),
        "self_injective": A.is_selfinjective(),
    }


def cmd_indec_list(A: Algebra, args) -> object:
    mods = A.indecomposables()
    return {"count": len(mods), "modules": mods.literals()}


def cmd_hom(A: Algebra, args) -> object:
    return {"dim": H.hom_dim(A, parse_module(A, args.M), parse_module(A, args.N))}


def cmd_ext(A: Algebra, args) -> object:
    m = parse_module(A, args.M)
    n = parse_module(A, args.N)
    if args.degree < 1:
        raise AlgebraError("--degree must be at least 1")
    return {"dim": H.ext_dim(A, m, n, args.degree)}


def cmd_tau(A: Algebra, args) -> object:
    t = H.tau(A, parse_module(A, args.M))
    return {"tau": None if t is None else str(t)}


def cmd_pd(A: Algebra, args) -> object:
    return {"pd": _json_dim(H.proj_dim(A, parse_module(A, args.M)))}


def cmd_profile(A: Algebra, args) -> object:
    prof = H.gorenstein_profile(A)
    return {
        "gldim": _json_dim(prof.gldim),
        "I0": prof.i0.literals(),
        "I1": prof.i1.literals(),
        "I0_projective": prof.i0_projective,
        "I1_projective": prof.i1_projective,
        "is_1_gorenstein": prof.is_1_gorenstein,
        "is_auslander": prof.is_auslander,
    }


def cmd_tilt_enumerate(A: Algebra, args) -> object:
    tilting = enumerate_tilting(A)
    if args.format == "json":
        return {
            "algebra": algebra_to_json(A),
            "count": len(tilting),
            "tilting": [T.literals() for T in tilting],
        }
    lines = [f"# {len(tilting)} tilting modules over {A}"]
    lines += [str(T) for T in tilting]
    return "\n".join(lines) + "\n"


def cmd_tilt_graph(A: Algebra, args) -> object:
    return exchange_graph_dot(exchange_graph(A))


def cmd_sttilt_enumerate(A: Algebra, args) -> object:
    pairs = enumerate_sttilt(A)
    if args.format == "json":
        return {
            "algebra": algebra_to_json(A),
            "count": len(pairs),
            "pairs": [{"modules": p.modules.literals(), "killed": sorted(p.killed)} for p in pairs],
        }
    lines = [f"# {len(pairs)} support tau-tilting pairs over {A}"]
    for p in pairs:
        killed = ",".join(str(v) for v in sorted(p.killed)) or "-"
        lines.append(f"{p.modules} | killed {killed}")
    return "\n".join(lines) + "\n"


def cmd_auslander_build(A: Algebra, args) -> object:
    res = auslander_algebra(A)
    return {
        "lambda": algebra_to_json(res.lam),
        "gamma": algebra_to_json(res.gamma),
        "dictionary": {str(v): module_literal(m) for v, m in sorted(res.dictionary.items())},
        "projective_injective_vertices": sorted(res.projinj),
    }


def cmd_verify_paper(A: None, args) -> object:
    return paper_report(max_n=args.max_n, with_oracle=args.with_oracle)


COMMAND_GROUPS = {
    "algebra": "algebra-level facts",
    "indec": "indecomposable modules",
    "tilt": "classical tilting modules",
    "sttilt": "support tau-tilting pairs",
    "auslander": "Auslander algebras of rsz algebras",
    "verify": "verification batteries",
}

# One row per command, in help order: words, help, handler, the arguments
# added after --algebra/--n/--kind (verify paper takes none of those) and
# before --output, the limit on --n (--max-n for verify paper) and the
# limit on the number of simples of an --algebra file.
COMMANDS = (
    (("algebra", "info"), "kind, Kupisch series, dimension, flags", cmd_algebra_info,
     (), None, None),
    (("indec", "list"), "list all indecomposables", cmd_indec_list, (), None, None),
    (("hom",), "dim Hom(M, N)", cmd_hom, (("M", {}), ("N", {})), None, None),
    (("ext",), "dim Ext^i(M, N)", cmd_ext,
     (("M", {}), ("N", {}), ("--degree", {"type": int, "default": 1})), None, None),
    (("tau",), "Auslander-Reiten translate of M", cmd_tau, (("M", {}),), None, None),
    (("pd",), "projective dimension of M", cmd_pd, (("M", {}),), None, None),
    (("profile",), "global dimension and Gorenstein flags", cmd_profile, (), None, None),
    (("tilt", "enumerate"), "all tilting modules", cmd_tilt_enumerate,
     (("--format", {"choices": ("json", "text"), "default": "json"}),),
     MAX_TILT_ENUMERATE_N, MAX_TILT_ENUMERATE_SIMPLES),
    (("tilt", "graph"), "exchange graph + Hasse diagram as DOT", cmd_tilt_graph,
     (), MAX_TILT_GRAPH_N, MAX_TILT_GRAPH_SIMPLES),
    (("sttilt", "enumerate"), "all support tau-tilting pairs", cmd_sttilt_enumerate,
     (("--format", {"choices": ("json", "text"), "default": "json"}),),
     MAX_STTILT_N, MAX_STTILT_SIMPLES),
    (("auslander", "build"), "Kupisch model, dictionary, projective-injectives",
     cmd_auslander_build, (), None, None),
    (("verify", "paper"), "named assertions for the headline claims", cmd_verify_paper,
     (("--max-n", {"type": int, "default": 4, "dest": "max_n"}),
      ("--with-oracle", {"action": "store_true", "dest": "with_oracle"})),
     MAX_VERIFY_N, None),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="nakayama",
        description="Tilting combinatorics of Nakayama algebras given by Kupisch series.",
    )
    # Subparser actions by group words; () is the top level.
    parents = {(): parser.add_subparsers(dest="command", required=True)}
    for row in COMMANDS:
        words, help_, _, extra = row[:4]
        group = words[:-1]
        if group not in parents:
            p = parents[()].add_parser(group[0], help=COMMAND_GROUPS[group[0]])
            parents[group] = p.add_subparsers(dest="subcommand", required=True)
        p = parents[group].add_parser(words[-1], help=help_)
        if words != ("verify", "paper"):
            p.add_argument("--algebra", metavar="FILE", help="JSON algebra file")
            p.add_argument("--n", type=int, help="number of simples (radical-square-zero shortcut)")
            p.add_argument("--kind", choices=("linear", "cyclic"), help="orientation for --n")
        for name, kwargs in extra:
            p.add_argument(name, **kwargs)
        p.add_argument("--output", metavar="FILE")
        p.set_defaults(row=row)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    words, _, handler, _, flag_limit, file_limit = args.row
    verb = " ".join(words)
    verify = words == ("verify", "paper")
    try:
        flag, value = ("--max-n", args.max_n) if verify else ("--n", args.n)
        _check_limit(verb, flag, value, flag_limit)
        A = None
        if not verify:
            A = _resolve_algebra(args, auslander=words[0] == "tilt")
            if args.algebra:
                _check_limit(verb, "number of simples", A.n, file_limit)
                _check_limit(verb, "dimension", A.dimension(), MAX_FILE_DIMENSION)
        out = handler(A, args)
        text = out if isinstance(out, str) else json.dumps(out, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 1 if verify and not all(item["passed"] for item in out) else 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
