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
handler's output, once for every command.  A handler returns a JSON
payload, finished text, or an iterator of text chunks; `tilt enumerate`
and `sttilt enumerate` enumerate first and then stream their listings
record by record, in the bytes of one json.dumps of the whole payload, so
a request that fails writes nothing and no copy of the output is held.
Exit codes: 0 success, 1 failed verification, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

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
from .tau_tilting import _sttilt_indices
from .tilting import enumerate_tilting, exchange_graph, exchange_graph_dot
from .verification import paper_report

USAGE_ERROR = 2

# Size limits, refused up front with USAGE_ERROR: an option limit (--n,
# --max-n) of an exponential verb is checked before any algebra is built,
# an --algebra file of such a verb is limited by its number of simples, and
# every algebra by its dimension d (the sum of its Kupisch series): an
# --algebra file once loaded, the --n/--kind shortcut (d = 2n - 1 linear,
# 2n cyclic) before it is built.
# Single runs at the limit on a 2-CPU Xeon VM whose speed drifts by up to
# a factor of two, the enumerating verbs streamed to stdout: tilt
# enumerate --n 14 --kind cyclic 1.0-1.1 s and 27 MiB peak RSS; tilt graph
# --n 10 --kind cyclic 0.5-0.8 s (--kind linear 0.2-0.3 s); sttilt enumerate
# --n 15 --kind cyclic (2^15 kill sets, 168 MB of JSON) 3.4-6.2 s and
# 167 MiB, and --n 14 (228,486 pairs) 1.9-2.8 s and 81 MiB, where holding
# the whole listing took 7.1-9.6 s and 701 MiB; --n 16 took 8.5-10.5 s
# on the faster runs, so the limit is 15; verify paper --max-n 12 0.75 s;
# profile --n 5000 --kind cyclic 0.2 s.
# The worst files measured: for tilt, the path algebra linear (1, 2, ...,
# N), with Catalan(N) tilting modules: tilt enumerate N=12 (208,012
# modules) 5.1-5.6 s and 96 MiB, tilt graph N=8 (1,430 modules) 0.8 s;
# for sttilt, the self-injective cyclic (N, ..., N), with C(2N, N) pairs:
# N=10 (184,756 pairs, d = 100) 3.1-3.3 s and 85 MiB, N=11 (705,432
# pairs) 7.2-7.7 s on the faster runs, and cyclic (909,)*11 (d = 9,999)
# 10.0 s, so the limit stays at 10.  Every verb scans the d modules, and
# cyclic (N, N+1, ..., N+k-1) has Catalan(k) tilting modules too, so the
# worst files grow slowly with d.  At d ~ 10^4: tilt enumerate on cyclic
# (827, ..., 838) 5.2-5.3 s and 98 MiB; tilt graph on (1246, ..., 1253)
# 0.8-1.0 s; sttilt enumerate on (1000,)*10 3.5-3.7 s and 128 MiB.
# tilt graph makes k(k-1) Gen comparisons for k tilting modules, each
# module's profile walked once and packed into one integer, so that a
# comparison is three integer operations (about 0.3 us a call): cyclic
# --n 12 (k = 4,096) makes 16.7 M, 8-11 s in-process with the DOT output,
# and the path algebra N=9 (k = 4,862) 23.6 M, 7.7 s, still near 10 s on
# the same VM, so the two tilt graph limits stay at 10 and 8.
MAX_TILT_ENUMERATE_N = 14
MAX_TILT_GRAPH_N = 10
MAX_TILT_ENUMERATE_SIMPLES = 12
MAX_TILT_GRAPH_SIMPLES = 8
MAX_STTILT_N = 15
MAX_STTILT_SIMPLES = 10
MAX_VERIFY_N = 12
MAX_DIMENSION = 10_000


def _json_dim(value) -> object:
    return "infinity" if value == math.inf else value


# The enumerating verbs stream their output in the bytes of
# json.dumps(payload, indent=2, sort_keys=True) + "\n": each module is
# rendered once per table index, then every record is joined from those.


def _json_items(texts: Iterable[str], depth: int) -> list[str]:
    """Each JSON text as a list item at `depth` spaces, with its leading newline."""
    pad = "\n" + " " * depth
    return [pad + text for text in texts]


def _json_list(items: list[str], depth: int) -> str:
    """A list opened at `depth` spaces, of items rendered by `_json_items(..., depth + 2)`."""
    return "[" + ",".join(items) + "\n" + " " * depth + "]" if items else "[]"


def _json_stream(head: dict, key: str, records: Iterable[str]) -> Iterator[str]:
    """json.dumps({**head, key: [...]}, indent=2, sort_keys=True) + "\n" in
    chunks, for a `key` that sorts after every key of `head`; each record is
    a list item at 4 spaces with its leading newline."""
    sep = json.dumps(head, indent=2, sort_keys=True)[:-2] + f",\n  {json.dumps(key)}: ["
    for record in records:
        yield sep + record
        sep = ","
    yield "\n  ]\n}\n" if sep == "," else sep + "]\n}\n"


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
# arguments, and return a JSON payload (a dict, or the list of verify
# paper), finished text, or an iterator of text chunks.  Everything that
# can raise happens before an iterator is returned: it only renders.


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
    at = A.tables.at
    rows = ([at(m.top, m.length) for m in T] for T in tilting)
    lits = [str(m) for m in A.tables.modules]
    if args.format == "json":
        frags = _json_items(map(json.dumps, lits), 6)
        records = ("\n    " + _json_list([frags[i] for i in idx], 4) for idx in rows)
        return _json_stream({"algebra": algebra_to_json(A), "count": len(tilting)}, "tilting", records)
    header = f"# {len(tilting)} tilting modules over {A}\n"
    return chain((header,), (" ".join([lits[i] for i in idx]) + "\n" for idx in rows))


def cmd_tilt_graph(A: Algebra, args) -> object:
    return exchange_graph_dot(exchange_graph(A))


def cmd_sttilt_enumerate(A: Algebra, args) -> object:
    pairs = _sttilt_indices(A)
    lits = [str(m) for m in A.tables.modules]
    if args.format == "json":
        frags = _json_items(map(json.dumps, lits), 8)
        killed_as = functools.cache(lambda k: _json_list(_json_items(map(str, sorted(k)), 8), 6))
        records = (
            '\n    {\n      "killed": ' + killed_as(killed)
            + ',\n      "modules": ' + _json_list([frags[i] for i in idx], 6) + "\n    }"
            for idx, killed in pairs
        )
        return _json_stream({"algebra": algebra_to_json(A), "count": len(pairs)}, "pairs", records)
    killed_as = functools.cache(lambda k: ",".join(map(str, sorted(k))) or "-")
    header = f"# {len(pairs)} support tau-tilting pairs over {A}\n"
    return chain(
        (header,),
        ((" ".join([lits[i] for i in idx]) or "0") + " | killed " + killed_as(killed) + "\n" for idx, killed in pairs),
    )


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
            if args.n is not None and args.kind and not args.algebra:
                _check_limit(verb, "dimension", 2 * args.n - (args.kind == "linear"), MAX_DIMENSION)
            A = _resolve_algebra(args, auslander=words[0] == "tilt")
            if args.algebra:
                _check_limit(verb, "number of simples", A.n, file_limit)
                _check_limit(verb, "dimension", A.dimension(), MAX_DIMENSION)
        out = handler(A, args)
        if isinstance(out, str):
            chunks = (out,)
        elif isinstance(out, Iterator):
            chunks = out
        else:
            chunks = (json.dumps(out, indent=2, sort_keys=True) + "\n",)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 1 if verify and not all(item["passed"] for item in out) else 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
