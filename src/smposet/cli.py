"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse or validation failure,
3 cap exceeded. Diagnostics go to stderr, data to stdout.
"""
from __future__ import annotations

import argparse
import functools
import gc
import random
import sys
from pathlib import Path

from . import _text
from .errors import CapExceededError, ParseError, ValidationError
from .instance import (
    Instance,
    Matching,
    compute_range,
    format_instance,
    parse_instance,
)
from .posets import Dag, check_realization, parse_dag
from .pathdecomp import _separation, format_decomposition, parse_decomposition
from .downsets import count_downsets
from .fairness import (
    _optimize,
    _prepare,
    count_stable_matchings,
    median_and_count,
    sample_stable_matchings,
)
from .realize import (
    realize_attr6,
    realize_bounded3,
    realize_complete,
    realize_list2inf,
    realize_range,
    construct_instance,
)
from .oracles import (
    all_stable_matchings_bruteforce,
    enumerate_downsets_bruteforce,
    pathwidth_exact_tiny,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _print_matching(inst: Instance, mu: Matching, out) -> None:
    for m, w in mu.sorted_pairs():
        print(f"{inst.men_labels[m]} {inst.women_labels[w]}", file=out)


def _load_coloring(path: str, g: Dag) -> dict[tuple[int, int], int]:
    """Edge colors from a file of ``u v c`` lines, exactly one for each edge
    of g.
    """
    colors = {}
    for line in _text.lines(_read(path)):
        if not line:
            continue
        try:
            u, v, c = map(int, line.split())  # a count other than 3 also raises
        except ValueError:
            raise ParseError(f"bad coloring line: {line!r}") from None
        if (u, v) not in g.edges:
            raise ParseError(f"coloring line for a non-edge: {line!r}")
        if (u, v) in colors:
            raise ParseError(f"duplicate coloring line for edge {(u, v)}")
        colors[(u, v)] = c
    for e in g.edges:
        if e not in colors:
            raise ParseError(f"coloring file misses edge {e}")
    return colors


def _cmd_realize(args) -> int:
    g = parse_dag(_read(args.poset))
    sidecars: list[tuple[str, str]] = []
    if args.model == "generic":
        colors = _load_coloring(args.coloring, g) if args.coloring else None
        inst = construct_instance(g, colors=colors)
    elif args.model == "complete":
        inst = realize_complete(g)
    elif args.model == "bounded3":
        inst = realize_bounded3(g)
    elif args.model == "attr6":
        res = realize_attr6(g)
        inst = res.instance
        lines = []
        for label, prof in zip(
            list(inst.men_labels) + list(inst.women_labels),
            list(res.men_profiles) + list(res.women_profiles),
        ):
            pts = " ".join(f"{x.numerator}/{x.denominator}" for x in prof.point)
            ws = " ".join(
                f"{x.numerator}/{x.denominator}"
                for x in list(prof.weights) + [prof.constant]
            )
            lines.append(f"point {label}: {pts}")
            lines.append(f"weights {label}: {ws}")
        sidecars.append((".profiles", "\n".join(lines) + "\n"))
    elif args.model == "list2inf":
        res = realize_list2inf(g, master_side=args.master_side or "m")
        inst = res.instance
        # the masters rank the other side; the master side's agents own the groups
        if res.master_side == "m":
            listed, owners, groups = inst.women_labels, inst.men_labels, res.man_group
        else:
            listed, owners, groups = inst.men_labels, inst.women_labels, res.woman_group
        lines = [
            f"{name}: " + " ".join(listed[i] for i in master)
            for name, master in (("LM1", res.lm1), ("LM2", res.lm2))
        ]
        lines += [f"group {owners[i]}: {groups[i]}" for i in sorted(groups)]
        sidecars.append((".masters", "\n".join(lines) + "\n"))
    elif args.model == "range":
        if not args.decomp:
            raise ValidationError("--model range requires --decomp")
        inst = realize_range(g, parse_decomposition(_read(args.decomp)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown model {args.model}")
    _write(args.output, format_instance(inst))
    for suffix, text in sidecars:
        _write(args.output + suffix, text)
    return 0


def _cmd_analyze(args) -> int:
    inst = parse_instance(_read(args.instance))
    dg, g, order = _prepare(inst)
    print(f"men {inst.n_men} women {inst.n_women} complete {'yes' if inst.is_complete else 'no'}")
    print(f"rotations {len(dg.rotations)}")
    for rho in dg.rotations:
        cycle = "".join(
            f"({inst.men_labels[m]},{inst.women_labels[w]})" for m, w in rho.pairs
        )
        print(f"rho{rho.id + 1}: {cycle}")
    print(f"edges {len(dg.edges)}")
    for (a, b), rules in sorted(dg.edges.items()):
        tag = "".join(str(r) for r in sorted(rules))
        print(f"rho{a + 1} -> rho{b + 1} rule={tag}")
    if inst.is_complete:
        profile = compute_range(inst)
        print(f"range {profile.k}")
        labels = inst.men_labels + inst.women_labels
        for label, r in zip(labels, profile.orank_men + profile.orank_women):
            print(f"minrank {label}: {r}")
    else:
        print("range n/a (incomplete instance)")
    # the order's vertex separation is its cut's width; 2r counts inserts and forgets
    print(f"decomposition width {_separation(g, order)} bags {2 * len(order)}")
    if args.dot:
        _write(args.dot, dg.to_dot(inst))
    return 0


def _count_dag(dag_path: str, decomp_path: str) -> int:
    g = parse_dag(_read(dag_path))
    x = parse_decomposition(_read(decomp_path))
    try:
        return count_downsets(g, x)
    except ValidationError:
        raise ValidationError("decomposition is not valid for the DAG") from None


def _cmd_count(args) -> int:
    if args.dag:
        if not args.decomp:
            raise ValidationError("count --dag requires --decomp")
        # The readers and the DP build only acyclic containers, which
        # refcounting frees, so the cyclic collector would only rescan them:
        # on 1e5 vertices that is about a tenth of the op. It is paused from
        # the first read until the DAG and its bags are freed, and the
        # caller's state is restored.
        enabled = gc.isenabled()
        gc.disable()
        try:
            total = _count_dag(args.dag, args.decomp)
        finally:
            if enabled:
                gc.enable()
        print(total)
        return 0
    if not args.instance:
        raise ValidationError("count needs --instance or --dag")
    paths = args.instance
    texts = [_read(p) for p in paths]  # every path readable before any output
    for path, text in zip(paths, texts):
        total = count_stable_matchings(parse_instance(text))
        print(total if len(paths) == 1 else f"{path}: {total}")
    return 0


def _cmd_sample(args) -> int:
    inst = parse_instance(_read(args.instance))
    rng = random.Random(args.seed)
    for i, mu in enumerate(sample_stable_matchings(inst, rng, args.draws)):
        if i:
            print()
        _print_matching(inst, mu, sys.stdout)
    return 0


def _cmd_median(args) -> int:
    inst = parse_instance(_read(args.instance))
    mu, total = median_and_count(inst, upper=args.upper)
    _print_matching(inst, mu, sys.stdout)
    print(f"N {total}")
    return 0


def _cmd_fair(args) -> int:
    inst = parse_instance(_read(args.instance))
    mu, scores = _optimize(inst, "delta" if args.objective == "sexequal" else "beta")
    _print_matching(inst, mu, sys.stdout)
    print(f"SM {scores.s_men}")
    print(f"SW {scores.s_women}")
    print(f"delta {scores.delta}")
    print(f"beta {scores.beta}")
    return 0


def _cmd_verify(args) -> int:
    g = parse_dag(_read(args.poset))
    inst = parse_instance(_read(args.instance))
    if check_realization(g, inst):
        print("ok")
        return 0
    print("mismatch", file=sys.stderr)
    return 2


def _cmd_oracle(args) -> int:
    if args.oracle_cmd == "count":
        if args.dag:
            g = parse_dag(_read(args.dag))
            print(len(enumerate_downsets_bruteforce(g)))
        elif args.instance:
            inst = parse_instance(_read(args.instance))
            print(len(all_stable_matchings_bruteforce(inst)))
        else:
            raise ValidationError("oracle count needs --instance or --dag")
    elif args.oracle_cmd == "matchings":
        inst = parse_instance(_read(args.instance))
        for i, mu in enumerate(all_stable_matchings_bruteforce(inst)):
            if i:
                print()
            _print_matching(inst, mu, sys.stdout)
    elif args.oracle_cmd == "pathwidth":
        g = parse_dag(_read(args.dag))
        width, x = pathwidth_exact_tiny(g)
        print(width)
        if args.output:
            _write(args.output, format_decomposition(x))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and kept for the
    process: a caller that runs many commands builds it once. Sharing it is
    safe because `parse_args` returns a new namespace and leaves the parser
    as it was."""
    parser = _Parser(prog="smposet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="construct an instance realizing a poset")
    p.add_argument("--model", required=True,
                   choices=["generic", "complete", "bounded3", "attr6", "list2inf", "range"])
    p.add_argument("--poset", required=True)
    p.add_argument("--decomp")
    p.add_argument("--coloring")
    p.add_argument("--master-side", choices=["m", "w"])
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_realize, parser=p)

    p = sub.add_parser("analyze", help="rotations, digraph, range, decomposition width")
    p.add_argument("--instance", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("count", help="count stable matchings or downsets")
    inputs = p.add_mutually_exclusive_group()
    inputs.add_argument("--instance", nargs="+")
    inputs.add_argument("--dag")
    p.add_argument("--decomp")
    p.set_defaults(func=_cmd_count, parser=p)

    p = sub.add_parser("sample", help="uniform stable matchings")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--draws", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("median", help="median stable matching")
    p.add_argument("--instance", required=True)
    p.add_argument("--upper", action="store_true")
    p.set_defaults(func=_cmd_median)

    p = sub.add_parser("fair", help="sex-equal or balanced stable matching")
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", required=True, choices=["sexequal", "balanced"])
    p.set_defaults(func=_cmd_fair)

    p = sub.add_parser("verify", help="check an instance realizes a poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force counterparts for CI comparison")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    oc = osub.add_parser("count")
    inputs = oc.add_mutually_exclusive_group()
    inputs.add_argument("--instance")
    inputs.add_argument("--dag")
    om = osub.add_parser("matchings")
    om.add_argument("--instance", required=True)
    op = osub.add_parser("pathwidth")
    op.add_argument("--dag", required=True)
    op.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_oracle)

    return parser


def _refuse_unread_options(args) -> None:
    """A usage error, as argparse gives, for an option that the chosen input
    or model would not read."""
    if args.command == "count" and args.instance and args.decomp is not None:
        args.parser.error("argument --decomp: not allowed with argument --instance")
    if args.command == "realize":
        for flag, given, model in (
            ("--decomp", args.decomp, "range"),
            ("--coloring", args.coloring, "generic"),
            ("--master-side", args.master_side, "list2inf"),
        ):
            if given is not None and args.model != model:
                args.parser.error(f"argument {flag}: not allowed with --model {args.model}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _refuse_unread_options(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
