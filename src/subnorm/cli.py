"""Command-line front end.

Exit codes are uniform across subcommands: 0 the property/query holds
(or the command simply succeeded), 1 it fails or a counterexample was
found, 2 the input or usage was bad.  ``--format json`` prints exactly
the same verdict as the default text rendering.

Input formats
-------------
Algebra JSON: ``{"elements": ["0","a","a'","1"], "leq": [[...0/1...]]}``
or ``{"hasse": [[i, j], ...]}`` (reflexive-transitive closure applied),
optionally with ``"neg": [...]``; indices refer to positions in
``elements``.

Subordination JSON: ``{"algebra": <algebra JSON or file path>,
"prec": [[i, j], ...]}``.

Terms: atoms ``[a-z][a-z0-9]*``, constants ``T F``, parentheses;
prefix ``~ <> []`` bind tightest and stack, then ``&``, then ``|``, then
``->`` (associating right, ``a -> b`` is ``~a | b``).  A term or
parenthesis nesting deeper than 100 is an input error.

Norm files: one ``body |~ head`` per line, ``#`` starts a comment,
blank lines ignored.  Norm formulas (and ``--query``, ``--gamma``,
``--head``) are the terms without ``<> []``.  A parse error gives the
position of the offending text in the line or option value as typed.

Modal inequalities (``--ineq``): two terms without ``->``, separated by
exactly one ``<=``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Optional

from . import iologic, slanted
from .completion import dm_completion
from .duality import (
    RelCondition,
    build_space_jirr,
    build_space_primefilters,
    check_relational,
)
from .errors import InputFormatError, SubnormError
from .order import lattice_to_json, load_json, poset_from_json
from .harness import (
    GenConfig,
    exit_code_for,
    replay_counterexample,
    run_suite,
)
from .subordination import (
    Property,
    ProtoSubAlg,
    check_property,
    classify,
    close,
    close_i,
    subalg_from_json,
    subalg_to_json,
)
from .syntax import parse_formula, parse_inequality


def _load_subalg(args) -> ProtoSubAlg:
    if args.input:
        obj = load_json(args.input)
        return subalg_from_json(obj, base_dir=os.path.dirname(os.path.abspath(args.input)))
    if not args.algebra:
        raise SubnormError("need --input or --algebra (+ --prec)")
    alg_obj = load_json(args.algebra)
    pairs = []
    if args.prec:
        pairs = load_json(args.prec)
        if isinstance(pairs, dict):
            pairs = pairs.get("prec", [])
    return subalg_from_json({"algebra": alg_obj, "prec": pairs})


def _load_norms(path: str) -> iologic.NormativeSystem:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return iologic.NormativeSystem.parse(text)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _comma_list(text: str, noun: str) -> list[str]:
    """The nonempty items of a comma-separated option value, stripped; a
    value that names nothing is an input error."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise InputFormatError(f"no {noun} selected in {text!r}")
    return items


def _parse_props(text: str) -> list[Property]:
    out = []
    for part in _comma_list(text, "property names"):
        name = part.upper()
        try:
            out.append(Property[name])
        except KeyError:
            raise SubnormError(f"unknown property {name!r}; known: "
                               + ", ".join(p.name for p in Property)) from None
    return out


def _cmd_check(args) -> int:
    S = _load_subalg(args)
    props = _parse_props(args.props) if args.props is not None else []
    results = {}
    all_hold = True
    lines = []
    for prop in props:
        holds, witness = check_property(S, prop)
        all_hold &= holds
        results[prop.name] = {"holds": holds,
                              "witness": list(witness) if witness is not None else None}
        lines.append(f"{prop.name}: {'holds' if holds else 'fails'}"
                     + (f" (witness {witness})" if witness else ""))
    payload = {"results": results, "holds": all_hold}
    if args.classify or not props:
        names = sorted(classify(S))
        payload["classes"] = names
        lines.append("classes: " + (", ".join(names) if names else "(none)"))
    _emit(args, payload, lines)
    return 0 if all_hold else 1


def _cmd_close(args) -> int:
    if (args.system is None) == (args.rules is None):
        raise SubnormError("need exactly one of --system 1..4 and --rules LIST")
    S = _load_subalg(args)
    before = set(S.pairs())
    if args.system is not None:
        closed = close_i(S, args.system)
    else:
        closed = close(S, _parse_props(args.rules))
    payload = subalg_to_json(closed)
    payload["added"] = len(set(closed.pairs()) - before)
    _emit(args, payload,
          ["closed prec: " + " ".join(map(str, closed.pairs())),
           f"added {payload['added']} pairs"])
    return 0


def _parse_query(text: str) -> tuple:
    norm = iologic.parse_norm(text)
    return norm.body, norm.head


def _cmd_derive(args) -> int:
    N = _load_norms(args.norms)
    query = _parse_query(args.query)
    holds = iologic.derive(N, args.system, query)
    _emit(args, {"holds": holds, "system": args.system, "query": args.query},
          [f"{args.query}: {'derivable' if holds else 'not derivable'} in system {args.system}"])
    return 0 if holds else 1


def _cmd_out(args) -> int:
    N = _load_norms(args.norms)
    gamma = [parse_formula(args.gamma, m.start(), m.end())
             for m in re.finditer(r"[^,]+", args.gamma) if m.group().strip()]
    head = parse_formula(args.head)
    fn = iologic.modal_output if args.modal else iologic.out
    holds = fn(N, args.system, gamma, head)
    payload = {"holds": holds, "system": args.system, "modal": bool(args.modal),
               "gamma": [g.strip() for g in args.gamma.split(",") if g.strip()],
               "head": args.head}
    _emit(args, payload,
          [f"{args.head} is {'in' if holds else 'not in'} the"
           f"{' aggregative' if args.modal else ''} output of system {args.system}"])
    return 0 if holds else 1


def _cmd_slanted(args) -> int:
    S = _load_subalg(args)
    sa = slanted.build_slanted(S)
    ineq = parse_inequality(args.ineq)
    ok, witness = slanted.valid(sa, ineq, neg_mode=args.neg_mode)
    labels = None
    if witness is not None:
        labels = {k: S.poset.label(v) for k, v in witness.items()}
    payload = {"valid": ok, "witness": witness, "witness_labels": labels}
    _emit(args, payload,
          [f"{ineq}: {'valid' if ok else 'invalid'}"
           + (f" (witness {labels})" if labels else "")])
    return 0 if ok else 1


def _cmd_completion(args) -> int:
    obj = load_json(args.poset)
    p, _neg = poset_from_json(obj)
    c = dm_completion(p)
    payload = lattice_to_json(c.delta)
    payload["embed"] = list(c.embed)
    _emit(args, payload,
          [f"completion has {c.delta.n} elements",
           "embed: " + " ".join(map(str, c.embed))])
    return 0


#: the ``dual --check`` key of each relational condition: ``SL1_REL`` is ``sl1``
_REL_CONDS = {c.name.lower().removesuffix("_rel").replace("_", ""): c for c in RelCondition}


def _cmd_dual(args) -> int:
    S = _load_subalg(args)
    keys = None
    if args.check is not None:
        keys = [part.lower() for part in _comma_list(args.check, "conditions")]
        for key in keys:
            if key not in _REL_CONDS:
                raise SubnormError(f"unknown condition {key!r}; known: "
                                   + ", ".join(sorted(_REL_CONDS)))
    builder = (build_space_primefilters if args.construction == "primefilters"
               else build_space_jirr)
    sp = builder(S)
    payload = sp.to_json()
    lines = [f"points: {', '.join(sp.labels)}",
             "R: " + " ".join(map(str, sp.rel_pairs()))]
    ok = True
    if keys is not None:
        results = {}
        for key in keys:
            holds, witness = check_relational(sp, _REL_CONDS[key])
            ok &= holds
            results[key] = {"holds": holds,
                            "witness": list(witness) if witness is not None else None}
            lines.append(f"{key}: {'holds' if holds else 'fails'}"
                         + (f" (witness {witness})" if witness else ""))
        payload["checks"] = results
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    if args.replay:
        verdict = replay_counterexample(load_json(args.replay))
        _emit(args, verdict, [f"{verdict['check']}: {verdict['status']}"])
        return 0 if verdict["status"] == "pass" else 1
    carriers = GenConfig().carriers
    if args.carriers is not None:
        carriers = tuple(_comma_list(args.carriers, "carriers"))
    cfg = GenConfig(
        carriers=carriers,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        max_n=args.max_n,
    )
    checks = None
    if args.checks is not None:
        checks = _comma_list(args.checks, "checks")
    report = run_suite(cfg, check_names=checks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    summary = report["summary"]
    lines = [f"instances: {summary['instances']}",
             f"checks: {summary['checks_run']}",
             f"counterexamples: {summary['counterexamples']}"]
    for name, st in report["checks"].items():
        verdict = "pass" if not st["counterexample_count"] else "FAIL"
        if st["tested"] == 0:
            verdict = "NO COVERAGE"
        lines.append(f"  {name}: {verdict} ({st['tested']} tested, {st['skips']} skipped)")
    if summary["coverage_gaps"]:
        lines.append("coverage gaps: " + ", ".join(summary["coverage_gaps"]))
    _emit(args, report, lines)
    return exit_code_for(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subnorm",
        description="Finite-model engine for conditional-norm reasoning "
                    "over ordered algebras with a subordination relation.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output rendering (identical verdicts)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_opts(p):
        p.add_argument("--input", help="subordination JSON file")
        p.add_argument("--algebra", help="algebra JSON file")
        p.add_argument("--prec", help="JSON file with relation pairs")

    p = sub.add_parser("check", help="evaluate relation properties")
    add_input_opts(p)
    p.add_argument("--props", help="comma-separated property names (SI,WO,...)")
    p.add_argument("--classify", action="store_true",
                   help="also report the named classes that hold")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("close", help="close the relation under Horn rules")
    add_input_opts(p)
    p.add_argument("--rules", help="comma-separated rule names (TOP,SI,WO,...)")
    p.add_argument("--system", type=int, choices=(1, 2, 3, 4),
                   help="standard rule system")
    p.set_defaults(fn=_cmd_close)

    p = sub.add_parser("derive", help="norm derivability in a closure system")
    p.add_argument("--system", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--norms", required=True, help="norm file")
    p.add_argument("--query", required=True, help='query norm "body |~ head"')
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("out", help="output-operator membership")
    p.add_argument("--system", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--norms", required=True)
    p.add_argument("--gamma", required=True, help='comma-separated input formulas')
    p.add_argument("--head", required=True, help="candidate output formula")
    p.add_argument("--modal", action="store_true",
                   help="aggregative variant: meet the whole input first")
    p.set_defaults(fn=_cmd_out)

    p = sub.add_parser("slanted", help="modal-inequality validity")
    add_input_opts(p)
    p.add_argument("--ineq", required=True, help='inequality "<>p <= p"')
    p.add_argument("--neg-mode", choices=("sigma", "pi"), default="sigma",
                   help="which lifting interprets ~ inside terms")
    p.set_defaults(fn=_cmd_slanted)

    p = sub.add_parser("completion", help="canonical completion of a poset")
    p.add_argument("--poset", required=True, help="poset/algebra JSON file")
    p.set_defaults(fn=_cmd_completion)

    p = sub.add_parser("dual", help="dual relational space")
    add_input_opts(p)
    p.add_argument("--construction", choices=("jirr", "primefilters"),
                   default="jirr")
    p.add_argument("--check", help="comma-separated relational conditions "
                                   f"({','.join(_REL_CONDS)})")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--carriers", help="override corpus carriers (comma-separated)")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--max-n", type=int, default=4,
                   help="largest carrier enumerated exhaustively (at most 4)")
    p.add_argument("--samples", type=int, default=120)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--checks", help="run only these checks (comma-separated)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--replay", help="re-evaluate a stored counterexample JSON")
    p.set_defaults(fn=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call.

    ``parse_args`` returns a fresh namespace and leaves the parser as it
    was, so every call can share it.  ``set_defaults(fn=_cmd_*)`` binds
    the command functions when the parser is built: patch a ``_cmd_*``
    after the first call and clear this cache, or the old one runs.  The
    helpers they call (``_load_subalg`` and the rest) are looked up at
    call time."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SubnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
