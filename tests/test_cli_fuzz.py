"""Fuzzing the command line with generated input.

Well-formed and malformed input files and arguments for ``check``,
``close``, ``slanted``, ``dual``, ``completion``, ``derive`` and ``out``,
and malformed counterexamples for ``verify --replay``, are passed to
``cli.main``.  Every run must return 0, 1 or 2 without an uncaught
exception (the exit-code contract: 0 holds, 1 fails, 2 bad input), and
every malformed input must exit 2 with a one-line error.
A well-formed input may still exit 2 when the command needs structure
the input lacks (a lattice, monotone operators, a subordination
algebra).  The examples are derandomized, so a failure replays.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from subnorm.cli import main
from subnorm.harness.carriers import load_carrier
from subnorm.harness.generate import SUBORDINATION_RULES
from subnorm.order import lattice_to_json
from subnorm.subordination import (
    CLOSABLE_RULES,
    Property,
    close,
    subalg_from_json,
    subalg_to_json,
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

CARRIERS = [lattice_to_json(load_carrier(name))
            for name in ("chain2", "chain3", "b4", "fdl2")]


@st.composite
def posets(draw):
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    hasse = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs else []
    return {"elements": [f"e{i}" for i in range(n)], "hasse": [list(e) for e in hasse]}


algebras = st.one_of(st.sampled_from(CARRIERS), posets())


@st.composite
def subalgs(draw):
    alg = draw(algebras)
    n = len(alg["elements"])
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=12, unique=True))
    return {"algebra": alg, "prec": [list(p) for p in pairs]}


@st.composite
def subordination_algebras(draw):
    """Closures of generated relations under the six subordination
    rules, the input the dual-space constructions accept."""
    sub = draw(subalgs().filter(lambda s: s["algebra"] in CARRIERS))
    S = subalg_from_json(sub)
    return subalg_to_json(close(S, SUBORDINATION_RULES))


def _binary(op):
    return lambda a, b: f"({a} {op} {b})"


terms = st.recursive(
    st.sampled_from(["p", "q", "T", "F"]),
    lambda t: st.one_of(st.builds("<>{}".format, t), st.builds("[]{}".format, t),
                        st.builds("~{}".format, t), st.builds(_binary("&"), t, t),
                        st.builds(_binary("|"), t, t)),
    max_leaves=4)

formulas = st.recursive(
    st.sampled_from(["p", "q", "r", "T", "F"]),
    lambda f: st.one_of(st.builds("~{}".format, f), st.builds(_binary("&"), f, f),
                        st.builds(_binary("|"), f, f), st.builds(_binary("->"), f, f)),
    max_leaves=4)

norms = st.builds("{} |~ {}".format, formulas, formulas)


def _names(members):
    return st.lists(st.sampled_from(sorted(m.name for m in members)),
                    min_size=1, max_size=4, unique=True).map(",".join)


# ---- well-formed commands -------------------------------------------------
#
# A command is (argv, files): argv names input files by key, and files
# maps each key to a JSON-ready object, or to raw text or bytes.

def _sub_command(name, *extra, inputs=None):
    inputs = subalgs() if inputs is None else inputs
    return st.tuples(st.just(name), inputs, *extra).map(
        lambda t: ([t[0], "--input", "{sub}", *[a for part in t[2:] for a in part]],
                   {"sub": t[1]}))


well_formed = st.one_of(
    _sub_command("check", st.one_of(st.just([]), _names(Property).map(lambda s: ["--props", s])),
                 st.sampled_from([[], ["--classify"]])),
    _sub_command("close", st.one_of(
        st.sampled_from("1234").map(lambda i: ["--system", i]),
        _names(CLOSABLE_RULES).map(lambda s: ["--rules", s]))),
    _sub_command("slanted", st.builds(lambda a, b: ["--ineq", f"{a} <= {b}"], terms, terms)),
    _sub_command("dual", st.one_of(st.just([]), st.lists(
        st.sampled_from(["reflexive", "transitive", "dense", "ct", "s9fwd", "s9bwd",
                         "sl1", "sl2", "proper"]), min_size=1, max_size=3, unique=True)
        .map(lambda c: ["--check", ",".join(c)])),
        inputs=st.one_of(subalgs(), subordination_algebras())),
    algebras.map(lambda a: (["completion", "--poset", "{poset}"], {"poset": a})),
    st.tuples(st.sampled_from("1234"), st.lists(norms, max_size=4), norms).map(
        lambda t: (["derive", "--system", t[0], "--norms", "{norms}", "--query", t[2]],
                   {"norms": "\n".join(t[1]) + "\n"})),
)


# ---- malformed input ------------------------------------------------------

BAD_ALGEBRAS = [
    {},                                                    # no order at all
    {"leq": [[0]]},                                        # not reflexive
    {"leq": [[1, 1], [1, 1]]},                             # not antisymmetric
    {"leq": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]},            # not transitive
    {"leq": [[1, 0], [0]]},                                # not square
    {"leq": [[1, 2], [0, 1]]},                             # not 0/1
    {"leq": [[1, "0"], [0, 1]]},
    {"leq": "11"},
    {"hasse": [[0, 1], [1, 0]]},                           # a cycle
    {"hasse": [[0, "1"]]},
    {"hasse": [[0]]},
    {"hasse": 5},
    {"elements": ["a"], "hasse": [[0, 1]]},                # out of range
    {"elements": ["a", "b"], "hasse": [[-1, 0]]},
    {"elements": ["a", "b", "c"], "leq": [[1, 1], [0, 1]]},  # wrong size
    {"elements": [1, 2], "hasse": [[0, 1]]},
    {"elements": "ab", "hasse": [[0, 1]]},
    {"elements": ["a", "b"], "hasse": [[0, 1]], "neg": [1]},
    {"elements": ["a", "b"], "hasse": [[0, 1]], "neg": [0, 5]},
    {"elements": ["a", "b"], "hasse": [[0, 1]], "neg": ["1", "0"]},
    {"elements": ["a", "b"], "hasse": [[0, 1]], "neg": 3},
    3, [], None, "missing.json",
]

BAD_FILES = ["", "{", "not json", "[1, 2", b"\xff\xfe{}"]


@st.composite
def non_int_orders(draw):
    """A carrier whose order matrix has one entry replaced by the bool or
    float equal to it (JSON ``true``/``false``, ``1.0``/``0.0``)."""
    alg = draw(st.sampled_from(CARRIERS))
    leq = [list(row) for row in alg["leq"]]
    i, j = (draw(st.integers(0, len(leq) - 1)) for _ in range(2))
    leq[i][j] = draw(st.sampled_from([bool, float]))(leq[i][j])
    return {**alg, "leq": leq}


bad_algebras = st.one_of(st.sampled_from(BAD_ALGEBRAS), non_int_orders())


def _bad_prec(n):
    return st.sampled_from([3, "01", {"a": 1}, None, [[n, 0]], [[0, n]], [[-1, 0]],
                            [[0]], [[0, 1, 2]], [["0", 1]], [[0.5, 1]], [[True, 0]]])


@st.composite
def bad_subalgs(draw):
    sub = draw(subalgs())
    n = len(sub["algebra"]["elements"])
    kind = draw(st.sampled_from(["file", "top", "no-prec", "prec", "algebra", "entries"]))
    if kind == "file":
        return draw(st.sampled_from(BAD_FILES))
    if kind == "top":
        return draw(st.sampled_from([[], 3, "x", None, [sub]]))
    if kind == "no-prec":
        return {"algebra": sub["algebra"]}
    if kind == "prec":
        return {**sub, "prec": draw(_bad_prec(n))}
    if kind == "entries":
        return {"algebra": draw(non_int_orders()), "prec": []}
    return {**sub, "algebra": draw(bad_algebras)}


# nested past the parser's bound: parentheses, prefix stacks and chains
DEEP_FORMULAS = ["(" * 300 + "p" + ")" * 300, "~" * 990 + "p",
                 " & ".join(["p"] * 1500), " -> ".join(["p"] * 1500)]
DEEP_TERMS = ["(" * 248 + "p" + ")" * 248, "<>" * 990 + "p", "[]~" * 400 + "p",
              " | ".join(["p"] * 1500)]
# a formula may not use the tokens only inequalities have
BAD_FORMULAS = ["p &", "(p", "<>p", "[]p", "p <= q", *DEEP_FORMULAS]

BAD_NORM_LINES = ["p q", "p |~", "|~ q", "(p |~ q", "p |~ q)", "p $ q |~ r",
                  "p |~ q |~ r", "p & |~ q", "~ |~ q", "<>p |~ q", "p <= q |~ r",
                  "p |~ []q", *(f"{f} |~ q" for f in DEEP_FORMULAS)]
BAD_INEQS = ["p", "p <= q <= r", "<> <= p", "p <= (q", "p <= q)", "p <= q $",
             "<=", "p & <= q", "p -> q <= p", "p <= q -> p",
             *(f"{t} <= p" for t in DEEP_TERMS)]


_INSTANCE = {"algebra": CARRIERS[2], "prec": [[0, 0]]}
BAD_COUNTEREXAMPLES = [
    {"check": ["x"], "instance": _INSTANCE}, {"check": {}, "instance": _INSTANCE},
    {"check": None, "instance": _INSTANCE}, {"check": "nope", "instance": _INSTANCE},
    {"check": "bounds-of-related-pairs"}, {"instance": _INSTANCE},
    {"check": "bounds-of-related-pairs", "instance": 3},
    {"check": "bounds-of-related-pairs",                   # a poset carrier
     "instance": {"algebra": {"elements": ["a", "b"], "hasse": []}, "prec": []}},
    [], 3, None,
]


def _out_command(t):
    option, formula, modal = t
    args = {"--gamma": "p", "--head": "q", option: formula}
    return (["out", "--system", "3", "--norms", "{norms}",
             *(a for pair in args.items() for a in pair), *modal], {"norms": "p |~ q\n"})


malformed = st.one_of(
    _sub_command("check", st.sampled_from([[], ["--classify"]]), inputs=bad_subalgs()),
    _sub_command("close", st.sampled_from([["--system", "1"], ["--rules", "SI,WO"]]),
                 inputs=bad_subalgs()),
    _sub_command("slanted", st.just(["--ineq", "<>p <= p"]), inputs=bad_subalgs()),
    _sub_command("dual", st.just([]), inputs=bad_subalgs()),
    # well-formed files with bad arguments
    _sub_command("check", st.sampled_from([["--props", "XYZ"], ["--props", "SI,nope"]])),
    _sub_command("close", st.sampled_from([[], ["--rules", "D"], ["--rules", "S9_FWD"],
                                           ["--rules", "nope"],
                                           ["--system", "1", "--rules", "SI"]])),
    _sub_command("slanted", st.sampled_from(BAD_INEQS).map(lambda s: ["--ineq", s])),
    _sub_command("dual", st.sampled_from([["--check", "foo"], ["--check", "dense,bar"]])),
    st.one_of(bad_algebras, st.sampled_from(BAD_FILES)).map(
        lambda a: (["completion", "--poset", "{poset}"], {"poset": a})),
    st.tuples(st.lists(norms, max_size=3), st.sampled_from(BAD_NORM_LINES)).map(
        lambda t: (["derive", "--system", "1", "--norms", "{norms}", "--query", "p |~ q"],
                   {"norms": "\n".join([*t[0], t[1]]) + "\n"})),
    st.sampled_from(BAD_NORM_LINES).map(
        lambda q: (["derive", "--system", "2", "--norms", "{norms}", "--query", q],
                   {"norms": "p |~ q\n"})),
    st.just((["derive", "--system", "1", "--norms", "{norms}", "--query", "p |~ q"],
             {"norms": b"p |~ \xff\n"})),
    st.tuples(st.sampled_from(["--gamma", "--head"]), st.sampled_from(BAD_FORMULAS),
              st.sampled_from([[], ["--modal"]])).map(_out_command),
    st.just((["check"], {})),
    st.one_of(st.sampled_from(BAD_COUNTEREXAMPLES), st.sampled_from(BAD_FILES)).map(
        lambda ce: (["verify", "--replay", "{ce}"], {"ce": ce})),
)


def _run(command) -> tuple[int, str]:
    argv, files = command
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, content in files.items():
            path = paths[key] = os.path.join(tmp, key + ".json")
            if isinstance(content, bytes):
                data = content
            elif key == "norms" or content in BAD_FILES:
                data = content.encode()
            else:
                data = json.dumps(content).encode()
            with open(path, "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(**paths) for a in argv])
    return code, err.getvalue()


@FUZZ
@given(well_formed)
def test_well_formed_input_keeps_exit_contract(command):
    code, err = _run(command)
    assert code in (0, 1, 2), command
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (command, err)


@FUZZ
@given(malformed)
def test_malformed_input_exits_2_with_one_line(command):
    code, err = _run(command)
    assert code == 2, command
    assert err.startswith("error:") and err.count("\n") == 1, (command, err)
