"""Seeded input generation for the ``queries`` workload, and its checks.

Everything here is standard library only: the carriers, relations,
norm systems and posets are built without the package under test, so
the program sees nothing but the generated input files and argument
lists.  Each generator emits only input its command accepts:

* ``slanted`` inequalities go to relations closed under SI and WO (the
  sigma/pi extensions need monotone operators), and use ``~`` only on
  carriers with a negation;
* ``dual`` gets relations closed under the six subordination rules;
* ``completion`` gets posets that are not lattices;
* norm systems and their queries mention at most three atoms.

``Judge`` states what a correct answer stream must satisfy:
no query exits 2 or raises, commands that always succeed exit 0, each
norm is derivable from its own system in all four systems, derivability
is monotone along 1 => 2, 3 => 4, and single-formula ``out`` agrees with
``derive``.
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple

# ---------------------------------------------------------------------------
# carriers: covering pairs, labels and (for the Boolean ones) complements
# ---------------------------------------------------------------------------


def _chain(n):
    return {"n": n, "covers": [(i, i + 1) for i in range(n - 1)]}


def _boolean(atoms):
    n = 1 << atoms
    covers = [(v, v | 1 << i) for v in range(n) for i in range(atoms)
              if not v >> i & 1]
    return {"n": n, "covers": covers, "neg": [(n - 1) ^ v for v in range(n)]}


CARRIERS = {
    "chain2": _chain(2),
    "chain3": _chain(3),
    "chain4": _chain(4),
    "b4": _boolean(2),
    "b8": _boolean(3),
    "fdl2": {"n": 6, "covers": [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]},
}


class Order:
    """A finite poset as up-set bitmasks, with meets and joins when they
    exist (``None`` otherwise)."""

    def __init__(self, n, covers):
        up = [1 << a for a in range(n)]
        for a, b in covers:
            up[a] |= 1 << b
        changed = True
        while changed:
            changed = False
            for a in range(n):
                acc = up[a]
                for b in range(n):
                    if acc >> b & 1:
                        acc |= up[b]
                if acc != up[a]:
                    up[a], changed = acc, True
        self.n = n
        self.up = up
        self.down = [sum(1 << a for a in range(n) if up[a] >> b & 1)
                     for b in range(n)]
        self.meet = [[self._extreme(self.down[a] & self.down[b], self.down)
                      for b in range(n)] for a in range(n)]
        self.join = [[self._extreme(up[a] & up[b], up)
                      for b in range(n)] for a in range(n)]

    def _extreme(self, common, cone):
        # the member of ``common`` whose cone holds all of ``common``
        for c in range(self.n):
            if common >> c & 1 and common & ~cone[c] == 0:
                return c
        return None

    def leq(self, a, b):
        return bool(self.up[a] >> b & 1)

    def is_lattice(self):
        return all(x is not None for row in self.meet + self.join for x in row)

    def leq_matrix(self):
        return [[int(self.leq(a, b)) for b in range(self.n)] for a in range(self.n)]


ORDERS = {name: Order(c["n"], c["covers"]) for name, c in CARRIERS.items()}


def _algebra_json(name):
    order = ORDERS[name]
    obj = {"elements": [f"e{i}" for i in range(order.n)], "leq": order.leq_matrix()}
    if "neg" in CARRIERS[name]:
        obj["neg"] = CARRIERS[name]["neg"]
    return obj


ALGEBRAS = {name: _algebra_json(name) for name in CARRIERS}


# ---------------------------------------------------------------------------
# relations and rule closures (rows are successor bitmasks)
# ---------------------------------------------------------------------------


def random_rows(rng, n, density):
    return [sum(1 << b for b in range(n) if rng.random() < density)
            for _ in range(n)]


def close_rows(order, rows, rules):
    """Least extension of ``rows`` closed under the named rules (BOT, TOP,
    SI, WO, AND, OR), by naive fixpoint iteration."""
    n = order.n
    rows = list(rows)
    bot = next(a for a in range(n) if order.up[a] == (1 << n) - 1)
    top = next(a for a in range(n) if order.down[a] == (1 << n) - 1)
    while True:
        before = list(rows)
        if "BOT" in rules:
            rows[bot] |= 1 << bot
        if "TOP" in rules:
            rows[top] |= 1 << top
        if "SI" in rules:  # a <= b < c  =>  a < c
            for a in range(n):
                for b in range(n):
                    if order.leq(a, b):
                        rows[a] |= rows[b]
        if "WO" in rules:  # a < b <= c  =>  a < c
            for a in range(n):
                for b in range(n):
                    if rows[a] >> b & 1:
                        rows[a] |= order.up[b]
        if "AND" in rules:  # a < b, a < c  =>  a < b ^ c
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if rows[a] >> b & 1 and rows[a] >> c & 1:
                            rows[a] |= 1 << order.meet[b][c]
        if "OR" in rules:  # a < c, b < c  =>  a v b < c
            for a in range(n):
                for b in range(n):
                    rows[order.join[a][b]] |= rows[a] & rows[b]
        if rows == before:
            return rows


SUBORDINATION_RULES = ("BOT", "TOP", "SI", "WO", "AND", "OR")


def subalg_json(name, rows):
    prec = [[a, b] for a in range(len(rows)) for b in range(len(rows))
            if rows[a] >> b & 1]
    return {"algebra": ALGEBRAS[name], "prec": prec}


def random_nonlattice(rng):
    """A poset on 3-6 elements, drawn until it is not a lattice."""
    while True:
        n = rng.randint(3, 6)
        covers = [(a, b) for a in range(n) for b in range(a + 1, n)
                  if rng.random() < 0.35]
        order = Order(n, covers)
        if not order.is_lattice():
            return {"elements": [f"x{i}" for i in range(n)],
                    "leq": order.leq_matrix()}


# ---------------------------------------------------------------------------
# formulas, norm systems, modal terms
# ---------------------------------------------------------------------------

ATOMS = ("p", "q", "r")


def random_formula(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.3:
        x = rng.random()
        return "T" if x < 0.04 else "F" if x < 0.07 else rng.choice(atoms)
    op = rng.choice(("~", "&", "|", "->", "&", "|"))
    if op == "~":
        return "~" + random_formula(rng, atoms, 0 if rng.random() < 0.5 else depth - 1)
    return (f"({random_formula(rng, atoms, depth - 1)} {op} "
            f"{random_formula(rng, atoms, depth - 1)})")


def random_norms(rng):
    k = rng.choices((1, 2, 3), weights=(1, 2, 2))[0]
    atoms = tuple(sorted(rng.sample(ATOMS, k)))
    norms = [(random_formula(rng, atoms), random_formula(rng, atoms))
             for _ in range(rng.randint(1, 3))]
    return atoms, norms


def random_term(rng, neg, depth=2):
    if depth == 0 or rng.random() < 0.25:
        x = rng.random()
        return "T" if x < 0.05 else "F" if x < 0.1 else rng.choice(("p", "q"))
    ops = ("<>", "[]", "<>", "[]", "&", "|") + (("~",) if neg else ())
    op = rng.choice(ops)
    if op in ("<>", "[]", "~"):
        return op + random_term(rng, neg, depth - 1)
    return f"({random_term(rng, neg, depth - 1)} {op} {random_term(rng, neg, depth - 1)})"


# ---------------------------------------------------------------------------
# the query stream
# ---------------------------------------------------------------------------

PROPS = ("SI", "WO", "AND", "OR", "CT", "T", "D", "DD", "UD", "S9_FWD",
         "S9_BWD", "SL1", "SL2", "PREC_IN_LEQ", "LEQ_IN_PREC", "PROPER",
         "BOT", "TOP")
REL_CONDS = ("reflexive", "transitive", "dense", "ct", "s9fwd", "s9bwd",
             "sl1", "sl2", "proper")

# the command families of the stream; each gets an equal share of it
FAMILIES = ("derive", "out", "modal", "check", "close", "slanted", "dual", "completion")
STREAM_FILE = "stream.jsonl"


# one ``cli.main`` call: its argument list (file names relative to the
# work directory), and the group and role it plays in an invariant, if any
Query = namedtuple("Query", "kind argv group role", defaults=(None, None))


def make_stream(seed, count):
    """About ``count`` shuffled queries, ``count / 8`` of each command
    family, and the input files they read, as a dict of file name to
    JSON-ready object or norm-file text.

    ``derive`` queries come in groups of four (systems 1-4) on one norm
    system and one query; in half of the groups, drawn at random, the
    query is one of the system's own norms.  Each other group gets one
    single-formula ``out`` query on the same system and formulas; the
    rest of the ``out`` share is standalone.
    """
    rng = random.Random(seed)
    files = {}
    queries = []
    per_family = -(-count // len(FAMILIES))

    def add_file(content, ext):
        name = f"f{len(files)}.{ext}"
        files[name] = content
        return name

    def norm_file(norms):
        return add_file("".join(f"{b} |~ {h}\n" for b, h in norms), "ion")

    paired = []  # derive groups that get an ``out`` query
    for _ in range(-(-per_family // 4)):
        atoms, norms = random_norms(rng)
        path = norm_file(norms)
        kind = "own-norm" if rng.random() < 0.5 else "derive-group"
        gid = len(queries)
        if kind == "own-norm":
            body, head = rng.choice(norms)
        else:
            body, head = random_formula(rng, atoms), random_formula(rng, atoms)
            paired.append((kind, gid, path, body, head))
        for i in (1, 2, 3, 4):
            queries.append(Query("derive", ["derive", "--system", str(i), "--norms",
                                            path, "--query", f"{body} |~ {head}"],
                                 (kind, gid), i))
    for kind, gid, path, body, head in paired:
        i = rng.randint(1, 4)
        queries.append(Query("out", ["out", "--system", str(i), "--norms", path,
                                     "--gamma", body, "--head", head],
                             (kind, gid), ("out", i)))
    for kind in ("out", "modal"):
        for _ in range(per_family - (len(paired) if kind == "out" else 0)):
            atoms, norms = random_norms(rng)
            gamma = [random_formula(rng, atoms) for _ in range(rng.randint(1, 3))]
            argv = ["out", "--system", str(rng.randint(1, 4)), "--norms", norm_file(norms),
                    "--gamma", ", ".join(gamma), "--head", random_formula(rng, atoms)]
            queries.append(Query(kind, argv + (["--modal"] if kind == "modal" else [])))
    for kind in FAMILIES[3:]:
        for _ in range(per_family):
            queries.append(_relation_query(kind, rng, add_file))
    rng.shuffle(queries)
    return queries, files


def _relation_query(kind, rng, add_file):
    if kind == "completion":
        return Query(kind, ["completion", "--poset", add_file(random_nonlattice(rng), "json")])
    name = rng.choice(sorted(CARRIERS))
    order = ORDERS[name]
    neg = "neg" in CARRIERS[name]
    rows = random_rows(rng, order.n, rng.choice((0.1, 0.2, 0.35)))
    if kind == "slanted":
        rows = close_rows(order, rows, ("SI", "WO"))
    elif kind == "dual":
        rows = close_rows(order, rows, SUBORDINATION_RULES)
    path = add_file(subalg_json(name, rows), "json")
    if kind == "check":
        argv = ["check", "--input", path, "--classify"]
        if rng.random() < 0.5:
            props = rng.sample(PROPS + (("S6",) if neg else ()), rng.randint(1, 4))
            argv += ["--props", ",".join(props)]
    elif kind == "close":
        argv = ["close", "--input", path, "--system", str(rng.randint(1, 4))]
    elif kind == "slanted":
        argv = ["slanted", "--input", path, "--ineq",
                f"{random_term(rng, neg)} <= {random_term(rng, neg)}"]
        if neg and rng.random() < 0.5:
            argv += ["--neg-mode", "pi"]
    else:
        argv = ["dual", "--input", path,
                "--construction", rng.choice(("jirr", "primefilters")),
                "--check", ",".join(rng.sample(REL_CONDS, rng.randint(1, 4)))]
    return Query(kind, argv)


def write_inputs(stream, files, workdir):
    """Write the input files, and the stream one query a line, into ``workdir``."""
    for name, content in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                json.dump(content, fh)
    with open(os.path.join(workdir, STREAM_FILE), "w", encoding="utf-8") as fh:
        for q in stream:
            fh.write(json.dumps(q) + "\n")


def read_stream(workdir):
    """The queries written by ``write_inputs``, read one at a time."""
    with open(os.path.join(workdir, STREAM_FILE), encoding="utf-8") as fh:
        for line in fh:
            kind, argv, group, role = json.loads(line)
            yield Query(kind, argv, group and tuple(group),
                        tuple(role) if isinstance(role, list) else role)


def full_argv(query, workdir):
    """The query's argument list with input paths made absolute."""
    argv = ["--format", "json"]
    for i, arg in enumerate(query.argv):
        prev = query.argv[i - 1] if i else ""
        argv.append(os.path.join(workdir, arg)
                    if prev in ("--norms", "--input", "--poset") else arg)
    return argv


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class Judge:
    """Checks the outcomes of a query stream one query at a time, keeping
    only the derivability verdicts of the grouped queries."""

    def __init__(self):
        self.problems = []
        self.groups = {}

    def add(self, q, code, out):
        """Judge one query: ``out`` is its stdout, or a message if it raised
        (``code`` None)."""
        must_hold = q.kind in ("close", "completion") or (
            q.kind == "check" and "--props" not in q.argv)
        if code not in (0, 1) or (must_hold and code != 0):
            self.problems.append(f"{q.kind} {q.argv}: exit {code} {out.strip()[:200]}")
            return
        if q.kind in ("derive", "out", "modal") and json.loads(out)["holds"] != (code == 0):
            self.problems.append(f"{q.kind} {q.argv}: verdict and exit code disagree")
            return
        if q.group is not None:
            self.groups.setdefault(q.group, {})[q.role] = (code == 0, q.argv)

    def finish(self):
        """Failed query count and a description of each failure.  A group
        is judged once all its members ran."""
        problems = list(self.problems)
        for (kind, _), members in self.groups.items():
            if len(members) < (4 if kind == "own-norm" else 5):
                continue
            d = {i: members[i][0] for i in (1, 2, 3, 4)}
            argv = members[1][1]
            if kind == "own-norm":
                missing = [i for i in d if not d[i]]
                if missing:
                    problems.append(f"own norm not derivable in systems {missing}: {argv}")
                continue
            if d[1] and not (d[2] and d[3]):
                problems.append(f"derivable in 1 but not in 2 and 3: {argv}")
            if (d[2] or d[3]) and not d[4]:
                problems.append(f"derivable in 2 or 3 but not in 4: {argv}")
            out_role = next(r for r in members if isinstance(r, tuple))
            if members[out_role][0] != d[out_role[1]]:
                problems.append(f"out and derive disagree in system {out_role[1]}: {argv}")
        return len(problems), problems
