"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first definitions using plain
set/dict logic, deliberately avoiding the bitmask machinery of the
package, so a bug in the fast paths cannot hide itself.  The
exceptions are ``verify_dense`` and ``verify_compact``, which check a
``completion.dm_completion`` result by enumerating the directed
subsets of a base small enough for ``order.subset_tables``;
``close_fixpoint``, the pairwise closure that ``subordination.close``
is held to on carriers too large for the exhaustive ``closure_oracle``;
``closure_generated_oracle``, which closes every seed of the
closure-generated corpus afresh with ``close``; ``extremality_oracle``, which
takes the closure it judges from ``close_i`` (held to those two) unless
a test plants one; ``closure_output_oracle``, the closure route to
input/output queries through ``free_boolean_algebra`` and ``close_i``,
which holds ``close_i`` and its rule systems to ``out_oracle``; and
the catalog's law oracles, which state each law in the completion that
``dm_completion`` builds for the instance's carrier.
``check_oracle`` decides one check on one instance by calling each of
its parts, with no memo and no flag pattern, as the reference for the
suite runner.  ``check_relational_oracle`` and ``signature_oracle``
read a dual space point by point through its ``leq``/``rel``, each
existential a loop over every point, as the reference for the mask
form of ``duality.check_relational`` and ``duality._signature``.
"""

from functools import lru_cache
from itertools import chain, combinations, product

from subnorm.completion import dm_completion
from subnorm.duality import RelCondition as C
from subnorm.errors import TooLarge
from subnorm.order import (FinLattice, FinPoset, bits, free_boolean_algebra, mask_of,
                           subset_tables)
from subnorm.subordination import (SUBORDINATION_RULES, Property as P, ProtoSubAlg,
                                   _bounds, close, close_i)


def subsets(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def join_irreducibles_oracle(L: FinLattice) -> set[int]:
    out = set()
    for x in range(L.n):
        if x == L.bot:
            continue
        if all(x in (a, b)
               for a in range(L.n) for b in range(L.n)
               if L.join[a][b] == x):
            out.add(x)
    return out


def meet_irreducibles_oracle(L: FinLattice) -> set[int]:
    out = set()
    for x in range(L.n):
        if x == L.top:
            continue
        if all(x in (a, b)
               for a in range(L.n) for b in range(L.n)
               if L.meet[a][b] == x):
            out.add(x)
    return out


def prime_filters_oracle(L: FinLattice) -> set[frozenset]:
    """Proper nonempty up-closed meet-closed sets that are join-prime."""
    out = set()
    for cand in subsets(range(L.n)):
        F = set(cand)
        if not F or L.bot in F:
            continue
        if any(L.leq(a, b) and b not in F for a in F for b in range(L.n)):
            continue
        if any(L.meet[a][b] not in F for a in F for b in F):
            continue
        if any(L.join[a][b] in F and a not in F and b not in F
               for a in range(L.n) for b in range(L.n)):
            continue
        out.add(frozenset(F))
    return out


def cuts_oracle(p: FinPoset) -> set[frozenset]:
    """Distinct sets of the form L = (L^u)^l over all subsets L."""
    carrier = set(range(p.n))

    def uppers(xs):
        return {y for y in carrier if all(p.leq(x, y) for x in xs)}

    def lowers(xs):
        return {y for y in carrier if all(p.leq(y, x) for x in xs)}

    out = set()
    for cand in subsets(carrier):
        cl = frozenset(lowers(uppers(set(cand))))
        out.add(cl)
    return out


class CutCompletion:
    """The completion of a poset by cuts, from the definitions.

    Elements are the cuts of ``cuts_oracle`` as frozensets of base
    elements, ordered by inclusion; a meet is an intersection (the empty
    meet is the whole carrier), a join the cut generated by a union.
    Closed elements are the meets of nonempty down-directed sets of
    embedded base elements, open elements the joins of nonempty
    up-directed ones.
    """

    def __init__(self, p: FinPoset):
        carrier = range(p.n)
        self.p = p
        self.cuts = cuts_oracle(p)
        self.embed = [frozenset(x for x in carrier if p.leq(x, a)) for a in carrier]
        self.top = frozenset(carrier)
        self.bot = self.join([])

        def directed(D, below):
            return all(any(below(z, x) and below(z, y) for z in D)
                       for x in D for y in D)

        down = [D for D in subsets(carrier) if D and directed(D, p.leq)]
        up = [D for D in subsets(carrier)
              if D and directed(D, lambda z, x: p.leq(x, z))]
        self.closed = {self.meet([self.embed[a] for a in D]) for D in down}
        self.open = {self.join([self.embed[a] for a in D]) for D in up}

    def meet(self, family) -> frozenset:
        out = set(self.top)
        for cut in family:
            out &= cut
        return frozenset(out)

    def join(self, family) -> frozenset:
        union = set().union(*family)
        carrier = range(self.p.n)
        uppers = [y for y in carrier if all(self.p.leq(x, y) for x in union)]
        return frozenset(x for x in carrier if all(self.p.leq(x, y) for y in uppers))


def sigma_oracle(C: CutCompletion, f: list) -> dict:
    """Sigma extension of a monotone map ``f`` (base element -> cut): on a
    closed element ``k`` (or the top, the empty meet) the meet of ``f(a)``
    over ``k <= a``, elsewhere the join over the closed elements below."""
    K = C.closed | {C.top}
    at = {k: C.meet([f[a] for a in range(C.p.n) if k <= C.embed[a]]) for k in K}
    return {u: C.join([at[k] for k in K if k <= u]) for u in C.cuts}


def pi_oracle(C: CutCompletion, g: list) -> dict:
    """Pi extension of a monotone map ``g``: on an open element ``o`` (or
    the bottom, the empty join) the join of ``g(a)`` over ``a <= o``,
    elsewhere the meet over the open elements above."""
    O = C.open | {C.bot}
    at = {o: C.join([g[a] for a in range(C.p.n) if C.embed[a] <= o]) for o in O}
    return {u: C.meet([at[o] for o in O if u <= o]) for u in C.cuts}


def neg_sigma_oracle(C: CutCompletion, neg) -> dict:
    """Sigma lifting of an antitone negation: on an open element ``o`` the
    meet of ``~a`` over ``a <= o``, elsewhere the join over the open
    elements above."""
    at = {o: C.meet([C.embed[neg[a]] for a in range(C.p.n) if C.embed[a] <= o])
          for o in C.open}
    return {u: C.join([at[o] for o in C.open if u <= o]) for u in C.cuts}


def neg_pi_oracle(C: CutCompletion, neg) -> dict:
    """Pi lifting of an antitone negation: on a closed element ``k`` the
    join of ``~a`` over ``k <= a``, elsewhere the meet over the closed
    elements below."""
    at = {k: C.join([C.embed[neg[a]] for a in range(C.p.n) if k <= C.embed[a]])
          for k in C.closed}
    return {u: C.meet([at[k] for k in C.closed if k <= u]) for u in C.cuts}


def negation_liftable_oracle(p: FinPoset, neg, side: str) -> bool:
    """Antitone, and left- (sigma) or right-self-adjoint (pi)."""
    pairs = [(a, b) for a in range(p.n) for b in range(p.n)]
    if any(p.leq(a, b) and not p.leq(neg[b], neg[a]) for a, b in pairs):
        return False
    if side == "sigma":
        return all(p.leq(neg[a], b) == p.leq(neg[b], a) for a, b in pairs)
    return all(p.leq(a, neg[b]) == p.leq(b, neg[a]) for a, b in pairs)


def _directed_subsets(c, down: bool) -> list[int]:
    """Nonempty (down|up)-directed subsets of the base, as base bitmasks."""
    if subset_tables(c.base) is None:
        raise TooLarge(f"subset scan over {c.base.n} base elements")
    return _directed_masks(c.base, down)


def verify_dense(c) -> bool:
    """Check by enumeration that every delta element is a join of closed
    and a meet of open elements, with closed/open themselves recomputed
    from directed subsets of the image."""
    delta = c.delta
    closed = mask_of(c.meet_of_base(f) for f in _directed_subsets(c, down=True))
    opened = mask_of(c.join_of_base(i) for i in _directed_subsets(c, down=False))
    down, up = delta.poset.down, delta.poset.up
    return all(delta.join_all(closed & down[u]) == u
               and delta.meet_all(opened & up[u]) == u for u in range(delta.n))


def verify_compact(c) -> bool:
    """Check compactness by enumeration: whenever a nonempty down-directed
    ``F`` and nonempty up-directed ``I`` in the image satisfy
    ``meet(F) <= join(I)``, some ``a in F``, ``b in I`` has ``a <= b``."""
    p = c.base
    downs = _directed_subsets(c, down=True)
    ups = _directed_subsets(c, down=False)
    meets = {f: c.meet_of_base(f) for f in downs}
    joins = {i: c.join_of_base(i) for i in ups}
    return all(any(p.up[a] & i for a in bits(f))
               for f in downs for i in ups if c.delta.leq(meets[f], joins[i]))


def closure_oracle(carrier, pairs: set, rule_names: set) -> set:
    """Least rules-closed superset: the intersection of every closed
    relation containing ``pairs``, over the full 2^(n*n) relation space.
    Rules other than SI, WO and T need a lattice carrier; BOT and TOP a
    bounded one."""
    best = {(a, b) for a in range(carrier.n) for b in range(carrier.n)}
    for rel in _closed_relations(carrier, frozenset(rule_names)):
        if pairs <= rel:
            best &= rel
    return best


@lru_cache(maxsize=None)
def _closed_relations(carrier, rule_names: frozenset) -> tuple:
    """Every relation on the carrier closed under the named rules."""
    n = carrier.n
    universe = [(a, b) for a in range(n) for b in range(n)]

    def closed(rel: frozenset) -> bool:
        if "BOT" in rule_names and (carrier.bot, carrier.bot) not in rel:
            return False
        if "TOP" in rule_names and (carrier.top, carrier.top) not in rel:
            return False
        for (a, b) in rel:
            if "SI" in rule_names:
                for c in range(n):
                    if carrier.leq(c, a) and (c, b) not in rel:
                        return False
            if "WO" in rule_names:
                for c in range(n):
                    if carrier.leq(b, c) and (a, c) not in rel:
                        return False
            if "T" in rule_names:
                for (c, d) in rel:
                    if c == b and (a, d) not in rel:
                        return False
        if "AND" in rule_names:
            for (a, x) in rel:
                for (a2, y) in rel:
                    if a2 == a and (a, carrier.meet[x][y]) not in rel:
                        return False
        if "OR" in rule_names:
            for (a, x) in rel:
                for (b, x2) in rel:
                    if x2 == x and (carrier.join[a][b], x) not in rel:
                        return False
        if "CT" in rule_names:
            for (a, b) in rel:
                for (c, d) in rel:
                    if c == carrier.meet[a][b] and (a, d) not in rel:
                        return False
        return True

    rels = (frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)
            for mask in range(1 << len(universe)))
    return tuple(rel for rel in rels if closed(rel))


def closure_generated_oracle(carrier, max_seed_pairs: int) -> list:
    """The rows of the closures under the six subordination rules of every
    seed of at most ``max_seed_pairs`` pairs, each seed closed afresh
    (``subordination.close``, no memo), distinct, in seed order: the
    empty seed, then the single pairs, then the two-pair seeds, each
    pair taken in row-major order.  The reference that
    ``harness.closure_generated`` and its per-lattice memo are held to."""
    pairs = list(product(range(carrier.n), repeat=2))
    seeds = (seed for k in range(max_seed_pairs + 1) for seed in combinations(pairs, k))
    return list(dict.fromkeys(
        close(ProtoSubAlg.from_pairs(carrier, seed), SUBORDINATION_RULES).rows
        for seed in seeds))


def close_fixpoint(S, ruleset: frozenset) -> list[int]:
    """Generic closure with pairwise AND and no filter shortcut: the
    one-step consequence operator of each rule is applied until the joint
    fixpoint.  Every added pair is forced by some rule instance, so the
    result is the least rules-closed superset.  The reference that
    ``subordination.close`` is held to on carriers too large for
    ``closure_oracle``."""
    lat = S.lattice
    n = S.n
    p = S.poset
    rows = list(S.rows)
    if P.BOT in ruleset:
        bot, _ = _bounds(S.carrier)
        rows[bot] |= 1 << bot
    if P.TOP in ruleset:
        _, top = _bounds(S.carrier)
        rows[top] |= 1 << top
    guard = n * n + 2
    for _ in range(guard + 1):
        before = tuple(rows)
        if P.SI in ruleset:
            for a in range(n):
                acc = rows[a]
                for b in bits(p.up[a] ^ (1 << a)):
                    acc |= rows[b]
                rows[a] = acc
        if P.WO in ruleset:
            for a in range(n):
                rows[a] = _image_of(p.up, rows[a])
        if P.AND in ruleset:
            meet = lat.meet
            for a in range(n):
                acc = rows[a]
                members = list(bits(acc))
                for x in members:
                    for y in members:
                        acc |= 1 << meet[x][y]
                rows[a] = acc
        if P.OR in ruleset:
            join = lat.join
            for a in range(n):
                ra = rows[a]
                if not ra:
                    continue
                for b in range(a, n):
                    common = ra & rows[b]
                    if common:
                        rows[join[a][b]] |= common
        if P.CT in ruleset:
            meet = lat.meet
            for a in range(n):
                acc = rows[a]
                for b in bits(rows[a]):
                    acc |= rows[meet[a][b]]
                rows[a] = acc
        if P.T in ruleset:
            for a in range(n):
                acc = rows[a]
                for b in bits(rows[a]):
                    acc |= rows[b]
                rows[a] = acc
        if tuple(rows) == before:
            break
    else:
        raise AssertionError("closure failed to converge within the pair bound")
    return rows


PROPERTY_ORACLES = {}


def _orc(name):
    def deco(fn):
        PROPERTY_ORACLES[name] = fn
        return fn
    return deco


def _rel(S) -> frozenset:
    return _pairs(S.rows)


@lru_cache(maxsize=64)
def _pairs(rows) -> frozenset:
    return frozenset((a, b) for a in range(len(rows)) for b in bits(rows[a]))


@_orc("SI")
def _si(S):
    rel, lat = _rel(S), S.carrier
    return all((a, x) in rel
               for a in range(S.n) for (b, x) in rel if lat.leq(a, b))


@_orc("D")
def _d(S):
    rel = _rel(S)
    return all(any((a, b) in rel and (b, c) in rel for b in range(S.n))
               for (a, c) in rel)


@_orc("T")
def _t(S):
    rel = _rel(S)
    return all((a, c) in rel
               for (a, b) in rel for (b2, c) in rel if b2 == b)


@_orc("CT")
def _ct(S):
    rel, lat = _rel(S), S.carrier
    return all((a, c) in rel
               for (a, b) in rel for (m, c) in rel if m == lat.meet[a][b])


@_orc("S6")
def _s6(S):
    rel, lat = _rel(S), S.carrier
    return all((lat.neg[b], lat.neg[a]) in rel for (a, b) in rel)


@_orc("S9_FWD")
def _s9f(S):
    rel, lat = _rel(S), S.carrier
    n = S.n
    for x, a, b in product(range(n), repeat=3):
        left = any((c, b) in rel and (x, lat.join[a][c]) in rel for c in range(n))
        right = any((ap, a) in rel and (bp, b) in rel
                    and lat.leq(x, lat.join[ap][bp])
                    for ap in range(n) for bp in range(n))
        if left and not right:
            return False
    return True


@_orc("S9_BWD")
def _s9b(S):
    rel, lat = _rel(S), S.carrier
    n = S.n
    for x, a, b in product(range(n), repeat=3):
        left = any((c, b) in rel and (x, lat.join[a][c]) in rel for c in range(n))
        right = any((ap, a) in rel and (bp, b) in rel
                    and lat.leq(x, lat.join[ap][bp])
                    for ap in range(n) for bp in range(n))
        if right and not left:
            return False
    return True


@_orc("SL1")
def _sl1(S):
    rel, lat = _rel(S), S.carrier
    n = S.n
    for a, b, c in product(range(n), repeat=3):
        if (a, lat.join[b][c]) in rel:
            if not any((bp, b) in rel and (cp, c) in rel
                       and (a, lat.join[bp][cp]) in rel
                       for bp in range(n) for cp in range(n)):
                return False
    return True


@_orc("SL2")
def _sl2(S):
    # direct-image witnesses, the order-dual of SL1
    rel, lat = _rel(S), S.carrier
    n = S.n
    for b, c, a in product(range(n), repeat=3):
        if (lat.meet[b][c], a) in rel:
            if not any((b, bp) in rel and (c, cp) in rel
                       and (lat.meet[bp][cp], a) in rel
                       for bp in range(n) for cp in range(n)):
                return False
    return True


def _pred_succ(S):
    return _pred_succ_of(S.rows)


@lru_cache(maxsize=64)
def _pred_succ_of(rows):
    rel, n = _pairs(rows), len(rows)
    pred = [[a for a in range(n) if (a, b) in rel] for b in range(n)]
    succ = [[b for b in range(n) if (a, b) in rel] for a in range(n)]
    return rel, pred, succ


def s9_witness_oracle(S, forward: bool):
    """First (x, a, b) at which forward (L => R) or backward (R => L) S9
    fails, taking a, b, x in that order (the order of the sweep; the
    tuple lists x first, as the rule states it); None when it holds.
    L: some c with c prec b and x prec a v c.  R: some a' prec a,
    b' prec b with x <= a' v b'."""
    rel, pred, _ = _pred_succ(S)
    lat, n = S.carrier, S.n
    for a, b, x in product(range(n), repeat=3):
        left = any((x, lat.join[a][c]) in rel for c in pred[b])
        right = any(lat.leq(x, lat.join[ap][bp]) for ap in pred[a] for bp in pred[b])
        if (left and not right) if forward else (right and not left):
            return (x, a, b)
    return None


def sl1_witness_oracle(S):
    """First (a, b, c) with a prec b v c but no b' prec b, c' prec c with
    a prec b' v c'; None when SL1 holds."""
    rel, pred, _ = _pred_succ(S)
    lat, n = S.carrier, S.n
    for a, b, c in product(range(n), repeat=3):
        if (a, lat.join[b][c]) in rel and not any(
                (a, lat.join[bp][cp]) in rel for bp in pred[b] for cp in pred[c]):
            return (a, b, c)
    return None


def sl2_witness_oracle(S):
    """First (b, c, a) with b ^ c prec a but no b prec b', c prec c' with
    b' ^ c' prec a (direct-image witnesses); None when SL2 holds."""
    rel, _, succ = _pred_succ(S)
    lat, n = S.carrier, S.n
    for b, c, a in product(range(n), repeat=3):
        if (lat.meet[b][c], a) in rel and not any(
                (lat.meet[bp][cp], a) in rel for bp in succ[b] for cp in succ[c]):
            return (b, c, a)
    return None


WITNESS_ORACLES = {
    "S9_FWD": lambda S: s9_witness_oracle(S, forward=True),
    "S9_BWD": lambda S: s9_witness_oracle(S, forward=False),
    "SL1": sl1_witness_oracle,
    "SL2": sl2_witness_oracle,
}


# ---- the five subset laws and the ten local properties -----------------
#
# Each returns its first witness in index order, or None, computed from
# the definitions over sets of elements.

def _members(carrier, mask: int) -> list[int]:
    return [x for x in range(carrier.n) if mask >> x & 1]


def _first(candidates):
    return next(iter(candidates), None)


@lru_cache(maxsize=None)
def _order(carrier) -> frozenset:
    """The order of a poset or lattice as its set of pairs."""
    return frozenset((x, y) for x in range(carrier.n) for y in range(carrier.n)
                     if carrier.leq(x, y))


def subset_law_oracle(carrier, mask: int, law: str):
    """First pair ``(x, y)`` of members (``x`` a member, ``y`` any
    element for ``up-closed``) at which the subset breaks ``law``."""
    M = _members(carrier, mask)
    inside, le = set(M), _order(carrier)
    if law == "up-closed":
        return _first((x, y) for x in M for y in range(carrier.n)
                      if (x, y) in le and y not in inside)
    if law in ("down-directed", "up-directed"):
        down = law == "down-directed"
        bounds = {x: {z for z in M if ((z, x) if down else (x, z)) in le} for x in M}
        return _first((x, y) for x in M for y in M if not bounds[x] & bounds[y])
    op = {"meet-closed": "meet", "join-closed": "join"}[law]
    return _first((x, y) for x in M for y in M
                  if getattr(carrier, op)[x][y] not in inside)


SUBSET_LAWS = ("up-closed", "down-directed", "up-directed", "meet-closed", "join-closed")


def _bottom(carrier) -> int:
    le = _order(carrier)
    return next(x for x in range(carrier.n) if all((x, y) in le for y in range(carrier.n)))


def _top(carrier) -> int:
    le = _order(carrier)
    return next(x for x in range(carrier.n) if all((y, x) in le for y in range(carrier.n)))


def wo_witness_oracle(S):
    """First (a, x, y) with a prec x <= y and not a prec y."""
    succ, le = _pred_succ(S)[2], _order(S.carrier)
    return _first((a, x, y) for a in range(S.n) for x in succ[a]
                  for y in range(S.n) if (x, y) in le and y not in succ[a])


def and_witness_oracle(S):
    """First (a, x, y) with a prec x, a prec y, not a prec x ^ y."""
    succ, meet = _pred_succ(S)[2], S.carrier.meet
    return _first((a, x, y) for a in range(S.n) for x in succ[a] for y in succ[a]
                  if meet[x][y] not in succ[a])


def dd_witness_oracle(S):
    """First (a, x, y) with a prec x, a prec y and no z below both with
    a prec z."""
    succ, le = _pred_succ(S)[2], _order(S.carrier)
    for a in range(S.n):
        below = {x: {z for z in succ[a] if (z, x) in le} for x in succ[a]}
        w = _first((a, x, y) for x in succ[a] for y in succ[a] if not below[x] & below[y])
        if w is not None:
            return w
    return None


def or_witness_oracle(S):
    """(a, b, x) with a prec x, b prec x, not a v b prec x; the first
    by x, then a, then b."""
    pred, join = _pred_succ(S)[1], S.carrier.join
    return _first((a, b, x) for x in range(S.n) for a in pred[x] for b in pred[x]
                  if join[a][b] not in pred[x])


def ud_witness_oracle(S):
    """(a, b, x) with a prec x, b prec x and no c above both with
    c prec x; the first by x, then a, then b."""
    pred, le = _pred_succ(S)[1], _order(S.carrier)
    for x in range(S.n):
        above = {a: {c for c in pred[x] if (a, c) in le} for a in pred[x]}
        w = _first((a, b, x) for a in pred[x] for b in pred[x] if not above[a] & above[b])
        if w is not None:
            return w
    return None


def prec_in_leq_witness_oracle(S):
    """First (a, b) with a prec b and not a <= b."""
    return _first((a, b) for a, b in sorted(_rel(S)) if (a, b) not in _order(S.carrier))


def leq_in_prec_witness_oracle(S):
    """First (a, b) with a <= b and not a prec b."""
    return _first(sorted(_order(S.carrier) - _rel(S)))


def proper_witness_oracle(S):
    """First (a,) with a not the bottom and no non-bottom b prec a."""
    bot, pred = _bottom(S.carrier), _pred_succ(S)[1]
    return _first((a,) for a in range(S.n)
                  if a != bot and not any(b != bot for b in pred[a]))


def bot_witness_oracle(S):
    bot = _bottom(S.carrier)
    return None if (bot, bot) in _rel(S) else ()


def top_witness_oracle(S):
    top = _top(S.carrier)
    return None if (top, top) in _rel(S) else ()


#: the ten local properties, each with its first witness
LOCAL_WITNESS_ORACLES = {
    "WO": wo_witness_oracle,
    "AND": and_witness_oracle,
    "DD": dd_witness_oracle,
    "OR": or_witness_oracle,
    "UD": ud_witness_oracle,
    "BOT": bot_witness_oracle,
    "TOP": top_witness_oracle,
    "PREC_IN_LEQ": prec_in_leq_witness_oracle,
    "LEQ_IN_PREC": leq_in_prec_witness_oracle,
    "PROPER": proper_witness_oracle,
}
for _name, _oracle in LOCAL_WITNESS_ORACLES.items():
    PROPERTY_ORACLES[_name] = lambda S, _oracle=_oracle: _oracle(S) is None


# ---- closure extremality ----------------------------------------------
#
# The laws of ``harness.maximality``'s docstring, decided over every map
# of the carrier: the closure diamond qualifies, lies below the diamond
# and dominates every qualifying map below it; for systems 1 and 2 the
# closure box qualifies, lies above the box and lies below every
# qualifying map above it.  Bounds are computed from the order alone.

@lru_cache(maxsize=None)
def _bound(le: frozenset, n: int, members: frozenset, lower: bool) -> int:
    """The greatest lower (or least upper) bound of ``members``; the
    empty set's is the top (or the bottom)."""
    if lower:
        cands = [x for x in range(n) if all((x, m) in le for m in members)]
        return next(x for x in cands if all((y, x) in le for y in cands))
    cands = [x for x in range(n) if all((m, x) in le for m in members)]
    return next(x for x in cands if all((x, y) in le for y in cands))


def _bounds_of(carrier, masks, lower: bool) -> tuple:
    le = _order(carrier)
    return tuple(_bound(le, carrier.n, frozenset(_members(carrier, m)), lower)
                 for m in masks)


def diamond_law_oracle(carrier, f, i: int) -> bool:
    """Join-preserving for systems 2 and 4; the contraction law
    ``f(a) <= f(a ^ f(a))`` for systems 3 and 4."""
    le, n = _order(carrier), carrier.n
    join = lambda a, b: _bound(le, n, frozenset((a, b)), False)
    meet = lambda a, b: _bound(le, n, frozenset((a, b)), True)
    if i in (2, 4) and any(f[join(a, b)] != join(f[a], f[b])
                           for a in range(n) for b in range(n)):
        return False
    return not (i in (3, 4) and any((f[a], f[meet(a, f[a])]) not in le
                                    for a in range(n)))


def box_law_oracle(carrier, g) -> bool:
    """Fixes the top and is submultiplicative over meets:
    ``g(x) ^ g(y) <= g(x ^ y)``."""
    le, n = _order(carrier), carrier.n
    meet = lambda a, b: _bound(le, n, frozenset((a, b)), True)
    return g[_top(carrier)] == _top(carrier) and all(
        (meet(g[x], g[y]), g[meet(x, y)]) in le for x in range(n) for y in range(n))


@lru_cache(maxsize=None)
def _monotone_maps(le: frozenset, n: int) -> tuple:
    """Every monotone map, found among all ``n^n`` maps."""
    return tuple(f for f in product(range(n), repeat=n)
                 if all((f[x], f[y]) in le for x, y in le))


_QUALIFYING = {}


def _qualifying(carrier, law, *args) -> tuple:
    le = _order(carrier)
    key = (le, carrier.n, law, args)
    if key not in _QUALIFYING:
        _QUALIFYING[key] = tuple(f for f in _monotone_maps(le, carrier.n)
                                 if law(carrier, f, *args))
    return _QUALIFYING[key]


def extremality_oracle(S, i: int, close=close_i, diamond_law=diamond_law_oracle,
                       box_law=box_law_oracle):
    """None when both closure-``i`` operators of the directed instance
    ``S`` are extremal, else ``(side, map)``: the closure map when it
    breaks its own laws or its bound, or else the first qualifying map
    it fails to dominate (diamond) or to lie below (box).  ``close(S,
    i)`` gives the closed relation (its ``rows`` and ``cols``), and the
    laws are ``diamond_law(carrier, f, i)`` and ``box_law(carrier, g)``;
    a test may plant any of them."""
    carrier = S.carrier
    le = _order(carrier)
    monotone = _monotone_maps(le, carrier.n)

    def below(f, g):
        return all((x, y) in le for x, y in zip(f, g))

    closed = close(S, i)
    dia = _bounds_of(carrier, S.rows, lower=True)
    dia_i = _bounds_of(carrier, closed.rows, lower=True)
    if not (below(dia_i, dia) and dia_i in monotone and diamond_law(carrier, dia_i, i)):
        return "diamond", dia_i
    for f in _qualifying(carrier, diamond_law, i):
        if below(f, dia) and not below(f, dia_i):
            return "diamond", f
    if i in (1, 2):
        box = _bounds_of(carrier, S.cols, lower=False)
        box_i = _bounds_of(carrier, closed.cols, lower=False)
        if not (below(box, box_i) and box_i in monotone and box_law(carrier, box_i)):
            return "box", box_i
        for g in _qualifying(carrier, box_law):
            if below(box, g) and not below(box_i, g):
                return "box", g
    return None


def eval_formula_oracle(f, valuation: dict) -> bool:
    kind = f[0]
    if kind == "var":
        return valuation[f[1]]
    if kind == "top":
        return True
    if kind == "bot":
        return False
    if kind == "not":
        return not eval_formula_oracle(f[1], valuation)
    if kind == "and":
        return eval_formula_oracle(f[1], valuation) and eval_formula_oracle(f[2], valuation)
    if kind == "or":
        return eval_formula_oracle(f[1], valuation) or eval_formula_oracle(f[2], valuation)
    if kind == "imp":
        return (not eval_formula_oracle(f[1], valuation)) or eval_formula_oracle(f[2], valuation)
    raise AssertionError(f)


def _bound_oracle(lat, a: int, b: int, lower: bool) -> int:
    """The greatest lower bound (``lower``) or least upper bound of ``a``
    and ``b``, read off the order alone."""
    le = (lambda x, y: lat.leq(x, y)) if lower else (lambda x, y: lat.leq(y, x))
    bounds = [c for c in range(lat.n) if le(c, a) and le(c, b)]
    (best,) = [c for c in bounds if all(le(d, c) for d in bounds)]
    return best


def term_value_oracle(t, assignment: dict, lat, unary: dict) -> int:
    """The value of the term ``t`` under one assignment of elements to its
    variables, one node at a time as the grammar reads it: ``T``/``F``
    the greatest/least element, ``&``/``|`` the meet/join found from the
    order, ``~ <> []`` the tables ``unary`` holds under ``not``/``dia``/
    ``box``, and ``a -> b`` the join of ``~a`` and ``b``."""
    kind = t[0]
    if kind == "var":
        return assignment[t[1]]
    if kind in ("top", "bot"):
        (end,) = [c for c in range(lat.n)
                  if all(lat.leq(d, c) if kind == "top" else lat.leq(c, d)
                         for d in range(lat.n))]
        return end
    if kind in ("not", "dia", "box"):
        return unary[kind][term_value_oracle(t[1], assignment, lat, unary)]
    left, right = (term_value_oracle(s, assignment, lat, unary) for s in t[1:])
    if kind == "imp":
        left = unary["not"][left]
    return _bound_oracle(lat, left, right, lower=kind == "and")


# ---- input/output logic ------------------------------------------------
#
# Makinson and van der Torre's semantic characterisations of out1..out4
# ("Input/output logics", J. Phil. Logic 29, 2000).  A formula is the set
# of valuations of the atoms that satisfy it; every theory is the up-set
# of such a set b, and the complete sets are the up-sets of the single
# valuations and of the empty set.  An intersection of up-sets is the
# up-set of the union, so each out_i(N, a) is the up-set of one set.

def _extension(f, atoms) -> frozenset:
    return frozenset(k for k, vals in enumerate(product((False, True), repeat=len(atoms)))
                     if eval_formula_oracle(f, dict(zip(atoms, vals))))


def out_oracle(norms, i: int, a, x, atoms) -> bool:
    """Whether ``x`` is in out_i(norms, a), for ``norms`` a list of
    (body, head) formulas over ``atoms``.  With h(b) the meet of the
    heads of the norms whose body lies above b:
    out1 = up h(a); out2 = up h(bot) cut with up h(v) over the
    valuations v in a; out3 = the cut of up h(b) over the b <= a with
    h(b) >= b; out4 = out2 cut only over the v with h(v) >= v."""
    full = frozenset(range(1 << len(atoms)))
    pairs = [(_extension(b, atoms), _extension(h, atoms)) for b, h in norms]

    def h(b):
        out = full
        for body, head in pairs:
            if b <= body:
                out &= head
        return out

    a = _extension(a, atoms)
    if i == 1:
        bound = h(a)
    elif i == 3:
        bound = frozenset().union(*(h(b) for b in map(frozenset, subsets(a))
                                    if b <= h(b)))
    else:
        bound = h(frozenset()).union(*(h({v}) for v in a if i == 2 or v in h({v})))
    return bound <= _extension(x, atoms)


def closure_output_oracle(norms, i: int, a, x, atoms) -> bool:
    """Whether ``x`` is in out_i(norms, a) by the closure route: each
    formula is the set of valuations satisfying it, as a bitmask and so
    an element of the free Boolean algebra on ``atoms``; the norm pairs
    are closed under the rules of system ``i`` by ``close_i``, and the
    query holds iff the pair (a, x) lands in the closure."""
    table = lambda f: mask_of(_extension(f, atoms))
    rows = _closed_norm_rows(len(atoms), frozenset((table(b), table(h)) for b, h in norms), i)
    return bool(rows[table(a)] >> table(x) & 1)


@lru_cache(maxsize=None)
def _closed_norm_rows(k: int, pairs: frozenset, i: int) -> tuple:
    lat, _ = free_boolean_algebra(k)
    return close_i(ProtoSubAlg.from_pairs(lat, pairs), i).rows


# ---- catalog laws, one pair at a time ----------------------------------
#
# The per-pair statements of the catalog's directed-family and
# bound-reflection laws, as the paper states them: in the canonical
# extension of the carrier (``dm_completion``, built here from the
# carrier), over its closed and open elements, through the embedding,
# and reading the sigma or pi extension of the operator, which the
# caller passes (so a test may plant it).  Directed subsets, embedded
# meets and joins and images are computed from the definitions.

def is_down_directed_oracle(p: FinPoset, mask: int) -> bool:
    return subset_law_oracle(p, mask, "down-directed") is None


def is_up_directed_oracle(p: FinPoset, mask: int) -> bool:
    return subset_law_oracle(p, mask, "up-directed") is None


_DIRECTED = {}


def _directed_masks(p: FinPoset, down: bool) -> list[int]:
    key = (tuple(p.up), down)
    if key not in _DIRECTED:
        directed = is_down_directed_oracle if down else is_up_directed_oracle
        _DIRECTED[key] = [m for m in range(1, 1 << p.n) if directed(p, m)]
    return _DIRECTED[key]


def _image_of(rows, members: int) -> int:
    acc = 0
    for a in bits(members):
        acc |= rows[a]
    return acc


def _meet_of_base(ext, m: int) -> int:
    return ext.delta.meet_all(sum(1 << ext.embed[x] for x in bits(m)))


def _join_of_base(ext, m: int) -> int:
    return ext.delta.join_all(sum(1 << ext.embed[x] for x in bits(m)))


def law_directed_image_oracle(inst) -> bool:
    p = inst.S.poset
    return all(is_down_directed_oracle(p, _image_of(inst.S.rows, m))
               for m in _directed_masks(p, down=True))


def law_codirected_preimage_oracle(inst) -> bool:
    p = inst.S.poset
    return all(is_up_directed_oracle(p, _image_of(inst.S.cols, m))
               for m in _directed_masks(p, down=False))


def law_dia_of_meet_oracle(inst, sigma) -> bool:
    ext = dm_completion(inst.ctx.lat)
    closed_eff = ext.closed | 1 << ext.delta.top
    for m in _directed_masks(inst.S.poset, down=True):
        want = _meet_of_base(ext, _image_of(inst.S.rows, m))
        if sigma[_meet_of_base(ext, m)] != want or not closed_eff >> want & 1:
            return False
    return True


def law_box_of_join_oracle(inst, pi) -> bool:
    ext = dm_completion(inst.ctx.lat)
    open_eff = ext.open | 1 << ext.delta.bot
    for m in _directed_masks(inst.S.poset, down=False):
        want = _join_of_base(ext, _image_of(inst.S.cols, m))
        if pi[_join_of_base(ext, m)] != want or not open_eff >> want & 1:
            return False
    return True


def law_dia_bound_reflects_oracle(inst, sigma) -> bool:
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    for k in bits(ext.closed):
        sk = sigma[k]
        for b in range(inst.S.n):
            if d.leq(sk, embed[b]):
                if not any(d.leq(k, embed[a]) and inst.S.rows[a] >> b & 1
                           for a in range(inst.S.n)):
                    return False
    return True


def law_dia_open_bound_reflects_oracle(inst, sigma) -> bool:
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    for k in bits(ext.closed):
        sk = sigma[k]
        for o in bits(ext.open):
            if d.leq(sk, o):
                if not any(d.leq(k, embed[a]) and d.leq(embed[b], o)
                           and inst.S.rows[a] >> b & 1
                           for a in range(inst.S.n) for b in range(inst.S.n)):
                    return False
    return True


def law_box_bound_reflects_oracle(inst, pi) -> bool:
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    for o in bits(ext.open):
        po = pi[o]
        for a in range(inst.S.n):
            if d.leq(embed[a], po):
                if not any(d.leq(embed[b], o) and inst.S.rows[a] >> b & 1
                           for b in range(inst.S.n)):
                    return False
    return True


def law_box_closed_bound_reflects_oracle(inst, pi) -> bool:
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    for o in bits(ext.open):
        po = pi[o]
        for k in bits(ext.closed):
            if d.leq(k, po):
                if not any(d.leq(k, embed[a]) and d.leq(embed[b], o)
                           and inst.S.rows[a] >> b & 1
                           for a in range(inst.S.n) for b in range(inst.S.n)):
                    return False
    return True


#: catalog check name -> (oracle, the operator whose sigma/pi extension it
#: reads: "dia", "box" or None)
LAW_ORACLES = {
    "directed-image-directed": (law_directed_image_oracle, None),
    "codirected-preimage-directed": (law_codirected_preimage_oracle, None),
    "diamond-of-meet": (law_dia_of_meet_oracle, "dia"),
    "box-of-join": (law_box_of_join_oracle, "box"),
    "diamond-bound-reflects": (law_dia_bound_reflects_oracle, "dia"),
    "diamond-open-bound-reflects": (law_dia_open_bound_reflects_oracle, "dia"),
    "box-bound-reflects": (law_box_bound_reflects_oracle, "box"),
    "box-closed-bound-reflects": (law_box_closed_bound_reflects_oracle, "box"),
}


# The three local laws of the catalog, stated per instance over pairs of
# elements, reading the instance's diamond and box into the completion
# of its carrier (``dm_completion``).  The catalog decides each as row
# and column tests from per-carrier tables; ``LOCAL_LAW_ORACLES`` gives,
# per law, the oracle of each of its sides.

def rel_bounds_dia_oracle(inst) -> bool:
    # a rel b forces <>a <= b
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    return all(d.leq(inst.dia[a], embed[b])
               for a in range(inst.S.n) for b in bits(inst.S.rows[a]))


def rel_bounds_box_oracle(inst) -> bool:
    # a rel b forces a <= []b
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    return all(d.leq(embed[a], inst.box[b])
               for a in range(inst.S.n) for b in bits(inst.S.rows[a]))


def law_rel_bounds_oracle(inst) -> bool:
    # a rel b forces <>a <= b and a <= []b
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    return all(d.leq(inst.dia[a], embed[b]) and d.leq(embed[a], inst.box[b])
               for a in range(inst.S.n) for b in bits(inst.S.rows[a]))


def law_dia_detects_oracle(inst) -> bool:
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    return all((d.leq(inst.dia[a], embed[b])) == bool(inst.S.rows[a] >> b & 1)
               for a in range(inst.S.n) for b in range(inst.S.n))


def law_box_detects_oracle(inst) -> bool:
    ext = dm_completion(inst.ctx.lat)
    d, embed = ext.delta, ext.embed
    return all((d.leq(embed[a], inst.box[b])) == bool(inst.S.rows[a] >> b & 1)
               for a in range(inst.S.n) for b in range(inst.S.n))


#: check name -> (oracle of the law, oracle of each side by "rows"/"cols")
LOCAL_LAW_ORACLES = {
    "bounds-of-related-pairs": (law_rel_bounds_oracle,
                                {"rows": rel_bounds_dia_oracle, "cols": rel_bounds_box_oracle}),
    "diamond-detects-rel": (law_dia_detects_oracle, {"rows": law_dia_detects_oracle}),
    "box-detects-rel": (law_box_detects_oracle, {"cols": law_box_detects_oracle}),
}


def check_oracle(mode: str, inst, precondition=None, lhs=None, rhs=None, law=None):
    """One check on one instance, each part a predicate of the instance,
    called as the check states it (no precondition always holds):
    ``("skip", None)`` where the precondition fails, else ``("pass",
    None)`` or ``("fail", detail)`` with the detail a report stores,
    ``{"law": False}`` or the lhs/rhs verdicts."""
    if precondition is not None and not precondition(inst):
        return "skip", None
    if mode == "law":
        return ("pass", None) if law(inst) else ("fail", {"law": False})
    left = bool(lhs(inst))
    if mode == "implies":
        return ("pass", None) if not left or rhs(inst) else ("fail", {"lhs": True, "rhs": False})
    right = bool(rhs(inst))
    return ("pass", None) if left == right else ("fail", {"lhs": left, "rhs": right})


# ---- dual-space conditions, point by point --------------------------------

def signature_oracle(sp, i: int) -> tuple:
    """The invariants of point ``i`` that ``duality.spaces_isomorphic``
    matches before its search, counted point by point."""
    oc = sum(1 for j in range(sp.m) if sp.leq(j, i))
    rc = sum(1 for j in range(sp.m) if sp.rel(j, i))
    return (bin(sp.order[i]).count("1"), oc, bin(sp.R[i]).count("1"), rc,
            sp.rel(i, i))


def check_relational_oracle(sp, cond) -> tuple:
    """A relational condition of ``duality.RelCondition`` evaluated
    verbatim over the points, each existential a loop over every point;
    on failure the first witnessing tuple of point positions."""
    m = sp.m
    R, leq = sp.rel, sp.leq

    if cond is C.REFLEXIVE:
        for i in range(m):
            if not R(i, i):
                return False, (i,)
        return True, None
    if cond is C.TRANSITIVE:
        for i in range(m):
            for j in bits(sp.R[i]):
                for k in bits(sp.R[j]):
                    if not R(i, k):
                        return False, (i, j, k)
        return True, None
    if cond is C.DENSE:
        for i in range(m):
            for j in bits(sp.R[i]):
                if not any(R(i, k) and R(k, j) for k in range(m)):
                    return False, (i, j)
        return True, None
    if cond is C.CT_REL:
        for j in range(m):
            for i in bits(sp.R[j]):
                if not any(leq(k, j) and R(j, k) and R(k, i) for k in range(m)):
                    return False, (j, i)
        return True, None
    if cond is C.S9_FWD_REL:
        for i3 in range(m):
            for i1 in range(m):
                for i2 in range(m):
                    if R(i3, i1) and R(i3, i2):
                        if not any(leq(i1, j) and R(j, i2) and R(i3, j)
                                   for j in range(m)):
                            return False, (i3, i1, i2)
        return True, None
    if cond is C.S9_BWD_REL:
        for i3 in range(m):
            for i1 in range(m):
                for i2 in range(m):
                    if any(leq(i1, j) and R(j, i2) and R(i3, j) for j in range(m)):
                        if not (R(i3, i1) and R(i3, i2)):
                            return False, (i3, i1, i2)
        return True, None
    if cond is C.SL1_REL:
        for i4 in range(m):
            for i1 in bits(sp.R[i4]):
                for i2 in bits(sp.R[i4]):
                    for i3 in range(m):
                        if R(i3, i4):
                            if not any(leq(i1, j) and leq(i2, j) and R(i3, j)
                                       for j in range(m)):
                                return False, (i4, i1, i2, i3)
        return True, None
    if cond is C.SL2_REL:
        for i4 in range(m):
            for i1 in range(m):
                for i2 in range(m):
                    if R(i1, i4) and R(i2, i4):
                        for i3 in bits(sp.R[i4]):
                            if not any(leq(j, i1) and leq(j, i2) and R(j, i3)
                                       for j in range(m)):
                                return False, (i1, i2, i4, i3)
        return True, None
    if cond is C.PROPER_REL:
        full = (1 << m) - 1
        for y in range(full):  # proper up-sets only (y != full)
            if any(sp.order[i] & ~y for i in bits(y)):
                continue
            if all(sp.R[p] & y for p in range(m)):
                return False, tuple(bits(y))
        return True, None
    raise AssertionError(cond)
