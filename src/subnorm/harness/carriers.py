"""Built-in carrier lattices for the verification corpus.

Every built-in is bounded and distributive; ``b4``/``b8`` are the
Boolean algebras with two/three atoms (complement tables attached),
``fdl2`` is the six-element free bounded distributive lattice on two
generators, and the chains are self-explanatory.
"""

from __future__ import annotations

import os
from functools import lru_cache

from ..errors import InputFormatError
from ..order import (
    FinLattice,
    lattice_from_json,
    load_json,
    poset_from_hasse,
    to_lattice,
)


def _chain(n: int) -> FinLattice:
    return to_lattice(poset_from_hasse(n, [(i, i + 1) for i in range(n - 1)],
                                       [str(i) for i in range(n)]))


def _boolean(atoms: int) -> FinLattice:
    n = 1 << atoms
    names = "xyz"
    labels = ["1" if v == n - 1 else "0" if v == 0 else
              "".join(names[i] for i in range(atoms) if v >> i & 1)
              for v in range(n)]
    covers = [(v, v | 1 << i) for v in range(n) for i in range(atoms)
              if not v >> i & 1]
    return to_lattice(poset_from_hasse(n, covers, labels))


def _fdl2() -> FinLattice:
    # 0 < a^b < a, b < a|b < 1: the free bounded distributive lattice on {a, b}
    labels = ["0", "a^b", "a", "b", "a|b", "1"]
    return to_lattice(poset_from_hasse(
        6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], labels))


_BUILDERS = {
    "chain2": lambda: _chain(2),
    "chain3": lambda: _chain(3),
    "chain4": lambda: _chain(4),
    "chain5": lambda: _chain(5),
    "b4": lambda: _boolean(2),
    "b8": lambda: _boolean(3),
    "fdl2": _fdl2,
}


def carrier_names() -> list[str]:
    return sorted(_BUILDERS)


@lru_cache(maxsize=None)
def _builtin(name: str) -> FinLattice:
    return _BUILDERS[name]()


#: the JSON carriers read so far: absolute path -> ((st_mtime_ns,
#: st_size) of the file when read, its lattice)
_FILES: dict[str, tuple[tuple[int, int], FinLattice]] = {}


def load_carrier(name: str) -> FinLattice:
    """A built-in by name, or a lattice from an algebra JSON file as the
    file is now: the same lattice object while the file is unchanged."""
    if name in _BUILDERS:
        return _builtin(name)
    if name.endswith(".json"):
        st = os.stat(name)
        stamp = (st.st_mtime_ns, st.st_size)
        path = os.path.abspath(name)
        if _FILES.get(path, (None,))[0] != stamp:
            _FILES[path] = (stamp, lattice_from_json(load_json(name)))
        return _FILES[path][1]
    raise InputFormatError(
        f"unknown carrier {name!r}; built-ins: {', '.join(carrier_names())} "
        "(or pass an algebra JSON path)")
