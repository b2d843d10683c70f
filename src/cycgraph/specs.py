"""Symbolic group specs: the catalog grammar and abelian-group enumeration.

Grammar accepted by :func:`parse_spec`::

    Z(n) | D(n) | Dic(m) | Q(2^a) | S(n) | A(n)
    atom x atom x ...          (direct products of at most ORDER_CAP.bit_length() atoms)
    file:cayley:<path> | file:perm:<path>

Q(2^a) is sugar for Dic(2^(a-2)); whitespace is ignored.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import groups
from .arith import factorize, partitions, prime_power
from .errors import OrderCapExceeded, SpecParseError
from .groups import FiniteGroup


class _Atom(NamedTuple):
    prefix: str                             # descriptor and parser name: "D" in D(4)
    arg: str                                # the parameter's name in parse errors
    least: int                              # smallest parameter the parser accepts
    order: Callable[[int], int]             # group order from the parameter
    construct: Callable[[int], FiniteGroup] # parameter -> group, under groups.ORDER_CAP


_ATOMS = {
    "cyclic": _Atom("Z", "n", 1, lambda n: n, groups.cyclic),
    "dihedral": _Atom("D", "n", 1, lambda n: 2 * n, groups.dihedral),
    "dicyclic": _Atom("Dic", "m", 2, lambda m: 4 * m, groups.dicyclic),
    "symmetric": _Atom("S", "n", 1, math.factorial, groups.symmetric),
    "alternating": _Atom("A", "n", 1, lambda n: max(math.factorial(n) // 2, 1), groups.alternating),
}
_KIND_OF_PREFIX = {atom.prefix: kind for kind, atom in _ATOMS.items()}
_FILE_PREFIXES = {"cayley_file": "file:cayley:", "perm_file": "file:perm:"}


def _atom(kind: str) -> _Atom:
    if kind not in _ATOMS:
        raise SpecParseError(f"unknown spec kind {kind!r}")
    return _ATOMS[kind]


@dataclass(frozen=True)
class GroupSpec:
    kind: str                         # product, a key of _ATOMS or of _FILE_PREFIXES
    params: tuple = field(default=())

    @property
    def descriptor(self) -> str:
        k, p = self.kind, self.params
        if k == "product":
            return "x".join(c.descriptor for c in p)
        if k in _FILE_PREFIXES:
            return _FILE_PREFIXES[k] + p[0]
        return f"{_atom(k).prefix}({p[0]})"

    def order(self) -> int | None:
        """Group order, or None for file-backed specs (unknown before realization)."""
        k, p = self.kind, self.params
        if k == "product":
            orders = [c.order() for c in p]
            return None if None in orders else math.prod(orders)
        return _ATOMS[k].order(p[0]) if k in _ATOMS else None

    def realize(self) -> FiniteGroup:
        k, p = self.kind, self.params
        if k == "product":
            g = p[0].realize()
            for child in p[1:]:
                g = groups.direct_product(g, child.realize())
            return g
        if k == "cayley_file":
            return groups.read_cayley_file(p[0])
        if k == "perm_file":
            return groups.read_permutation_file(p[0])
        return _atom(k).construct(p[0])


def Zs(*orders: int) -> GroupSpec:
    """Convenience: direct product of cyclic groups Z(orders[0]) x ..."""
    if len(orders) == 1:
        return GroupSpec("cyclic", (orders[0],))
    return GroupSpec("product", tuple(GroupSpec("cyclic", (n,)) for n in orders))


_ATOM_RE = re.compile(r"^(Z|D|Dic|Q|S|A)\(([0-9]+)(?:\^([0-9]+))?\)$")


def _saturated(digits: str) -> int:
    """int(digits) when it has no more digits than groups.ORDER_CAP, else ORDER_CAP + 1
    without converting the long string."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(groups.ORDER_CAP)) else groups.ORDER_CAP + 1


#: characters kept from each end of an over-long atom echoed in an error line
ECHO_KEEP = 24


def _echo(text: str) -> str:
    """text for an error line: its first and last ECHO_KEEP characters when longer."""
    if len(text) <= 2 * ECHO_KEEP + 3:
        return text
    return f"{text[:ECHO_KEEP]}...{text[-ECHO_KEEP:]}"


def _parse_atom(text: str) -> GroupSpec:
    m = _ATOM_RE.match(text)
    if not m:
        raise SpecParseError(f"cannot parse group atom {_echo(text)!r}")
    name, base, exp = m.groups()
    val, e = _saturated(base), _saturated(exp or "1")
    # 2^e > ORDER_CAP from e = its bit length on, so no large power is computed
    val = val**e if val <= 1 or e <= groups.ORDER_CAP.bit_length() else groups.ORDER_CAP + 1
    if val > groups.ORDER_CAP:  # every atom's order is at least its argument
        raise OrderCapExceeded(f"{_echo(text)}: argument exceeds order cap {groups.ORDER_CAP}")
    if name == "Q":
        pp = prime_power(val)
        if pp is None or pp[0] != 2 or val < 8:
            raise SpecParseError(f"Q(k) needs k a power of two >= 8, got {val}")
        return GroupSpec("dicyclic", (val // 4,))
    kind = _KIND_OF_PREFIX[name]
    atom = _ATOMS[kind]
    if val < atom.least:
        raise SpecParseError(f"{name}({atom.arg}) needs {atom.arg} >= {atom.least}, got {val}")
    if atom.order(val) > groups.ORDER_CAP:  # else S(n) and A(n) enumerate up to the cap first
        raise OrderCapExceeded(f"{_echo(text)}: order exceeds cap {groups.ORDER_CAP}")
    return GroupSpec(kind, (val,))


def parse_spec(text: str) -> GroupSpec:
    s = text.strip()
    for kind, prefix in _FILE_PREFIXES.items():
        if s.startswith(prefix):
            return GroupSpec(kind, (s[len(prefix):],))
    s = re.sub(r"\s", "", s)
    if not s:
        raise SpecParseError("empty group spec")
    texts = s.split("x")
    # every atom but Z(1), S(1), A(1) and A(2) at least doubles the order
    most = groups.ORDER_CAP.bit_length()
    if len(texts) > most:
        raise SpecParseError(f"{_echo(s)}: a product takes at most {most} factors, got {len(texts)}")
    atoms = [_parse_atom(a) for a in texts]
    if len(atoms) == 1:
        return atoms[0]
    return GroupSpec("product", tuple(atoms))


# --- abelian group enumeration ----------------------------------------------

def abelian_groups_of_order(n: int) -> list[GroupSpec]:
    """One spec per isomorphism class of abelian groups of order n, in
    invariant-factor form: Z(36), Z(12)xZ(3), Z(18)xZ(2), Z(6)xZ(6).

    A class is one partition lambda_p of each prime's exponent.  Partitions
    are non-increasing, so the i-th factor prod_p p^lambda_p[i] divides the
    one before; the cyclic class Z(n) comes first, and n = 1 gives Z(1).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    fact = factorize(n)
    out = []
    for parts in itertools.product(*(partitions(a) for _, a in fact)):
        out.append(Zs(*(
            math.prod(p ** lam[i] for (p, _), lam in zip(fact, parts) if i < len(lam))
            for i in range(max(map(len, parts), default=1))
        )))
    return out


def abelian_prime_signature(spec: GroupSpec) -> tuple[tuple[int, int], ...] | None:
    """Multiset of (prime, exponent) parts if the spec is a product of cyclics."""
    if spec.kind == "cyclic":
        children = [spec]
    elif spec.kind == "product" and all(c.kind == "cyclic" for c in spec.params):
        children = list(spec.params)
    else:
        return None
    sig = []
    for c in children:
        sig.extend(factorize(c.params[0]))
    return tuple(sorted(sig))


def is_cyclic_spec(spec: GroupSpec) -> bool:
    """True when the spec denotes a cyclic group (in its abelian normal form)."""
    sig = abelian_prime_signature(spec)
    if sig is None:
        return False
    primes = [p for p, _ in sig]
    return len(primes) == len(set(primes))


def in_planar_classification(spec: GroupSpec) -> bool:
    """Membership in the planar list for non-cyclic abelian groups:
    Z_p^n, Z4xZ2, Z9xZ3, Z_2q x Z2 (q odd prime), Z4xZ4."""
    sig = abelian_prime_signature(spec)
    if sig is None:
        raise ValueError(f"{spec.descriptor} is not in abelian normal form")
    if all(e == 1 for _, e in sig) and len({p for p, _ in sig}) == 1:
        return True  # elementary abelian Z_p^n
    if sig in (((2, 1), (2, 2)), ((3, 1), (3, 2)), ((2, 2), (2, 2))):
        return True
    if len(sig) == 3:
        s = sorted(sig)
        if s[0] == (2, 1) and s[1] == (2, 1) and s[2][1] == 1 and s[2][0] != 2:
            return True  # Z_2q x Z_2 = Z2 x Z2 x Zq
    return False
