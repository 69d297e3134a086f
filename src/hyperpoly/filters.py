"""Finite filter models and the ideal/filter dictionary for products of fields.

On a finite index set every filter is principal, so these models are small
enough to enumerate exhaustively; that is exactly what makes them usable as a
desk-scale stand-in for the ultrafilter machinery.  The dictionary implemented
here sends an ideal of a product of prime fields to the filter of zero sets of
its elements, and back.
"""

from __future__ import annotations

import math
from itertools import product as iproduct
from typing import Callable, Iterable

from .record import Record, _set

MAX_INDEX_SET = 12
# the most elements a ProductRing may have.  kochen enumerates every ideal and
# tests primality over all element pairs: F_2^7 (128 elements) takes about
# 2 s, and the cost grows 5-6x per index
MAX_RING_ELEMENTS = 128


class SizeError(ValueError):
    """Index set too large for exhaustive verification."""


class FiniteFilterModel(Record, frozen=True):
    __slots__ = ("index_set", "members")
    def __init__(self, index_set: frozenset, members: frozenset):
        _set(self, "index_set", index_set)
        _set(self, "members", members)  # frozenset of frozensets
        if len(self.index_set) > MAX_INDEX_SET:
            raise SizeError(f"index set larger than {MAX_INDEX_SET}")
        if frozenset(self.index_set) not in self.members:
            raise ValueError("a filter must contain the full index set")
        for a in self.members:
            if not a <= self.index_set:
                raise ValueError("members must be subsets of the index set")
            for b in self.members:
                if a & b not in self.members:
                    raise ValueError("members must be closed under intersection")
            for c in _subsets(self.index_set):
                if a <= c and c not in self.members:
                    raise ValueError("members must be closed under superset")

    @staticmethod
    def principal(index_set: Iterable, base: Iterable) -> "FiniteFilterModel":
        index_set = frozenset(index_set)
        base = frozenset(base)
        if not base <= index_set:
            raise ValueError("base must be a subset of the index set")
        members = frozenset(c for c in _subsets(index_set) if base <= c)
        return FiniteFilterModel(index_set, members)

    @property
    def proper(self) -> bool:
        return frozenset() not in self.members

    @property
    def base(self) -> frozenset:
        """The minimal member (finite filters are principal)."""
        out = frozenset(self.index_set)
        for a in self.members:
            out &= a
        return out

    def to_json(self):
        return {
            "indexSet": sorted(self.index_set),
            "members": sorted(
                (sorted(a) for a in self.members), key=lambda s: (len(s), s)
            ),
        }


def _subsets(s: frozenset):
    items = sorted(s)
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[j] for j in range(n) if mask >> j & 1)


def is_ultrafilter(f: FiniteFilterModel) -> bool:
    """Exhaustive check: proper, and A or its complement for every A."""
    if not f.proper:
        return False
    for a in _subsets(f.index_set):
        if a not in f.members and (f.index_set - a) not in f.members:
            return False
    return True


def enumerate_filters(index_set: Iterable) -> list[FiniteFilterModel]:
    """All filters on the index set: one principal filter per base subset."""
    index_set = frozenset(index_set)
    if len(index_set) > MAX_INDEX_SET:
        raise SizeError(f"index set larger than {MAX_INDEX_SET}")
    return [FiniteFilterModel.principal(index_set, b) for b in _subsets(index_set)]


# ---------------------------------------------------------------------------
# products of prime fields
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ProductRing(Record, frozen=True):
    """The ring prod_{i in I} F_{p_i}, elements as tuples over sorted(I)."""

    __slots__ = ("labels", "primes")

    @staticmethod
    def uniform(index_set: Iterable, p: int) -> "ProductRing":
        labels = tuple(sorted(index_set))
        return ProductRing(labels, tuple(p for _ in labels))

    def __init__(self, labels: tuple, primes: tuple):
        _set(self, "labels", labels)    # sorted index labels
        _set(self, "primes", primes)    # prime modulus per label
        if len(self.labels) > MAX_INDEX_SET:
            raise SizeError(f"index set larger than {MAX_INDEX_SET}")
        if len(self.labels) != len(self.primes):
            raise ValueError("one modulus per label")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        size = math.prod(self.primes)
        if size > MAX_RING_ELEMENTS:
            raise SizeError(f"ring has {size} elements, more than {MAX_RING_ELEMENTS} "
                            "for exhaustive verification")

    @property
    def index_set(self) -> frozenset:
        return frozenset(self.labels)

    def elements(self):
        return iproduct(*(range(p) for p in self.primes))

    def mul(self, f, g):
        return tuple((a * b) % p for a, b, p in zip(f, g, self.primes))

    def zero_set(self, f) -> frozenset:
        return frozenset(l for l, a in zip(self.labels, f) if a == 0)

    def principal_ideal(self, f) -> frozenset:
        return frozenset(self.mul(r, f) for r in self.elements())

    def all_ideals(self) -> list[frozenset]:
        """Every ideal (a finite product of fields has only principal ones)."""
        seen = {}
        for f in self.elements():
            ideal = self.principal_ideal(f)
            seen[ideal] = f
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def is_prime_ideal(self, ideal) -> bool:
        ideal = set(map(tuple, ideal))
        one = tuple(1 for _ in self.labels)
        if one in ideal:
            return False
        for f in self.elements():
            for g in self.elements():
                if self.mul(f, g) in ideal and f not in ideal and g not in ideal:
                    return False
        return True


def kochen_ideal_to_filter(ring: ProductRing, ideal_gens) -> FiniteFilterModel:
    """The filter {Z(f) | f in the generated ideal}.

    In a product of fields the generated ideal is supported exactly on the
    union of the generators' supports, so the answer is the principal filter
    at the complement of that union; an enumeration of the generated ideal in
    the test suite double-checks this on small instances.
    """
    zero_common = ring.index_set
    for g in ideal_gens:
        zero_common &= ring.zero_set(tuple(g))
    return FiniteFilterModel.principal(ring.index_set, zero_common)


def kochen_filter_to_ideal(ring: ProductRing, f: FiniteFilterModel) -> Callable:
    """Membership predicate of Id(F) = {f | Z(f) in F}."""
    if f.index_set != ring.index_set:
        raise ValueError("filter and ring live on different index sets")

    def member(g) -> bool:
        return ring.zero_set(tuple(g)) in f.members

    return member
