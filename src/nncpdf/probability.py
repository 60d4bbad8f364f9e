"""Dense probability tensors over labeled finite variables and the
information measures (entropy, conditional mutual information) built on them.

All masses are float64, all logarithms are base 2 (bits).  A joint remembers
each entropy it has been asked for, one value per distinct set of axes.
Variables with alphabet size 1 are allowed; being constants they contribute
nothing to any information measure, which is how degenerate auxiliaries are
encoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CyclicFactorization,
    NegativeMass,
    NotNormalized,
    OverlappingSets,
    RowNotNormalized,
    ShapeMismatch,
    StateSpaceTooLarge,
    UnknownVariable,
)

NORMALIZATION_TOL = 1e-9
NEGATIVE_MASS_TOL = -1e-15
MAX_STATES = 2 ** 24


@dataclass(frozen=True)
class Var:
    """A labeled finite variable; ``block`` is used only by unfolded networks."""

    name: str
    block: int | None = None

    def __str__(self) -> str:
        if self.block is None:
            return self.name
        return f"{self.name}@{self.block}"

    def sort_key(self):
        return (self.name, -1 if self.block is None else self.block)


def _as_var(v) -> Var:
    return v if isinstance(v, Var) else Var(str(v))


def _var_set(vs: Iterable) -> frozenset[Var]:
    if isinstance(vs, frozenset) and all(isinstance(v, Var) for v in vs):
        return vs
    return frozenset(_as_var(v) for v in vs)


@dataclass(frozen=True)
class InfoAtom:
    """Names one conditional mutual-information expression I(left; right | cond)."""

    left: frozenset[Var]
    right: frozenset[Var]
    cond: frozenset[Var] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "left", _var_set(self.left))
        object.__setattr__(self, "right", _var_set(self.right))
        object.__setattr__(self, "cond", _var_set(self.cond))
        if not self.left or not self.right:
            raise OverlappingSets("atom left and right sets must be nonempty")
        if (self.left & self.right) or (self.left & self.cond) or (self.right & self.cond):
            raise OverlappingSets(f"atom sets overlap: {self}")

    def variables(self) -> frozenset[Var]:
        return self.left | self.right | self.cond

    def __str__(self) -> str:
        def fmt(s):
            return ",".join(str(v) for v in sorted(s, key=Var.sort_key))

        base = f"I({fmt(self.left)};{fmt(self.right)}"
        if self.cond:
            base += f"|{fmt(self.cond)}"
        return base + ")"


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Dense pmf over an ordered list of labeled finite variables.

    ``mass`` has shape equal to the tuple of alphabet sizes, row-major over
    the variable list.  Equality and hashing are by identity: each joint
    owns its entropy memo.
    """

    variables: tuple[tuple[Var, int], ...]
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        variables = tuple((_as_var(v), int(n)) for v, n in self.variables)
        object.__setattr__(self, "variables", variables)
        if len(self._axis) != len(variables):
            raise ShapeMismatch("duplicate variable labels in joint")
        sizes = tuple(n for _, n in variables)
        if any(n < 1 for n in sizes):
            raise ShapeMismatch("alphabet sizes must be >= 1")
        total = int(np.prod(sizes, dtype=np.int64)) if sizes else 1
        if total > MAX_STATES:
            raise StateSpaceTooLarge(f"{total} states exceeds cap {MAX_STATES}")
        arr = np.asarray(self.mass, dtype=float)
        if arr.size != total:
            raise ShapeMismatch(
                f"mass has {arr.size} entries, expected {total} for sizes {sizes}"
            )
        arr = arr.reshape(sizes)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mass", arr)

    @classmethod
    def _computed(cls, variables, mass: np.ndarray) -> "JointDistribution":
        """Wrap an array this module has just computed from a valid joint:
        no re-validation and no copy."""
        d = object.__new__(cls)
        mass = mass.reshape(tuple(n for _, n in variables))
        mass.setflags(write=False)
        object.__setattr__(d, "variables", variables)
        object.__setattr__(d, "mass", mass)
        return d

    @cached_property
    def _axis(self) -> dict[Var, int]:
        return {v: i for i, (v, _) in enumerate(self.variables)}

    @cached_property
    def _entropies(self) -> dict[frozenset[int], float]:
        """H(A) in bits per axis set A, filled on demand by ``entropy``."""
        return {}

    def axes_of(self, vs: Iterable[Var]) -> list[int]:
        order = self._axis
        try:
            return [order[_as_var(v)] for v in vs]
        except KeyError as exc:
            raise UnknownVariable(str(exc.args[0])) from None


def validate_pmf(d: JointDistribution) -> JointDistribution:
    """Check normalization and non-negativity; returns ``d`` unchanged."""
    arr = d.mass
    if arr.min(initial=0.0) < NEGATIVE_MASS_TOL:
        raise NegativeMass(f"minimum entry {arr.min()}")
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"mass sums to {total}")
    return d


def joint(variables: Sequence[tuple[Var | str, int]], mass) -> JointDistribution:
    """Build and validate a joint distribution, clamping tiny negative mass."""
    d = JointDistribution(tuple(variables), np.asarray(mass, dtype=float))
    validate_pmf(d)
    if d.mass.min(initial=0.0) < 0.0:
        arr = np.clip(d.mass, 0.0, None)
        d = JointDistribution(d.variables, arr)
    return d


def marginalize(d: JointDistribution, keep: Iterable[Var]) -> JointDistribution:
    """Marginal of ``d`` over exactly the variables in ``keep``."""
    axes = d.axes_of(keep)
    keep_axes = set(axes)
    drop = tuple(i for i in range(len(d.variables)) if i not in keep_axes)
    arr = d.mass.sum(axis=drop) if drop else d.mass
    # the kept axes remain in joint order; reorder them to the requested order
    rank = {a: i for i, a in enumerate(sorted(keep_axes))}
    perm = [rank[a] for a in axes]
    arr = np.transpose(arr, perm) if perm else arr
    variables = tuple(d.variables[a] for a in axes)
    return JointDistribution._computed(variables, np.ascontiguousarray(arr))


def _plain_entropy(arr: np.ndarray) -> float:
    p = arr.reshape(-1)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def _joint_entropy(d: JointDistribution, a: frozenset[Var]) -> float:
    """H(a) in bits, computed once per distinct axis set of ``d``.

    A miss always reduces the full joint with ``marginalize`` and flattens
    the marginal in ``Var.sort_key`` order, so the memo returns exactly the
    floats of an uncached evaluation.
    """
    axis = d._axis
    try:
        key = frozenset([axis[v] for v in a])
    except KeyError as exc:
        raise UnknownVariable(str(exc.args[0])) from None
    h = d._entropies.get(key)
    if h is None:
        h = _plain_entropy(marginalize(d, sorted(a, key=Var.sort_key)).mass)
        d._entropies[key] = h
    return h


def entropy(d: JointDistribution, a: Iterable[Var], given: Iterable[Var] = ()) -> float:
    """Conditional entropy H(a | given) in bits."""
    a = _var_set(a)
    given = _var_set(given)
    if a & given:
        raise OverlappingSets("entropy arguments overlap")
    if not a:
        return 0.0
    h_joint = _joint_entropy(d, a | given)
    if not given:
        return h_joint
    return h_joint - _joint_entropy(d, given)


def mutual_information(d: JointDistribution, atom: InfoAtom) -> float:
    """I(left; right | cond) in bits, via entropy differences."""
    h1 = entropy(d, atom.left, atom.cond)
    h2 = entropy(d, atom.left, atom.right | atom.cond)
    return h1 - h2


def reduced_atom(left, right, cond=()) -> InfoAtom | None:
    """The atom ``mi`` evaluates for raw label iterables; None when empty.

    Labels present in ``cond`` are dropped from ``left``/``right`` (they
    carry no information beyond the conditioning), then ``left`` from ``right``.
    """
    left = _var_set(left)
    right = _var_set(right)
    cond = _var_set(cond)
    left -= cond
    right -= cond
    right -= left
    if not left or not right:
        return None
    return InfoAtom(left, right, cond)


def mi(d: JointDistribution, left, right, cond=()) -> float:
    """I(left; right | cond) in bits for raw label iterables (see ``reduced_atom``)."""
    atom = reduced_atom(left, right, cond)
    return 0.0 if atom is None else mutual_information(d, atom)


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def product_compose(
    factors: Sequence[tuple[np.ndarray, Sequence[tuple[Var | str, int]], Sequence[Var | str]]],
) -> JointDistribution:
    """Compose an acyclic factorization into a joint distribution.

    Each factor is ``(kernel, outputs, inputs)`` where ``outputs`` is a list
    of (variable, alphabet size), ``inputs`` a list of variables produced by
    earlier factors, and ``kernel`` has shape (input sizes..., output sizes...)
    with each row (fixed inputs) summing to 1.
    """
    cur_vars: list[tuple[Var, int]] = []
    cur = np.ones((), dtype=float)
    for kernel, outputs, inputs in factors:
        outputs = [(_as_var(v), int(n)) for v, n in outputs]
        inputs = [_as_var(v) for v in inputs]
        have = {v: n for v, n in cur_vars}
        for v in inputs:
            if v not in have:
                raise CyclicFactorization(f"input {v} not produced by earlier factors")
        for v, _ in outputs:
            if v in have:
                raise CyclicFactorization(f"output {v} produced twice")
        in_sizes = tuple(have[v] for v in inputs)
        out_sizes = tuple(n for _, n in outputs)
        arr = np.asarray(kernel, dtype=float)
        if arr.size != int(np.prod(in_sizes + out_sizes, dtype=np.int64)):
            raise ShapeMismatch(
                f"kernel has {arr.size} entries, expected shape {in_sizes + out_sizes}"
            )
        arr = arr.reshape(in_sizes + out_sizes)
        rows = arr.reshape(int(np.prod(in_sizes, dtype=np.int64)) or 1, -1)
        bad = np.abs(rows.sum(axis=1) - 1.0) > NORMALIZATION_TOL
        if bad.any():
            raise RowNotNormalized(
                f"kernel rows {np.flatnonzero(bad)[:5].tolist()} do not sum to 1"
            )
        new_total = int(np.prod([n for _, n in cur_vars] + list(out_sizes), dtype=np.int64))
        if new_total > MAX_STATES:
            raise StateSpaceTooLarge(f"{new_total} states exceeds cap {MAX_STATES}")
        n_all = len(cur_vars) + len(outputs)
        if n_all > len(_LETTERS):
            raise StateSpaceTooLarge("too many variables for dense composition")
        letters = {v: _LETTERS[i] for i, (v, _) in enumerate(cur_vars)}
        for j, (v, _) in enumerate(outputs):
            letters[v] = _LETTERS[len(cur_vars) + j]
        sub_cur = "".join(letters[v] for v, _ in cur_vars)
        sub_ker = "".join(letters[v] for v in inputs) + "".join(
            letters[v] for v, _ in outputs
        )
        sub_out = sub_cur + "".join(letters[v] for v, _ in outputs)
        cur = np.einsum(f"{sub_cur},{sub_ker}->{sub_out}", cur, arr)
        cur_vars = cur_vars + outputs
    d = JointDistribution(tuple(cur_vars), cur)
    return validate_pmf(d)


def binary_entropy(p: float) -> float:
    """h2(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)
