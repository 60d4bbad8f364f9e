"""Exact rational linear inequalities over rate variables with right-hand
sides that are combinations of named information atoms, plus the
Fourier-Motzkin projection machinery used to reduce constraint systems to a
single bound on the message rate R.

Coefficients are exact ``Fraction`` values, optionally affine in the block
count symbol B (``AffB``).  Fourier-Motzkin itself requires B-free
coefficients; ``asymptotic_system`` in the derivation module removes the B
dependence first.

``project_to_R`` converts the system once into private integer rows: each
row is a primitive int64 vector over (rates | atoms) in ``<`` form, with a
strict flag and a history, the bitmask of original rows it came from.  Each
step eliminates the variable with the fewest new rows, |P|*|N| - |P| - |N|.
After k eliminations a pair whose histories cover more than k+1 original
rows is never combined (Chernikov/Kohler).  Between steps ``_prune`` drops
rows that another row with a proportional left side implies; the kept row
takes the smaller of the two histories, so the history filter stays sound
next to the pruning.  Coefficients that could reach 2**62 raise
``CoefficientOverflow`` instead of wrapping.  The result is converted back
to a ``SymbolicRegion`` once, with integer coefficients.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    CoefficientOverflow,
    EliminationTooLarge,
    LPFailed,
    NotAffineInB,
    UnassignedAtom,
)
from .probability import InfoAtom

MAX_INEQUALITIES = 10 ** 5


@dataclass(frozen=True)
class AffB:
    """A rational coefficient c0 + c1*B in the block count B."""

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "AffB":
        if isinstance(x, AffB):
            return x
        return AffB(Fraction(x))

    def __add__(self, other):
        other = AffB.of(other)
        return AffB(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other):
        other = AffB.of(other)
        return AffB(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self):
        return AffB(-self.c0, -self.c1)

    def scale(self, f: Fraction) -> "AffB":
        f = Fraction(f)
        return AffB(self.c0 * f, self.c1 * f)

    def at(self, b: int) -> Fraction:
        return self.c0 + self.c1 * b

    @property
    def is_const(self) -> bool:
        return self.c1 == 0

    def const(self) -> Fraction:
        if not self.is_const:
            raise NotAffineInB(f"coefficient {self} still depends on B")
        return self.c0

    def __bool__(self) -> bool:
        return bool(self.c0 or self.c1)

    def __str__(self) -> str:
        if self.c1 == 0:
            return str(self.c0)
        sign = "+" if self.c1 > 0 else "-"
        return f"({self.c0}{sign}{abs(self.c1)}*B)"


def _clean(coeffs: Mapping[str, AffB]) -> dict[str, AffB]:
    return {k: AffB.of(v) for k, v in coeffs.items() if AffB.of(v)}


@dataclass(frozen=True)
class SymbolicInequality:
    """``sum(rates) sense sum(atoms)`` with rational (B-affine) coefficients."""

    rates: Mapping[str, AffB]
    atoms: Mapping[str, AffB]
    sense: str = "<"
    strict: bool = True

    def __post_init__(self):
        if self.sense not in ("<", ">"):
            raise ValueError(f"sense must be '<' or '>', got {self.sense!r}")
        object.__setattr__(self, "rates", _clean(self.rates))
        object.__setattr__(self, "atoms", _clean(self.atoms))
        if not self.rates and not self.atoms:
            raise ValueError("inequality has no nonzero coefficient")

    def normalized(self) -> "SymbolicInequality":
        """Equivalent inequality with sense '<'."""
        if self.sense == "<":
            return self
        return SymbolicInequality(
            {k: -v for k, v in self.rates.items()},
            {k: -v for k, v in self.atoms.items()},
            "<",
            self.strict,
        )

    def key(self):
        return (
            tuple(sorted((k, v.c0, v.c1) for k, v in self.rates.items())),
            tuple(sorted((k, v.c0, v.c1) for k, v in self.atoms.items())),
            self.sense,
            self.strict,
        )

    def __str__(self) -> str:
        def side(coeffs):
            if not coeffs:
                return "0"
            parts = []
            for name in sorted(coeffs):
                c = coeffs[name]
                if c.is_const and c.c0 == 1:
                    parts.append(name)
                else:
                    parts.append(f"{c}*{name}")
            return " + ".join(parts)

        op = self.sense if self.strict else self.sense + "="
        return f"{side(self.rates)} {op} {side(self.atoms)}"


@dataclass(frozen=True)
class SymbolicRegion:
    """A system of inequalities over named rate variables and atoms."""

    variables: tuple[str, ...]
    inequalities: tuple[SymbolicInequality, ...]
    atom_table: Mapping[str, InfoAtom] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "atom_table", dict(self.atom_table))
        declared = set(self.variables)
        for ineq in self.inequalities:
            extra = set(ineq.rates) - declared
            if extra:
                raise ValueError(f"undeclared rate variables {sorted(extra)}")

    def __str__(self) -> str:
        return "\n".join(str(i.normalized()) for i in self.inequalities)


# ---------------------------------------------------------------------------
# Fourier-Motzkin on primitive integer rows

_INT_LIMIT = 2 ** 62
_CHUNK = 2 ** 19  # bytes of bitsets per block of the dominance test


def _fewer(a: int, b: int) -> int:
    """The history bitmask with fewer members (``a`` on a tie)."""
    return b if b.bit_count() < a.bit_count() else a


@dataclass(frozen=True, eq=False)
class _Rows:
    """A B-free system as the integer rows Fourier-Motzkin runs on.

    Row i reads ``inequalities[i, :n] . rates < inequalities[i, n:] . atoms``
    (``<=`` where ``strict[i]`` is false) over ``n = len(variables)`` rate
    columns and then the ``atoms`` columns; each row is an int64 vector
    divided by its gcd.  ``history[i]`` is a bitmask of the original rows
    that row i was combined from, and ``eliminated`` counts the variables
    removed so far.
    """

    variables: tuple[str, ...]
    atoms: tuple[str, ...]
    inequalities: np.ndarray
    strict: np.ndarray
    history: list[int]
    eliminated: int
    atom_table: Mapping[str, InfoAtom]

    @staticmethod
    def of(region: SymbolicRegion) -> "_Rows":
        atoms = tuple(sorted({a for i in region.inequalities for a in i.atoms}))
        n = len(region.variables)
        columns = {v: i for i, v in enumerate(region.variables)}
        columns.update({a: n + i for i, a in enumerate(atoms)})
        rows = np.zeros((len(region.inequalities), n + len(atoms)), dtype=np.int64)
        for row, raw in zip(rows, region.inequalities):
            ineq = raw.normalized()
            terms = [(columns[k], c.const()) for k, c in ineq.rates.items()]
            terms += [(columns[k], c.const()) for k, c in ineq.atoms.items()]
            scale = math.lcm(*(c.denominator for _, c in terms))
            ints = [(i, int(c * scale)) for i, c in terms]
            g = math.gcd(*(c for _, c in ints))
            if max(abs(c) for _, c in ints) // g >= _INT_LIMIT:
                raise CoefficientOverflow(
                    f"{ineq} has a coefficient past the 2**62 limit of the integer rows"
                )
            for i, c in ints:
                row[i] = c // g
        return _Rows(
            region.variables,
            atoms,
            rows,
            np.array([i.strict for i in region.inequalities], dtype=bool),
            [1 << i for i in range(len(rows))],
            0,
            region.atom_table,
        )

    def region(self) -> SymbolicRegion:
        n = len(self.variables)
        out = []
        for row, strict in zip(self.inequalities.tolist(), self.strict.tolist()):
            rates = {v: AffB(Fraction(c)) for v, c in zip(self.variables, row[:n]) if c}
            atoms = {a: AffB(Fraction(c)) for a, c in zip(self.atoms, row[n:]) if c}
            out.append(SymbolicInequality(rates, atoms, "<", strict))
        return SymbolicRegion(self.variables, tuple(out), self.atom_table)


def _combine(up: np.ndarray, low: np.ndarray, j: int) -> np.ndarray:
    """Rows ``|low_j| * up + up_j * low``, whose column ``j`` cancels, without
    that column and divided by their gcd."""
    out = np.delete(-low[:, j:j + 1] * up + up[:, j:j + 1] * low, j, axis=1)
    return out // np.maximum(np.gcd.reduce(out, axis=1), 1)[:, None]


def eliminate_variable(region, v: str):
    """One Fourier-Motzkin step removing ``v`` by pairwise combination.

    Takes and returns a ``SymbolicRegion``, or inside ``project_to_R`` the
    integer rows.  An (upper, lower) pair is combined only if, after this
    k-th elimination, its history has at most k+1 original rows (Kohler's
    rule); a single step on a region keeps every pair.  Raises
    ``EliminationTooLarge`` before combining when the predicted row count,
    the rows without ``v`` plus one per kept pair, passes
    ``MAX_INEQUALITIES``, and ``CoefficientOverflow`` when a combined
    coefficient could reach 2**62.
    """
    rows = _Rows.of(region) if isinstance(region, SymbolicRegion) else region
    if v not in rows.variables:
        raise ValueError(f"{v!r} not among region variables")
    j = rows.variables.index(v)
    a, history, k = rows.inequalities, rows.history, rows.eliminated + 1
    ups, lows = np.flatnonzero(a[:, j] > 0), np.flatnonzero(a[:, j] < 0)
    rest = np.flatnonzero(a[:, j] == 0)
    low_histories = [(n, history[n]) for n in lows.tolist()]
    pairs = [
        (p, n)
        for p in ups.tolist()
        for n, h in low_histories
        if (history[p] | h).bit_count() <= k + 1
    ]
    predicted = len(rest) + len(pairs)
    if predicted > MAX_INEQUALITIES:
        raise EliminationTooLarge(
            f"eliminating {v!r} from {len(a)} rows "
            f"({len(ups)} upper x {len(lows)} lower bounds): "
            f"{predicted} predicted rows passed {MAX_INEQUALITIES} inequalities"
        )
    if pairs:
        size = np.abs(a).max(axis=1)
        reach = int(-a[lows, j].min()) * int(size[ups].max())
        reach += int(a[ups, j].max()) * int(size[lows].max())
        if reach >= _INT_LIMIT:
            raise CoefficientOverflow(
                f"eliminating {v!r}: a combined coefficient could reach {reach}, "
                "past the 2**62 limit of the integer rows"
            )
    up, low = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    combined = _combine(a[up], a[low], j)
    made = combined.any(axis=1)  # 0 <= 0 is vacuous under closure
    out = _Rows(
        rows.variables[:j] + rows.variables[j + 1:],
        rows.atoms,
        np.concatenate([np.delete(a[rest], j, axis=1), combined[made]]),
        np.concatenate([rows.strict[rest], (rows.strict[up] | rows.strict[low])[made]]),
        [history[i] for i in rest.tolist()]
        + [history[p] | history[n] for p, n in zip(up[made].tolist(), low[made].tolist())],
        k,
        rows.atom_table,
    )
    return out.region() if isinstance(region, SymbolicRegion) else out


def _dominators(rhs: np.ndarray) -> dict[int, int]:
    """Map each row of ``rhs`` (distinct rows) that another row bounds from
    below in every column to such a row of least sum, which no row bounds.

    A bounding row has a smaller sum, so with rows in order of sum the rows
    that bound row j are the bits left set in ``AND`` over the columns of
    the bitset of rows at most row j's value there.  Blocks of rows take at
    most ``_CHUNK`` bytes of bitsets at a time."""
    if len(rhs) < 2:
        return {}
    order = np.argsort(rhs.sum(axis=1), kind="stable")
    rhs = rhs[order]
    n, m = rhs.shape
    # below[ranks[j, c]]: the rows whose column c is at most row j's
    ranks = np.empty((n, m), dtype=np.intp)
    below, offset = [], 0
    for c in range(m):
        values, inverse = np.unique(rhs[:, c], return_inverse=True)
        ranks[:, c] = inverse.reshape(-1) + offset
        offset += len(values)
        at_most = inverse.reshape(1, -1) <= np.arange(len(values))[:, None]
        below.append(np.packbits(at_most, axis=1, bitorder="little"))
    below = np.concatenate(below)
    out: dict[int, int] = {}
    block = max(1, _CHUNK // below.shape[1])
    for start in range(0, n, block):
        js = np.arange(start, min(n, start + block))
        width = js[-1] // 8 + 1  # later rows have larger sums
        acc = below[ranks[js, 0], :width]
        for c in range(1, m):
            acc &= below[ranks[js, c], :width]
        acc[js - start, js // 8] &= ~np.left_shift(1, js % 8).astype(np.uint8)
        hit = acc.any(axis=1)
        first = np.unpackbits(acc[hit], axis=1, bitorder="little").argmax(axis=1)
        out.update(zip(order[js[hit]].tolist(), order[first].tolist()))
    return out


def _prune(rows: _Rows) -> _Rows:
    """Drop vacuous rows and repeated rows, keeping the strict one of rows
    that differ only in strictness, and drop a row when another row with a
    proportional left side has atom coefficients no larger once both left
    sides are scaled equal (atoms are nonnegative, so it implies it).  A
    dropped row's kept twin or least dominator takes the smaller of the two
    histories, which keeps Kohler's rule sound next to the pruning."""
    n = len(rows.variables)
    a, history = rows.inequalities, list(rows.history)
    # 0 < nonnegative combination is vacuous under closure
    live = a[:, :n].any(axis=1) | (a[:, n:] < 0).any(axis=1)
    # rows are primitive, so rows equal up to a positive factor are equal
    kept: dict[bytes, int] = {}
    for r in np.flatnonzero(live).tolist():
        key = a[r].tobytes()
        s = kept.setdefault(key, r)
        if s != r:
            if rows.strict[r] and not rows.strict[s]:
                kept[key] = r
                s, r = r, s
            history[s] = _fewer(history[s], history[r])
    idx = np.array(sorted(kept.values()), dtype=np.intp)
    lhs = a[idx, :n]
    g = np.maximum(np.gcd.reduce(lhs, axis=1), 1).tolist()
    _, group = np.unique(lhs // np.array(g)[:, None], axis=0, return_inverse=True)
    group = group.reshape(-1)
    # scale the rows of each left side to a common left side
    common: dict[int, int] = {}
    for k, gk in zip(group.tolist(), g):
        common[k] = math.lcm(common.get(k, 1), gk)
    scale = [common[k] // gk for k, gk in zip(group.tolist(), g)]
    rhs = a[idx, n:]
    sizes = np.abs(rhs).sum(axis=1).tolist()
    if any(f * size >= _INT_LIMIT for f, size in zip(scale, sizes)):
        raise CoefficientOverflow(
            "pruning: scaled atom coefficients pass the 2**62 limit of the integer rows"
        )
    # a row bounds another only on the same left side: equal group columns
    keyed = np.column_stack([group, -group, rhs * np.array(scale)[:, None]])
    dropped = np.zeros(len(idx), dtype=bool)
    for j, i in _dominators(keyed).items():
        history[idx[i]] = _fewer(history[idx[i]], history[idx[j]])
        dropped[j] = True
    idx = idx[~dropped]
    return replace(
        rows,
        inequalities=a[idx],
        strict=rows.strict[idx],
        history=[history[i] for i in idx.tolist()],
    )


def project_to_R(region: SymbolicRegion) -> SymbolicRegion:
    """Eliminate every rate variable except R on the integer rows, pruning
    between steps.  Each step removes the variable with the fewest new rows,
    |P|*|N| - |P| - |N| over its positive and negative coefficients (ties go
    to variable order)."""
    rows = _prune(_Rows.of(region))
    while rest := [v for v in rows.variables if v != "R"]:
        cols = rows.inequalities[:, [rows.variables.index(v) for v in rest]]
        ups, lows = (cols > 0).sum(axis=0), (cols < 0).sum(axis=0)
        v = rest[int(np.argmin(ups * lows - ups - lows))]
        rows = _prune(eliminate_variable(rows, v))
    return rows.region()


def evaluate_region(region: SymbolicRegion, atom_values: Mapping[str, float]) -> float:
    """Max feasible R under closure semantics; -inf if infeasible, +inf if
    unbounded.  HiGHS runs at 1e-10 tolerances (its default 1e-7 moves the
    value by as much, past the 1e-9 values are compared to), so a system
    infeasible by less than 1e-10 reads as feasible."""
    from scipy.optimize import linprog

    variables = list(region.variables)
    if "R" not in variables:
        raise ValueError("region does not constrain R")
    if not region.inequalities:
        return float("inf")
    idx = {v: i for i, v in enumerate(variables)}
    a_ub = np.zeros((len(region.inequalities), len(variables)))
    b_ub = np.zeros(len(region.inequalities))
    for r, raw in enumerate(region.inequalities):
        ineq = raw.normalized()
        for k, c in ineq.rates.items():
            a_ub[r, idx[k]] = float(c.const())
        for name, c in ineq.atoms.items():
            if name not in atom_values:
                raise UnassignedAtom(name)
            b_ub[r] += float(c.const()) * float(atom_values[name])
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    lp = dict(A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs", options=tol)
    cost = np.zeros(len(variables))
    cost[idx["R"]] = -1.0
    res = linprog(cost, **lp)
    if res.status == 2:
        # HiGHS presolve may call an unbounded problem infeasible; a zero
        # objective tells the two apart
        res = linprog(0 * cost, **lp)
        return float("inf") if res.status == 0 else float("-inf")
    if res.status == 3:
        return float("inf")
    if not res.success:
        raise LPFailed(f"LP solver failed (status {res.status}): {res.message}")
    return float(-res.fun)


# ---------------------------------------------------------------------------
# text serialization


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:\((?P<affc0>-?\d+(?:/\d+)?)(?P<affsign>[+-])(?P<affc1>\d+(?:/\d+)?)\*B\)\*"
    r"|(?P<coef>-?\d+(?:/\d+)?)\*"
    r")?"
    r"(?P<sym>I\([^)]*\)|[A-Za-z_][A-Za-z0-9_@',]*)\s*"
)


def format_region(region: SymbolicRegion) -> str:
    return str(region)


def _parse_side(text: str) -> dict[str, AffB]:
    out: dict[str, AffB] = {}
    text = text.strip()
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse term at: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("affc0") is not None:
            c1 = Fraction(m.group("affc1"))
            if m.group("affsign") == "-":
                c1 = -c1
            coeff = AffB(Fraction(m.group("affc0")), c1)
        elif m.group("coef") is not None:
            coeff = AffB(Fraction(m.group("coef")))
        else:
            coeff = AffB(Fraction(1))
        sym = m.group("sym")
        if sign < 0:
            coeff = -coeff
        out[sym] = out.get(sym, AffB()) + coeff
        pos = m.end()
    return out


def parse_inequality(line: str) -> SymbolicInequality:
    """Parse one inequality; symbols are classified by kind, not side.

    Information atoms (``I(...)``) always land on the atom side and every
    other symbol on the rate side, with signs adjusted so the stored form is
    ``sum(rates) sense sum(atoms)``.
    """
    for op, strict in (("<=", False), (">=", False), ("<", True), (">", True)):
        if op in line:
            left, right = line.split(op, 1)
            rates: dict[str, AffB] = {}
            atoms: dict[str, AffB] = {}
            for side, sign in ((_parse_side(left), 1), (_parse_side(right), -1)):
                for sym, coeff in side.items():
                    target, flip = (
                        (atoms, -sign) if sym.startswith("I(") else (rates, sign)
                    )
                    signed = coeff if flip > 0 else -coeff
                    target[sym] = target.get(sym, AffB()) + signed
            return SymbolicInequality(rates, atoms, op[0], strict)
    raise ValueError(f"no inequality operator in {line!r}")


def parse_region(text: str, atom_table: Mapping[str, InfoAtom] | None = None) -> SymbolicRegion:
    ineqs = [parse_inequality(ln) for ln in text.splitlines() if ln.strip()]
    variables = sorted({v for i in ineqs for v in i.rates})
    return SymbolicRegion(tuple(variables), tuple(ineqs), atom_table or {})
