"""Exact rational linear inequalities over rate variables with right-hand
sides that are combinations of named information atoms, plus the
Fourier-Motzkin projection machinery used to reduce constraint systems to a
single bound on the message rate R.

Coefficients are exact ``Fraction`` values, optionally affine in the block
count symbol B (``AffB``).  Fourier-Motzkin itself requires B-free
coefficients; ``asymptotic_system`` in the derivation module removes the B
dependence first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import EliminationTooLarge, LPFailed, NotAffineInB, UnassignedAtom
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

    def scaled(self, f: Fraction) -> "SymbolicInequality":
        f = Fraction(f)
        if f <= 0:
            raise ValueError("scaling must be positive")
        return SymbolicInequality(
            {k: v.scale(f) for k, v in self.rates.items()},
            {k: v.scale(f) for k, v in self.atoms.items()},
            self.sense,
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


def _sum(a: Mapping[str, AffB], b: Mapping[str, AffB]) -> dict[str, AffB]:
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return out


def eliminate_variable(region: SymbolicRegion, v: str) -> SymbolicRegion:
    """One Fourier-Motzkin step removing ``v`` by pairwise combination.

    Raises ``EliminationTooLarge`` before combining when the predicted row
    count, the rows without ``v`` plus one per (upper, lower) pair, passes
    ``MAX_INEQUALITIES``.
    """
    if v not in region.variables:
        raise ValueError(f"{v!r} not among region variables")
    uppers, lowers, out = [], [], []
    for raw in region.inequalities:
        ineq = raw.normalized()
        c = ineq.rates.get(v)
        if c is None:
            out.append(ineq)
            continue
        cf = c.const()  # FME needs B-free pivots
        (uppers if cf > 0 else lowers).append(ineq.scaled(1 / abs(cf)))
    predicted = len(out) + len(uppers) * len(lowers)
    if predicted > MAX_INEQUALITIES:
        raise EliminationTooLarge(
            f"eliminating {v!r} from {len(region.inequalities)} rows "
            f"({len(uppers)} upper x {len(lowers)} lower bounds): "
            f"{predicted} predicted rows passed {MAX_INEQUALITIES} inequalities"
        )
    for up in uppers:
        for lo in lowers:
            # the scaled pivots cancel, so the constructor drops v
            rates, atoms = _sum(up.rates, lo.rates), _sum(up.atoms, lo.atoms)
            if any(rates.values()) or any(atoms.values()):
                out.append(
                    SymbolicInequality(rates, atoms, "<", up.strict or lo.strict)
                )
    variables = tuple(x for x in region.variables if x != v)
    return SymbolicRegion(variables, tuple(out), region.atom_table)


_ZERO = AffB()


def _le(a: AffB, b: AffB) -> bool:
    return a.c0 <= b.c0 and a.c1 <= b.c1


def _atoms_le(a: Mapping[str, AffB], b: Mapping[str, AffB]) -> bool:
    """Every coefficient in ``a`` is at most the matching one in ``b``."""
    return all(_le(c, b.get(k, _ZERO)) for k, c in a.items()) and all(
        k in a or _le(_ZERO, c) for k, c in b.items()
    )


def _prune(region: SymbolicRegion) -> SymbolicRegion:
    """Drop vacuous rows, keep the strict one of rows equal up to strictness,
    and drop a row when another with the same left side has atom
    coefficients no larger (atoms are nonnegative, so it implies it)."""
    groups: dict[tuple, dict[tuple, SymbolicInequality]] = {}
    for raw in region.inequalities:
        ineq = raw.normalized()
        if not ineq.rates and all(_le(_ZERO, c) for c in ineq.atoms.values()):
            continue  # 0 <= nonnegative combination: vacuous under closure
        lhs, rhs, _, strict = ineq.key()
        rows = groups.setdefault(lhs, {})
        if strict or rhs not in rows:
            rows[rhs] = ineq
    out = []
    for rows in groups.values():
        rows = list(rows.values())
        out += [
            r for r in rows
            if not any(o is not r and _atoms_le(o.atoms, r.atoms) for o in rows)
        ]
    return SymbolicRegion(region.variables, tuple(out), region.atom_table)


def project_to_R(region: SymbolicRegion) -> SymbolicRegion:
    """Eliminate every rate variable except R, in variable order, pruning
    between steps."""
    cur = _prune(region)
    for v in region.variables:
        if v != "R":
            cur = _prune(eliminate_variable(cur, v))
    return cur


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
