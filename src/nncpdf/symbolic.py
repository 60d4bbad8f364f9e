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


def eliminate_variable(region: SymbolicRegion, v: str) -> SymbolicRegion:
    """One Fourier-Motzkin step removing ``v`` by pairwise combination."""
    if v not in region.variables:
        raise ValueError(f"{v!r} not among region variables")
    uppers, lowers, keep = [], [], []
    for raw in region.inequalities:
        ineq = raw.normalized()
        c = ineq.rates.get(v)
        if c is None:
            keep.append(ineq)
            continue
        cf = c.const()  # FME needs B-free pivots
        scaled = ineq.scaled(Fraction(1, 1) / abs(cf))
        (uppers if cf > 0 else lowers).append(scaled)
    out = list(keep)
    for up in uppers:
        for lo in lowers:
            rates = dict(up.rates)
            for k, c in lo.rates.items():
                rates[k] = rates.get(k, AffB()) + c
            atoms = dict(up.atoms)
            for k, c in lo.atoms.items():
                atoms[k] = atoms.get(k, AffB()) + c
            rates.pop(v, None)
            rates = _clean(rates)
            atoms = _clean(atoms)
            if not rates and not atoms:
                continue
            out.append(
                SymbolicInequality(rates, atoms, "<", up.strict or lo.strict)
            )
            if len(out) > MAX_INEQUALITIES:
                raise EliminationTooLarge(
                    f"eliminating {v!r} from {len(region.inequalities)} rows "
                    f"({len(uppers)} upper x {len(lowers)} lower bounds) passed "
                    f"{MAX_INEQUALITIES} inequalities"
                )
    variables = tuple(x for x in region.variables if x != v)
    return SymbolicRegion(variables, tuple(out), region.atom_table)


def _prune(region: SymbolicRegion) -> SymbolicRegion:
    """Remove syntactic duplicates, vacuous rows, and atom-wise dominated
    rows (same left form, larger right side; atoms are nonnegative)."""
    seen = {}
    groups: dict[tuple, list[SymbolicInequality]] = {}
    for raw in region.inequalities:
        ineq = raw.normalized()
        if ineq.key() in seen:
            continue
        seen[ineq.key()] = ineq
        if not ineq.rates and all(c.c0 >= 0 and c.c1 >= 0 for c in ineq.atoms.values()):
            continue  # 0 <= nonnegative combination: vacuous under closure
        lhs_key = tuple(sorted((k, v.c0, v.c1) for k, v in ineq.rates.items()))
        groups.setdefault(lhs_key, []).append(ineq)
    out = []
    for rows in groups.values():
        kept = []
        for cand in rows:
            dominated = False
            for other in rows:
                if other is cand:
                    continue
                names = set(cand.atoms) | set(other.atoms)
                oc = {n: other.atoms.get(n, AffB()) for n in names}
                cc = {n: cand.atoms.get(n, AffB()) for n in names}
                le = all(
                    oc[n].c0 <= cc[n].c0 and oc[n].c1 <= cc[n].c1 for n in names
                )
                if le and other.key() != cand.key():
                    dominated = True
                    break
            if not dominated:
                kept.append(cand)
        out.extend(kept)
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
    unbounded."""
    from scipy.optimize import linprog

    variables = list(region.variables)
    if "R" not in variables:
        raise ValueError("region does not constrain R")
    idx = {v: i for i, v in enumerate(variables)}
    a_ub, b_ub = [], []
    for raw in region.inequalities:
        ineq = raw.normalized()
        row = [0.0] * len(variables)
        for k, c in ineq.rates.items():
            row[idx[k]] = float(c.const())
        rhs = 0.0
        for name, c in ineq.atoms.items():
            if name not in atom_values:
                raise UnassignedAtom(name)
            rhs += float(c.const()) * float(atom_values[name])
        a_ub.append(row)
        b_ub.append(rhs)
    cost = [0.0] * len(variables)
    cost[idx["R"]] = -1.0
    if not a_ub:
        return float("inf")
    res = linprog(
        cost,
        A_ub=np.asarray(a_ub),
        b_ub=np.asarray(b_ub),
        bounds=[(None, None)] * len(variables),
        method="highs",
    )
    if res.status == 2:
        return float("-inf")
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
