"""Search over scheme distributions maximizing the achievable-rate bound
for a fixed network: product-of-simplices grid search and per-row
coordinate ascent, both deterministic under a fixed config."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import (
    _simplex_points,
    feasibility_check,
    is_feasible,
    nncpdf_bound,
    random_feasible_scheme,
)
from .errors import NoFeasibleStart, SearchSpaceTooLarge
from .network import Network, SchemeDistribution, random_scheme

MAX_GRID_POINTS = 200_000
IMPROVEMENT_TOL = 1e-7


@dataclass(frozen=True)
class SearchConfig:
    """Aux alphabet sizes and search hyperparameters."""

    v_sizes: tuple[int, ...] | None = None
    u_sizes: tuple[int, ...] | None = None
    yhat_sizes: tuple[int, ...] | None = None
    method: str = "grid"
    resolution: int = 3
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("grid", "coordinate-ascent"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2 points per dimension")

    def sizes_for(self, net: Network):
        n_rel = net.N - 1
        v = self.v_sizes if self.v_sizes is not None else (1,) * n_rel
        u = self.u_sizes if self.u_sizes is not None else (1,) * n_rel
        yh = self.yhat_sizes if self.yhat_sizes is not None else (2,) * n_rel
        return tuple(v), tuple(u), tuple(yh)


@dataclass(frozen=True)
class _Row:
    """One free simplex row of the scheme parameterization."""

    kind: str  # "head" | "kernel" | "compressor"
    relay: int | None
    index: tuple[int, ...]
    dim: int


def _rows_of(net: Network, scheme: SchemeDistribution) -> list[_Row]:
    rows = [_Row("head", None, (), scheme.head.size)]
    for i, k in enumerate(net.relays()):
        ker = scheme.input_kernels[i]
        if ker.shape[1] > 1:
            rows += [_Row("kernel", k, (v,), ker.shape[1]) for v in range(ker.shape[0])]
        comp = scheme.compressors[i]
        if comp.shape[-1] > 1:
            rows += [
                _Row("compressor", k, idx, comp.shape[-1])
                for idx in np.ndindex(comp.shape[:-1])
            ]
    return [r for r in rows if r.dim > 1]


def _get_row(scheme: SchemeDistribution, row: _Row) -> np.ndarray:
    if row.kind == "head":
        return scheme.head.reshape(-1).copy()
    i = row.relay - 2
    if row.kind == "kernel":
        return scheme.input_kernels[i][row.index].copy()
    return scheme.compressors[i][row.index].copy()


def _set_row(scheme: SchemeDistribution, row: _Row, value: np.ndarray) -> SchemeDistribution:
    if row.kind == "head":
        return replace(scheme, head=value.reshape(scheme.head.shape))
    i = row.relay - 2
    if row.kind == "kernel":
        kers = [k.copy() for k in scheme.input_kernels]
        kers[i][row.index] = value
        return replace(scheme, input_kernels=tuple(kers))
    comps = [c.copy() for c in scheme.compressors]
    comps[i][row.index] = value
    return replace(scheme, compressors=tuple(comps))


def _objective(net: Network, scheme: SchemeDistribution) -> float:
    report = nncpdf_bound(net, scheme)
    return report.bound if report.feasible else float("-inf")


def _grid_count(dim: int, resolution: int) -> int:
    import math

    return math.comb(resolution - 1 + dim - 1, dim - 1)


def grid_search(net: Network, cfg: SearchConfig):
    """Best feasible scheme on the full product-of-simplices grid.

    Returns (best scheme, best rate, trace of accepted improvements);
    infeasible grid points score -inf and are skipped.
    """
    v, u, yh = cfg.sizes_for(net)
    rng = np.random.default_rng(cfg.seed)
    template = random_scheme(rng, net, v, u, yh)
    rows = _rows_of(net, template)
    total = 1
    for r in rows:
        total *= _grid_count(r.dim, cfg.resolution)
        if total > MAX_GRID_POINTS:
            raise SearchSpaceTooLarge(
                f"grid would exceed {MAX_GRID_POINTS} points; reduce aux sizes "
                f"or resolution"
            )
    best_scheme, best_rate, trace = None, float("-inf"), []
    for combo in itertools.product(
        *[list(_simplex_points(r.dim, cfg.resolution)) for r in rows]
    ):
        cand = template
        for r, value in zip(rows, combo):
            cand = _set_row(cand, r, value)
        rate = _objective(net, cand)
        if rate > best_rate:
            best_scheme, best_rate = cand, rate
            trace.append(rate)
    if best_scheme is None:
        raise NoFeasibleStart("no feasible point on the grid")
    return best_scheme, best_rate, trace


_LINE_STEPS = (1.0, 0.5, 0.25, 0.1, 0.03, 0.01)


def coordinate_ascent(net: Network, cfg: SearchConfig, init: SchemeDistribution):
    """Cyclic per-row ascent from a feasible start.

    One step picks a row, tries moving it toward every simplex vertex with a
    backtracking line search, and keeps the best improvement.  Stops after
    ``max_iters`` row updates or a full sweep improving less than 1e-7.
    Returns (scheme, rate, monotone trace).
    """
    cur = init
    rate = _objective(net, cur)
    if rate == float("-inf"):
        raise NoFeasibleStart("initial scheme violates the feasibility condition")
    rows = _rows_of(net, cur)
    trace = [rate]
    updates = 0
    while updates < cfg.max_iters:
        sweep_gain = 0.0
        for row in rows:
            if updates >= cfg.max_iters:
                break
            base = _get_row(cur, row)
            best_val, best_rate = None, rate
            for vertex in range(row.dim):
                e = np.zeros(row.dim)
                e[vertex] = 1.0
                for t in _LINE_STEPS:
                    val = (1.0 - t) * base + t * e
                    val = val / val.sum()
                    cand_rate = _objective(net, _set_row(cur, row, val))
                    if cand_rate > best_rate + 1e-15:
                        best_val, best_rate = val, cand_rate
            updates += 1
            if best_val is not None and best_rate > rate:
                cur = _set_row(cur, row, best_val)
                sweep_gain += best_rate - rate
                rate = best_rate
        if sweep_gain > IMPROVEMENT_TOL:
            trace.append(rate)
        else:
            break
    return cur, rate, trace


def embed_scheme(
    scheme: SchemeDistribution,
    v_sizes: Sequence[int],
    u_sizes: Sequence[int],
    yhat_sizes: Sequence[int],
) -> SchemeDistribution:
    """The same distribution inside larger aux alphabets.

    New head symbols get zero mass, unreachable kernel/compressor rows are
    uniform, and new compression symbols get zero conditional mass, so every
    information quantity is unchanged.
    """
    n = scheme.N
    v_sizes, u_sizes, yhat_sizes = tuple(v_sizes), tuple(u_sizes), tuple(yhat_sizes)
    for name, old, new in (
        ("v", scheme.v_sizes, v_sizes),
        ("u", scheme.u_sizes, u_sizes),
        ("yhat", scheme.yhat_sizes, yhat_sizes),
    ):
        if len(new) != n - 1 or any(a < b for a, b in zip(new, old)):
            raise ValueError(f"{name} sizes must extend the existing ones")
    x1 = scheme.head.shape[0]
    head = np.zeros((x1,) + v_sizes + u_sizes)
    head[
        (slice(None),)
        + tuple(slice(0, s) for s in scheme.v_sizes)
        + tuple(slice(0, s) for s in scheme.u_sizes)
    ] = scheme.head
    kernels = []
    for i in range(n - 1):
        old = scheme.input_kernels[i]
        ker = np.full((v_sizes[i], old.shape[1]), 1.0 / old.shape[1])
        ker[: old.shape[0]] = old
        kernels.append(ker)
    compressors = []
    for i in range(n - 1):
        old = scheme.compressors[i]
        nx, _, _, ny, _ = old.shape
        comp = np.zeros((nx, u_sizes[i], v_sizes[i], ny, yhat_sizes[i]))
        comp[..., 0] = 1.0  # unreachable rows put all mass on the first symbol
        comp[:, : old.shape[1], : old.shape[2], :, 0] = 0.0
        comp[:, : old.shape[1], : old.shape[2], :, : old.shape[4]] = old
        compressors.append(comp)
    return SchemeDistribution(
        n, v_sizes, u_sizes, yhat_sizes, head, tuple(kernels), tuple(compressors)
    )


def optimize(net: Network, cfg: SearchConfig, init: SchemeDistribution | None = None):
    """Front-end dispatch: grid, or coordinate ascent.

    Coordinate ascent starts from ``init`` when given, otherwise from one
    feasible random scheme drawn with ``cfg.seed``.
    """
    if cfg.method == "grid":
        return grid_search(net, cfg)
    if init is None:
        v, u, yh = cfg.sizes_for(net)
        rng = np.random.default_rng(cfg.seed)
        if all(s == 1 for s in u):
            init = random_scheme(rng, net, v, u, yh)
            if not is_feasible(feasibility_check(net, init)):
                raise NoFeasibleStart("no feasible starting scheme")
        else:
            init = random_feasible_scheme(rng, net, v, u, yh)
    return coordinate_ascent(net, cfg, init)
