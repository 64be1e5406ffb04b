"""Pareto search over candidate right-hand sides: polynomial fits,
exhaustive enumeration of small expression skeletons with a fitted scalar
multiplier, and an additive separability test on a polynomial surrogate."""

from __future__ import annotations

import csv
import itertools
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .candidates import CandidateSolution, make_candidate
from .expressions import (
    BINARY_UFUNC,
    UNARY_UFUNC,
    Binary,
    Const,
    Expr,
    Unary,
    Var,
    _binary_form,
    _unary_form,
    left_fold,
    print_expr,
)
from .integrate import RegressionDataset

_COMMUTATIVE = ("add", "mul")

_SEPARABILITY_TOLERANCE = 1e-2

# skeletons evaluated and fitted per numpy call: enough to spread the
# per-call cost, few enough that each block temporary (_CHUNK_ROWS x n
# floats) stays small next to the skeleton tables; 4096 raised the peak RSS.
# Against 1024, a process running the three default pipelines peaks at
# 43.9 MB, not 45.1, in the same CPU time (0.262 s, not 0.261; medians of
# 11), and perfbench's sweep at 44.0 MB, not 45.6, in 0.349 s, not 0.361
# (medians of 10 alternating pairs)
_CHUNK_ROWS = 512


@dataclass
class FeynmanConfig:
    max_poly_degree: int = 4
    max_brute_nodes: int = 7
    unary_set: tuple[str, ...] = tuple(UNARY_UFUNC)
    binary_set: tuple[str, ...] = tuple(BINARY_UFUNC)
    time_budget: float | None = None

    def __post_init__(self):
        self.unary_set = tuple(self.unary_set)
        self.binary_set = tuple(self.binary_set)
        if self.max_poly_degree < 1:
            raise ValueError("max_poly_degree must be >= 1")
        if self.max_brute_nodes < 1:
            raise ValueError("max_brute_nodes must be >= 1")
        unknown = set(self.unary_set) - set(UNARY_UFUNC)
        if unknown:
            raise ValueError(f"unsupported unary ops: {sorted(unknown)}")
        unknown = set(self.binary_set) - set(BINARY_UFUNC)
        if unknown:
            raise ValueError(f"unsupported binary ops: {sorted(unknown)}")
        ops = self.unary_set + self.binary_set
        if len(set(ops)) < len(ops):
            raise ValueError(f"an op is listed twice: {ops}")
        if self.time_budget is not None and not (self.time_budget >= 0):  # NaN fails too
            raise ValueError("time_budget must be non-negative")


@dataclass(frozen=True)
class ParetoFront:
    """Candidates sorted by complexity with strictly decreasing RMSE.
    `truncated` records that time_budget cut the brute force short, so
    the front may miss candidates a full search would find."""

    candidates: tuple[CandidateSolution, ...]
    truncated: bool = False

    def __post_init__(self):
        comps = [c.complexity for c in self.candidates]
        if comps != sorted(set(comps)):
            raise ValueError("front complexities must be strictly increasing")
        rmses = [c.train_rmse for c in self.candidates]
        if any(b >= a for a, b in zip(rmses, rmses[1:])):
            raise ValueError("front RMSE must be strictly decreasing")


def monomial_exponents(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials in n_vars variables up to the given
    total degree, in lexicographic order."""
    return sorted(
        tuple(combo.count(v) for v in range(n_vars))
        for total in range(degree + 1)
        for combo in itertools.combinations_with_replacement(range(n_vars), total)
    )


def _design_columns(states, variables, exponents):
    block = states[:, list(variables)].astype(float)
    cols = [np.prod(block ** np.asarray(e), axis=1) for e in exponents]
    return np.column_stack(cols)


def _surrogate(data: RegressionDataset, variables: tuple[int, ...], degree: int):
    """The least-squares polynomial in `variables` up to the given degree:
    (exponents, design columns, coefficients), with the columns in
    monomial_exponents' order, or None when the data has no more samples
    than monomials."""
    targets = np.asarray(data.targets, dtype=float)
    exps = monomial_exponents(len(variables), degree)
    if len(targets) <= len(exps):
        return None
    cols = _design_columns(data.states, variables, exps)
    coeffs, *_ = np.linalg.lstsq(cols, targets, rcond=None)
    return exps, cols, coeffs


def _poly_expr(coeffs, exponents, variables) -> Expr:
    scale = float(np.max(np.abs(coeffs))) if len(coeffs) else 0.0
    terms = []
    for c, e in zip(coeffs, exponents):
        if scale == 0.0 or abs(c) <= 1e-12 * scale:
            continue
        factors = [
            Var(v) if p == 1 else Binary("pow", Var(v), Const(p))
            for v, p in zip(variables, e)
            if p
        ]
        term = Const(float(c))
        terms.append(Binary("mul", term, left_fold("mul", factors)) if factors else term)
    return left_fold("add", terms)


def polyfit(
    data: RegressionDataset,
    degree: int,
    variables: tuple[int, ...] | None = None,
    return_coefficients: bool = False,
):
    """Least-squares polynomial fit of the targets. The returned candidate
    drops coefficients below 1e-12 of the largest one."""
    vars_ = tuple(range(data.states.shape[1])) if variables is None else tuple(variables)
    fit = _surrogate(data, vars_, degree)
    if fit is None:
        raise ValueError(
            f"degree-{degree} fit in {len(vars_)} variables needs more than "
            f"{math.comb(len(vars_) + degree, degree)} samples, got {len(data.targets)}"
        )
    exps, _, coeffs = fit
    cand = make_candidate(_poly_expr(coeffs, exps, vars_), data)
    if return_coefficients:
        return cand, coeffs
    return cand


def brute_force(
    data: RegressionDataset,
    config: FeynmanConfig | None = None,
    variables: tuple[int, ...] | None = None,
) -> list[CandidateSolution]:
    """Enumerate every expression skeleton up to max_brute_nodes nodes and
    fit a single scalar multiplier per skeleton in closed form.

    Skeletons are built size by size from smaller ones; commutative
    arguments are kept in printed order so each shape appears once, and
    skeletons that evaluate outside the reals anywhere on the data are
    dropped along with everything they would compose into.

    Returns every fitted candidate size by size (unary ops, then binary),
    with constants and RMSEs bit-identical to a per-skeleton fit. A search
    that only needs the best fit at each complexity (run_pipeline) reads
    the same enumeration without building the full list. When time_budget
    cuts the enumeration short, the candidates fitted so far are returned
    with a RuntimeWarning.
    """
    cfg = config if config is not None else FeynmanConfig()
    candidates: list[CandidateSolution] = []

    def collect(comp, c, rmse, ok, contenders, skeletons):
        rows, r = rmse(np.flatnonzero(ok))
        candidates.extend(
            CandidateSolution(Binary("mul", Const(ci), skel), ri, comp)
            for skel, ci, ri in zip(skeletons(rows), c[rows].tolist(), r.tolist())
        )

    if _enumerate(data, cfg, variables, collect):
        warnings.warn("brute_force truncated by time_budget", RuntimeWarning, stacklevel=2)
    # the top size's unary skeletons come with the blocks of the size below;
    # a stable sort by (complexity, unary root op) puts them back in order
    rank = {op: i for i, op in enumerate(cfg.unary_set)}

    def order(cand):
        skel = cand.expr.right
        return cand.complexity, rank[skel.op] if isinstance(skel, Unary) else len(rank)

    candidates.sort(key=order)
    return candidates


def _enumerate(data, cfg: FeynmanConfig, variables, consume) -> bool:
    """Evaluate and fit every skeleton of brute_force's search in blocks of
    rows, and pass each fitted block to
    `consume(complexity, c, rmse, ok, contenders, skeletons)`: the fitted
    constants, the mask of rows with a finite constant and a finite,
    non-zero gg, and functions valid during the call only: `rmse(rows)`
    gives those of the rows whose exact RMSE is finite and those RMSEs,
    `contenders(best)` the rows in the mask that may have the block's
    lowest RMSE, if at most `best`, and `skeletons(rows)` the rows' trees.
    Returns whether time_budget cut the enumeration short.

    Sizes come in turn, unary ops before binary ones, but each block of
    the size below the top is followed by its unary ops at the top size,
    so that size keeps its tree nodes and never a table of values. Only
    sizes below the top drop the rows that leave the reals; at the top,
    such a row's non-finite gg keeps it out of the mask.

    Each row's fit takes the same dot products as a fit of that skeleton
    alone, so constants and RMSEs are bit-identical to a per-skeleton fit.
    """
    # size -> the entries' trees, below top; a block's `at` is its first entry
    trees: dict[int, _Trees] = {}
    try:
        return _enumerate_sizes(data, cfg, variables, consume, trees)
    finally:
        # each _Trees holds grow, which reads trees: cleared, the node tables
        # and block buffers go on return rather than at the next cyclic
        # garbage collection, whose timing would then set the peak memory
        trees.clear()


def _enumerate_sizes(data, cfg: FeynmanConfig, variables, consume, trees: dict) -> bool:
    """_enumerate, with `trees` to fill."""
    states = data.states
    targets = np.asarray(data.targets, dtype=float)
    n = len(targets)
    k = states.shape[1]
    vars_ = tuple(range(k)) if variables is None else tuple(variables)
    deadline = None
    if cfg.time_budget is not None:
        deadline = time.monotonic() + cfg.time_budget
    ops = cfg.unary_set + cfg.binary_set
    top = cfg.max_brute_nodes

    # size -> (printed forms, (entries, n) values on the data), below top - 1
    table: dict[int, tuple[list, np.ndarray]] = {}
    # each block's temporaries are written to these (arrays made and freed
    # block by block have malloc give the memory back to the system and
    # fault it in again): values (and a binary op's left operands), right
    # operands, and the finite rows of a block below the top that no table
    # keeps
    shape = (3, max(_CHUNK_ROWS, len(vars_)), n)
    evaluated, operands, compact = np.empty(shape)

    # The residual sum |c v - t|^2 = c^2 gg - 2 c gt + tt is `a = tt - c gt`
    # at c = gt / gg. An n-term dot product is off by n u of its terms'
    # magnitude plus n eta (unit roundoff u, smallest subnormal eta), and
    # |c gt| <= tt; so while gg is a normal number, `a` is within
    # (9n + 7) u tt + 3n eta of the sum at the rounded c, and the exact pass
    # within (n + 4) u tt + 2n eta: |a - exact| <= 11 (n + 1) (u tt + eta).
    # A block's lowest row has `a` within twice that of the lowest `a`, and
    # `margin` gives that 8x headroom. Rows whose gg is not normal or whose
    # `a` is not finite always get the exact residual.
    tt = float(targets @ targets)
    margin = 176 * (n + 1) * (2.0**-53 * tt + 2.0**-1074)

    def grow(size, nodes):
        """Trees of a block's nodes, which share one op and left size."""
        if not len(nodes):
            return []
        op, left_size = nodes[0, :2].tolist()
        lefts = nodes[:, 2].tolist()
        if op < 0:
            return [Var(v) for v in lefts]
        name = ops[op]
        if op < len(cfg.unary_set):
            child = trees[size - 1]
            return [Unary(name, child[a]) for a in lefts]
        left, right = trees[left_size], trees[size - 1 - left_size]
        return [Binary(name, left[a], right[b]) for a, b in zip(lefts, nodes[:, 3].tolist())]

    # fit calls fit_rows for the top size's unary ops, not itself: a closure
    # that reads its own name is a reference cycle that keeps every array
    # this call made until the next cyclic garbage collection
    def fit(size, block, nodes, at):
        fit_rows(size, block, nodes, at)
        if size == top - 1:
            rows = np.arange(at, at + len(block))
            for op in cfg.unary_set:
                child = UNARY_UFUNC[op](block, out=evaluated[: len(block)])
                fit_rows(top, child, _nodes(ops.index(op), size, rows, -1), at)

    def fit_rows(size, block, nodes, at):
        # np.vecdot reaches the same BLAS dot as `values @ values` for a
        # single row; einsum and gemv sum in another order
        gg = np.vecdot(block, block)
        gt = np.vecdot(block, targets)
        c = gt / gg
        ok = np.isfinite(gg) & (gg > 0.0) & np.isfinite(c)
        a = tt - c * gt
        a[~np.isfinite(a) | (gg < 2.0**-1022)] = np.nan

        def rmse(rows):
            resid = c[rows, None] * block[rows] - targets
            r = np.sqrt(np.vecdot(resid, resid) / n)
            return rows[np.isfinite(r)], r[np.isfinite(r)]

        def contenders(best):
            low = np.fmin.reduce(a, where=ok, initial=n * best * best)  # skips nan
            return np.flatnonzero(ok & ~(a > low + margin))  # keeps nan

        def skeletons(rows):
            made = grow(size, nodes[rows])
            if size in trees:
                # rows from table index `at` on: larger skeletons look
                # these up instead of building them again
                trees[size].update(zip((rows + at).tolist(), made))
            return made

        consume(size + 2, c, rmse, ok, contenders, skeletons)

    with np.errstate(all="ignore"):
        strs = [print_expr(Var(v)) for v in vars_]
        values = np.ascontiguousarray(states[:, list(vars_)].T, dtype=float)
        nodes = _nodes(-1, 0, np.asarray(vars_, dtype=np.intp), -1)
        table[1] = (strs, values)
        trees[1] = _Trees(1, nodes, grow)
        fit(1, values, nodes, 0)
        for size in range(2, top + 1):
            keep = size < top - 1
            grown_strs: list = []
            grown_values = grown_nodes = None
            if size < top:
                # room for every skeleton of this size; the nodes and values
                # of the finite ones are written in place, in order, and
                # pages never written are never resident (blocks
                # concatenated at the end would leave their freed memory in
                # the heap and raise the peak RSS)
                counts = [len(table[s][0]) for s in range(1, size)]
                most = len(cfg.unary_set) * counts[-1] + len(cfg.binary_set) * sum(
                    counts[a - 1] * counts[size - 2 - a] for a in range(1, size - 1)
                )
                if keep:
                    grown_values = np.empty((most, n))
                grown_nodes = np.empty((most, 4), dtype=np.intp)
                trees[size] = _Trees(size, grown_nodes, grow)
            kept = 0
            # the top size's unary skeletons were fitted with the size below
            for op in cfg.unary_set if size < top else ():
                if deadline is not None and time.monotonic() > deadline:
                    return True
                fn = UNARY_UFUNC[op]
                child_strs, child_values = table[size - 1]
                for lo in range(0, len(child_strs), _CHUNK_ROWS):
                    chunk = child_values[lo : lo + _CHUNK_ROWS]
                    block = fn(chunk, out=evaluated[: len(chunk)])
                    out = grown_values[kept:] if keep else compact
                    finite, block = _finite_rows(block, out)
                    rows = np.flatnonzero(finite) + lo
                    nodes = _nodes(ops.index(op), size - 1, rows, -1, grown_nodes, kept)
                    fit(size, block, nodes, kept)
                    kept += len(rows)
                    if keep:
                        grown_strs.extend(
                            _unary_form(op, child_strs[i]) for i in rows.tolist()
                        )
            ranks = _printed_ranks(table, size - 2)
            for op in cfg.binary_set:
                fn = BINARY_UFUNC[op]
                for left_size in range(1, size - 1):
                    if deadline is not None and time.monotonic() > deadline:
                        return True
                    right_size = size - 1 - left_size
                    left_strs, left_values = table[left_size]
                    right_strs, right_values = table[right_size]
                    pairs = np.arange(len(left_strs) * len(right_strs))
                    li, ri = np.divmod(pairs, len(right_strs))
                    if op in _COMMUTATIVE:
                        ordered = ranks[left_size][li] <= ranks[right_size][ri]
                        li, ri = li[ordered], ri[ordered]
                    for lo in range(0, len(li), _CHUNK_ROWS):
                        l_rows = li[lo : lo + _CHUNK_ROWS]
                        r_rows = ri[lo : lo + _CHUNK_ROWS]
                        m = len(l_rows)
                        # mode "clip" writes straight to out ("raise" buffers)
                        block = np.take(left_values, l_rows, 0, evaluated[:m], "clip")
                        right = np.take(right_values, r_rows, 0, operands[:m], "clip")
                        fn(block, right, out=block)
                        if size < top:
                            out = grown_values[kept:] if keep else compact
                            finite, block = _finite_rows(block, out)
                            l_rows, r_rows = l_rows[finite], r_rows[finite]
                        op_i = ops.index(op)
                        nodes = _nodes(op_i, left_size, l_rows, r_rows, grown_nodes, kept)
                        fit(size, block, nodes, kept)
                        kept += len(nodes)
                        if keep:
                            grown_strs.extend(
                                _binary_form(op, left_strs[a], right_strs[b])
                                for a, b in nodes[:, 2:].tolist()
                            )
            if keep:
                table[size] = (grown_strs, grown_values[:kept])
    return False


class _Trees(dict):
    """Table index -> skeleton tree for one size of the brute-force table.
    A tree not stored yet is built on lookup by `grow` from the entry's
    row of nodes: (index into ops, or -1 for a variable; left child's size;
    left child's index, or the variable; right child's index, or -1 for a
    unary op)."""

    def __init__(self, size, nodes, grow):
        super().__init__()
        self.size, self.nodes, self.grow = size, nodes, grow

    def __missing__(self, i):
        tree = self[i] = self.grow(self.size, self.nodes[i : i + 1])[0]
        return tree


def _nodes(op: int, left_size: int, left, right, out=None, at=0) -> np.ndarray:
    """Table nodes (op, left size, left index, right index) for a block,
    written to the table buffer `out` from row `at` when there is one."""
    if out is None:
        nodes = np.empty((len(left), 4), dtype=np.intp)
    else:
        nodes = out[at : at + len(left)]
    nodes[:, 0] = op
    nodes[:, 1] = left_size
    nodes[:, 2] = left
    nodes[:, 3] = right
    return nodes


def _finite_rows(block, out):
    """The mask of block's rows that stay in the reals, and those rows,
    written to the start of `out` and returned as that view."""
    finite = np.isfinite(block).all(axis=1)
    rows = out[: np.count_nonzero(finite)]
    np.compress(finite, block, axis=0, out=rows)
    return finite, rows


def _printed_ranks(table, max_size: int) -> dict[int, np.ndarray]:
    """Rank of each printed form among all table entries up to max_size, so
    the commutative `left <= right` order is an integer comparison."""
    order = sorted(s for size in range(1, max_size + 1) for s in table[size][0])
    rank = {s: r for r, s in enumerate(order)}
    return {
        size: np.array([rank[s] for s in table[size][0]], dtype=np.intp)
        for size in range(1, max_size + 1)
    }


def separability_split(data: RegressionDataset):
    """Look for an additive split of the variables using a degree-4
    polynomial surrogate: a bipartition is accepted when the mixed-monomial
    coefficients carry less than _SEPARABILITY_TOLERANCE of the total
    coefficient norm.

    Returns (vars_a, vars_b, data_a, data_b) for the cleanest split, or
    None. The surrogate's constant stays with the second block, so the
    first block's targets are centred accordingly.
    """
    k = data.states.shape[1]
    fit = _surrogate(data, tuple(range(k)), 4) if k >= 2 else None
    if fit is None:
        return None
    exps, cols, w = fit
    total = float(np.linalg.norm(w))
    if total == 0.0:
        return None
    # which variables each monomial uses; the first one, all zeros, is the constant
    uses = np.array(exps) > 0
    best = None
    # odd masks only: variable 0 is always in block a
    for mask in range(1, 2**k - 1, 2):
        in_a = (mask >> np.arange(k) & 1).astype(bool)
        uses_a, uses_b = uses[:, in_a].any(axis=1), uses[:, ~in_a].any(axis=1)
        ratio = float(np.linalg.norm(w[uses_a & uses_b])) / total
        if best is None or ratio < best[0]:
            best = (ratio, in_a, uses_a & ~uses_b, uses_b & ~uses_a)
    ratio, in_a, pure_a, pure_b = best
    if ratio >= _SEPARABILITY_TOLERANCE:
        return None
    part_a = cols[:, pure_a] @ w[pure_a]
    part_b = cols[:, pure_b] @ w[pure_b]
    targets = np.asarray(data.targets, dtype=float)
    data_a = replace(data, targets=targets - part_b - w[0])
    data_b = replace(data, targets=targets - part_a)
    vars_a, vars_b = np.flatnonzero(in_a).tolist(), np.flatnonzero(~in_a).tolist()
    return tuple(vars_a), tuple(vars_b), data_a, data_b


def _better(cand: CandidateSolution, cur: CandidateSolution) -> bool:
    """The ranking at equal complexity: lower train RMSE, then the smaller
    full printed form. A candidate equal to cur on both is not better, so
    the first one seen stays."""
    if cand.train_rmse != cur.train_rmse:
        return cand.train_rmse < cur.train_rmse
    return print_expr(cand.expr) < print_expr(cur.expr)


class _BestPerComplexity:
    """The best candidate offered at each complexity under _better. Only
    these can reach the Pareto front or be picked by run_pipeline."""

    def __init__(self):
        self.at: dict[int, CandidateSolution] = {}

    def offer(self, cand: CandidateSolution) -> None:
        cur = self.at.get(cand.complexity)
        if cur is None or _better(cand, cur):
            self.at[cand.complexity] = cand

    def block(self, comp, c, rmse, ok, contenders, skeletons) -> None:
        """Offer a fitted brute-force block. Only rows at the block's
        minimum RMSE can win, and none when that minimum is above the
        current best: only rows that may be both get an exact RMSE, and
        only the rows at the minimum get a tree."""
        cur = self.at.get(comp)
        best = math.inf if cur is None else cur.train_rmse
        rows, r = rmse(contenders(best))
        low = np.min(r, initial=best)  # rows above best never equal low
        rows = rows[r == low]
        for skel, ci in zip(skeletons(rows), c[rows].tolist()):
            full = Binary("mul", Const(ci), skel)
            self.offer(CandidateSolution(full, float(low), comp))

    def best(self) -> CandidateSolution:
        """Lowest train RMSE, then lowest complexity."""
        return min(self.at.values(), key=lambda c: (c.train_rmse, c.complexity))


def pareto_front(candidates) -> ParetoFront:
    """Non-dominated candidates under (complexity, train RMSE); ties at the
    same point resolve to the lexicographically smallest printed form."""
    bests = _BestPerComplexity()
    for cand in candidates:
        bests.offer(cand)
    kept = []
    last = math.inf
    for comp in sorted(bests.at):
        cand = bests.at[comp]
        if cand.train_rmse < last:
            kept.append(cand)
            last = cand.train_rmse
    return ParetoFront(tuple(kept))


def _search(data, cfg: FeynmanConfig, variables, bests: _BestPerComplexity) -> bool:
    """Offer every polynomial fit and brute-force fit of data to bests;
    returns whether time_budget cut the brute force short."""
    for degree in range(1, cfg.max_poly_degree + 1):
        bests.offer(polyfit(data, degree, variables=variables))
    return _enumerate(data, cfg, variables, bests.block)


def run_pipeline(data: RegressionDataset, config: FeynmanConfig | None = None):
    """Polynomial fits at every degree, the brute-force sweep, and one round
    of separability splitting with both blocks searched independently and
    summed. Returns (best candidate, pareto front over everything tried).

    Only the best fit at each complexity is kept: the best candidate and
    the front are the same as over the full brute_force list."""
    cfg = config if config is not None else FeynmanConfig()
    bests = _BestPerComplexity()
    truncated = _search(data, cfg, None, bests)
    split = separability_split(data)
    if split is not None:
        vars_a, vars_b, data_a, data_b = split
        parts = []
        for vars_x, data_x in ((vars_a, data_a), (vars_b, data_b)):
            part = _BestPerComplexity()
            truncated |= _search(data_x, cfg, vars_x, part)
            parts.append(part.best())
        combined = Binary("add", parts[0].expr, parts[1].expr)
        bests.offer(make_candidate(combined, data))
    front = pareto_front(bests.at.values())
    return bests.best(), replace(front, truncated=truncated)


def pareto_rows(front: ParetoFront, variable_names=None) -> list[dict]:
    """One row per front candidate: complexity, train RMSE, printed form."""
    return [
        {
            "complexity": cand.complexity,
            "train_rmse": cand.train_rmse,
            "expression": print_expr(cand.expr, variable_names),
        }
        for cand in front.candidates
    ]


def write_pareto_rows(rows, path) -> None:
    """Write pareto_rows output (also a run_fit record's "pareto") as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["complexity", "train_rmse", "expression"])
        for row in rows:
            writer.writerow(
                [row["complexity"], repr(row["train_rmse"]), row["expression"]]
            )
