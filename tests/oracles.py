"""Brute-force oracles used to validate the engines.

Everything here is deliberately naive: congruence generation by filtering
all partitions of the universe, commutators by enumerating bounded-depth
term-operation tables and applying the term condition definition directly,
the corner lemma by visiting every assignment of a code array, the
canonical term order by building every node, and the witness search of
the constructed algebra by evaluating every term on every assignment.
Only feasible for tiny inputs, which is the point.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional, Sequence

import numpy as np

from commlab.elements import eval_u
from commlab.finengine import Congruence, FiniteAlgebra, Operation
from commlab.terms import Const, FApp, UApp, UPQRApp, Var, eval_term


def all_partitions(s: int) -> list[tuple[int, ...]]:
    """Class maps of all partitions of 0..s-1 in restricted-growth form."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], used: int):
        if len(prefix) == s:
            out.append(tuple(prefix))
            return
        for c in range(used + 1):
            extend(prefix + [c], max(used, c + 1))

    extend([], 0)
    return out


def adjacent_vertices(m: int, i: int) -> set[int]:
    """The 1-based cube vertices one block flip away from vertex i."""
    if not 1 <= i <= 2**m:
        raise IndexError(f"vertex index {i} out of range for dimension {m}")
    return {((i - 1) ^ (1 << b)) + 1 for b in range(m)}


def corner_violation_brute(codes: np.ndarray, m: int) -> Optional[tuple[int, ...]]:
    """First assignment (p1, q1, ..., pm, qm) in lexicographic order where
    vertex 1 of the m-cube over the (d,)*m code array equals every
    adjacent vertex but not every vertex, or None."""
    d = codes.shape[0]
    for flat in itertools.product(range(d), repeat=2 * m):
        verts = [
            codes[tuple(flat[2 * j + bit] for j, bit in enumerate(bits))]
            for bits in itertools.product((0, 1), repeat=m)
        ]
        adjacent = [verts[i - 1] for i in adjacent_vertices(m, 1)]
        if all(v == verts[0] for v in adjacent) and any(v != verts[0] for v in verts):
            return flat
    return None


def scan_terms_naive(terms, m: int, domain: Sequence, params):
    """First term-condition failure over the terms in order, one variable
    per block, visiting every assignment (p1, q1, ..., pm, qm) of domain
    elements in lexicographic order with the vertex convention of
    ``commlab.cubes`` (the last block varies fastest).

    Returns (witness, terms_scanned, assignments_scanned), the witness as
    (term, blocks, cube) with blocks ((p1,), (q1,)), ... and cube the vertex
    values, or None."""
    terms_scanned = assignments = 0
    vertices = list(itertools.product((0, 1), repeat=m))
    for t in terms:
        terms_scanned += 1
        values: dict[tuple[int, ...], object] = {}  # t at each tuple of domain indices

        def value(idx: tuple[int, ...]):
            if idx not in values:
                values[idx] = eval_term(t, {j: domain[i] for j, i in enumerate(idx)}, params)
            return values[idx]

        for flat in itertools.product(range(len(domain)), repeat=2 * m):
            assignments += 1
            cube = []
            for bits in vertices:
                cube.append(value(tuple(flat[2 * j + bit] for j, bit in enumerate(bits))))
                # every edge but the last must be matched
                if len(cube) % 2 == 0 and len(cube) < 2**m and cube[-2] != cube[-1]:
                    break
            else:
                if cube[-2] != cube[-1]:
                    blocks = tuple(
                        ((domain[flat[2 * j]],), (domain[flat[2 * j + 1]],)) for j in range(m)
                    )
                    return (t, blocks, tuple(cube)), terms_scanned, assignments
    return None, terms_scanned, assignments


def depth(t) -> int:
    """Nesting depth of a term: 0 at a variable or constant."""
    if isinstance(t, (Var, Const)):
        return 0
    if isinstance(t, (UApp, UPQRApp)):
        return 1 + depth(t.arg)
    return 1 + max(depth(a) for a in t.args)


def enumerate_terms(num_vars: int, max_depth: int, triple_pool, params):
    """Every constant-free term with variables among x0..x{num_vars-1} and
    depth <= max_depth, built node by node in the canonical order: by depth,
    then Var < UApp < UPQRApp (triple by triple) < FApp.  A layer's
    f-applications take their children in ``itertools.product`` order over
    every earlier term, keeping the tuples with a child from the previous
    layer.  Uncapped; it shares no code with ``commlab.terms.term_layers``."""
    built = [Var(i) for i in range(num_vars)]
    yield from built
    low = 0
    for _ in range(max_depth):
        prev = built[low:]
        layer = [UApp(t) for t in prev]
        layer += [UPQRApp(p, q, r, t) for p, q, r in triple_pool for t in prev]
        layer += [
            FApp(tuple(built[i] for i in idx))
            for idx in itertools.product(range(len(built)), repeat=params.n)
            if max(idx) >= low
        ]
        yield from layer
        low = len(built)
        built += layer


def count_terms(num_vars: int, max_depth: int, pool_size: int, params) -> int:
    """Closed-form count of the terms of the canonical order: per layer,
    the unary applications of the previous layer plus the f-applications
    with at least one child from it."""
    exact = [num_vars]
    for d in range(1, max_depth + 1):
        cum = sum(exact)
        cum_prev = cum - exact[-1]
        layer = exact[-1] * (1 + pool_size) + (cum**params.n - cum_prev**params.n)
        exact.append(layer)
    return sum(exact)


def u_power(x, k: int, params):
    for _ in range(k):
        x = eval_u(x, params)
    return x


def is_power_of_u_on(t, samples: Sequence[dict], max_power: int, params):
    """Least (variable index, exponent) such that t evaluates as that power
    of u applied to that variable on every sample assignment; None if no
    such pair."""
    if not samples:
        raise ValueError("need at least one sample assignment")
    indices = set(samples[0].keys())
    for a in samples[1:]:
        indices &= set(a.keys())
    values = [eval_term(t, a, params) for a in samples]
    for i in sorted(indices):
        for k in range(max_power + 1):
            if all(u_power(a[i], k, params) == v for a, v in zip(samples, values)):
                return (i, k)
    return None


def apply(alg: FiniteAlgebra, op: Operation, args: Sequence[int]) -> int:
    """op at args: its table is row-major, the first argument most significant."""
    idx = 0
    for a in args:
        idx = idx * alg.size + a
    return op.table[idx]


def cube_subpower_naive(
    alg: FiniteAlgebra, alphas: Sequence[Congruence]
) -> list[tuple[int, ...]]:
    """Sorted closure of the block-edge cubes under every operation, by
    applying each operation to every argument tuple of cubes found so far
    and keeping the tuples that hold a cube of the previous round."""
    m = len(alphas)
    nverts = 2**m

    gens: set[tuple[int, ...]] = set()
    for j, alpha in enumerate(alphas):
        for block in alpha.blocks:
            for a in block:
                for b in block:
                    gens.add(tuple(
                        b if (i >> (m - 1 - j)) & 1 else a for i in range(nverts)
                    ))
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        new: set[tuple[int, ...]] = set()
        current = list(seen)
        frontier_set = set(frontier)
        for op in alg.operations:
            if op.arity == 0:
                cube = (op.table[0],) * nverts
                if cube not in seen:
                    new.add(cube)
                continue
            for combo in itertools.product(current, repeat=op.arity):
                if not any(c in frontier_set for c in combo):
                    continue
                cube = tuple(
                    apply(alg, op, [c[i] for c in combo]) for i in range(nverts)
                )
                if cube not in seen:
                    new.add(cube)
        seen |= new
        frontier = list(new)
    return sorted(seen)


def related_pairs(cong: Congruence) -> list[tuple[int, int]]:
    return [(x, y) for b in cong.blocks for x in b for y in b]


def relates(cong: Congruence, x: int, y: int) -> bool:
    return cong.class_map()[x] == cong.class_map()[y]


def is_compatible(alg: FiniteAlgebra, cong: Congruence) -> bool:
    """Every operation applied to related argument tuples gives related values."""
    return _compatible(alg, cong.class_map())


def _compatible(alg: FiniteAlgebra, cm: Sequence[int]) -> bool:
    for op in alg.operations:
        if op.arity == 0:
            continue
        for args in itertools.product(range(alg.size), repeat=op.arity):
            v = apply(alg, op, args)
            for pos in range(op.arity):
                for y in range(alg.size):
                    if cm[y] != cm[args[pos]]:
                        continue
                    alt = args[:pos] + (y,) + args[pos + 1 :]
                    if cm[apply(alg, op, alt)] != cm[v]:
                        return False
    return True


def _contains(cm: Sequence[int], pairs: Iterable[tuple[int, int]]) -> bool:
    return all(cm[a] == cm[b] for a, b in pairs)


def _refines(fine: Sequence[int], coarse: Sequence[int]) -> bool:
    rep: dict[int, int] = {}
    for f, c in zip(fine, coarse):
        if rep.setdefault(f, c) != c:
            return False
    return True


def _to_congruence(size: int, cm: Sequence[int]) -> Congruence:
    groups: dict[int, list[int]] = {}
    for x, c in enumerate(cm):
        groups.setdefault(c, []).append(x)
    blocks = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0])
    return Congruence(size, tuple(blocks))


def congruence_from_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """The equivalence generated by the pairs: each pair relabels the class
    of its first element with the label of its second."""
    cm = list(range(size))
    for a, b in pairs:
        old, new = cm[a], cm[b]
        cm = [new if c == old else c for c in cm]
    return _to_congruence(size, cm)


def oracle_congruences(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    return [cm for cm in all_partitions(alg.size) if _compatible(alg, cm)]


def oracle_cg(alg: FiniteAlgebra, pairs: Sequence[tuple[int, int]]) -> Congruence:
    """Least compatible partition containing the pairs, by filtering all
    partitions of the universe."""
    candidates = [
        cm for cm in oracle_congruences(alg) if _contains(cm, pairs)
    ]
    # the least candidate must refine every other one
    best = None
    for cm in candidates:
        if all(_refines(cm, other) for other in candidates):
            best = cm
            break
    assert best is not None, "congruence lattice not closed under meet?"
    return _to_congruence(alg.size, best)


def term_tables(
    alg: FiniteAlgebra, num_vars: int, depth: int, cap: int = 20000
) -> Optional[np.ndarray]:
    """All distinct term-operation tables on num_vars variables built to the
    given composition depth, as an array of shape (k, size**num_vars).
    Returns None if the cap is exceeded.  Stops as soon as all
    size**(size**num_vars) tables are known: no later candidate is new."""
    s = alg.size
    cells = s**num_vars
    every_table = s**cells
    grids = np.indices((s,) * num_vars).reshape(num_vars, cells)
    funcs = [grids[v].astype(np.int64) for v in range(num_vars)]

    # dedup by a bitmap over the base-s codes of the tables while there are
    # at most 2**24 of them, by bytes otherwise
    use_bitmap = every_table <= 2**24
    if use_bitmap:
        pw = s ** np.arange(cells - 1, -1, -1, dtype=np.int64)
        known = np.zeros(every_table, dtype=bool)
        known[np.stack(funcs) @ pw] = True
        n_known = int(known.sum())
    else:
        seen = {f.tobytes() for f in funcs}

    def absorb(cand: np.ndarray, new: list[np.ndarray]) -> int:
        """Add the new tables among cand, in ascending code order on the
        bitmap path; the number of tables known, or cap + 1 once it passes
        the cap."""
        nonlocal n_known
        if use_bitmap:
            codes = cand @ pw
            fresh = np.flatnonzero(~known[codes])
            if fresh.size:
                fresh_codes, first = np.unique(codes[fresh], return_index=True)
                known[fresh_codes] = True
                n_known += fresh_codes.size
                new.extend(np.copy(t) for t in cand[fresh[first]])
            return min(n_known, cap + 1)
        for t in cand:
            b = t.tobytes()
            if b not in seen:
                seen.add(b)
                new.append(t.copy())
                if len(seen) > cap:
                    return cap + 1
        return len(seen)

    def candidates(prev: np.ndarray, last_start: int):
        k = len(prev)
        for op in alg.operations:
            table = np.array(op.table, dtype=np.int64)
            if op.arity == 0:
                yield np.full(cells, op.table[0], dtype=np.int64)[None, :]
            elif op.arity == 1:
                yield table[prev[last_start:]]
            else:
                chunk = max(1, 2**22 // (k * cells))
                for lo in range(0, k, chunk):
                    rows = prev[lo : lo + chunk]
                    idx = rows[:, None, :] * s + prev[None, :, :]
                    if lo + chunk <= last_start:
                        # old-vs-old pairs contribute nothing new
                        idx = idx[:, last_start:]
                    yield table[idx.reshape(-1, cells)]

    last_start = 0
    for _ in range(depth):
        new: list[np.ndarray] = []
        for cand in candidates(np.stack(funcs), last_start):
            count = absorb(cand, new)
            if count > cap:
                return None
            if count == every_table:
                return np.stack(funcs + new)
        if not new:
            break
        last_start = len(funcs)
        funcs.extend(new)
    return np.stack(funcs)


def oracle_higher_commutator(
    alg: FiniteAlgebra,
    m: int = 2,
    depth: int = 4,
    block_vars: int = 2,
    cap: int = 20000,
) -> Optional[Congruence]:
    """Least congruence closed under the forcing rule of the m-dimensional
    term condition, scanning all bounded-depth term tables directly.

    Returns None when the term-table cap is exceeded.
    """
    s = alg.size
    num_vars = m * block_vars
    tables = term_tables(alg, num_vars, depth, cap=cap)
    if tables is None:
        return None
    # vertex index tensors over the assignment space: each variable gets an
    # independent (p, q) pair, so the space has 2 * num_vars axes of size s
    shape = (s,) * (2 * num_vars)
    vertex_cells = []
    for bits in itertools.product((0, 1), repeat=m):
        axes = []
        for v in range(num_vars):
            sel = 2 * v + bits[v // block_vars]
            ax_shape = [1] * (2 * num_vars)
            ax_shape[sel] = s
            axes.append(np.arange(s).reshape(ax_shape))
        flat = np.zeros((1,) * (2 * num_vars), dtype=np.int64)
        for ax in axes:
            flat = flat * s + ax
        vertex_cells.append(np.broadcast_to(flat, shape).reshape(-1))
    cells = np.stack(vertex_cells)  # (2**m, s**(2*num_vars))

    pairs: set[tuple[int, int]] = set()
    delta = Congruence.identity(s)
    while True:
        cm = np.array(delta.class_map(), dtype=np.int64)
        forced: set[tuple[int, int]] = set()
        chunk = max(1, 2**22 // cells.size)
        for lo in range(0, len(tables), chunk):
            verts = tables[lo : lo + chunk][:, cells]  # (chunk, 2**m, assignments)
            classes = cm[verts]
            matched = np.ones(verts.shape[::2], dtype=bool)
            for i in range(1, 2 ** (m - 1)):
                matched &= classes[:, 2 * i - 2] == classes[:, 2 * i - 1]
            bad = matched & (classes[:, -2] != classes[:, -1])
            if bad.any():
                codes = np.unique(verts[:, -2][bad] * s + verts[:, -1][bad])
                forced.update((int(v) // s, int(v) % s) for v in codes)
        if not forced - pairs:
            return delta
        pairs |= forced
        delta = oracle_cg(alg, sorted(pairs))


def oracle_commutator_m2(alg: FiniteAlgebra) -> Congruence:
    """Tiered m = 2 oracle: two variables per block when the table codes
    stay small, one variable per block otherwise."""
    result = None
    if alg.size == 2:
        result = oracle_higher_commutator(alg, 2, block_vars=2, cap=20000)
    if result is None:
        result = oracle_higher_commutator(alg, 2, block_vars=1, cap=30000)
    assert result is not None, "one-variable-per-block tables exceeded the cap"
    return result


def random_algebra(rng: random.Random) -> FiniteAlgebra:
    """Seeded random algebra: size 2 or 3, one or two operations of arity
    one or two, uniform tables."""
    s = rng.choice((2, 3))
    ops = []
    for i in range(rng.choice((1, 2))):
        arity = rng.choice((1, 2))
        table = [rng.randrange(s) for _ in range(s**arity)]
        ops.append((f"g{i}", arity, table))
    return FiniteAlgebra.from_tables(s, ops)
