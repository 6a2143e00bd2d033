"""The benchmark's own arithmetic, kept apart from the program under test.

Correctness checks recompute numbers here instead of trusting the program:
ranks modulo a large prime, rational kernels for input generation, the
quantum Cartan operator, and Hom dimensions as #paths minus the rank of
the relator matrix.  Only the quiver's combinatorics (its vertices and
arrows) come from the program's objects.
"""
from __future__ import annotations

from fractions import Fraction

PRIME = (1 << 61) - 1


def _mod(x, p):
    x = Fraction(x)
    return x.numerator % p * pow(x.denominator % p, p - 2, p) % p


def rank_mod_p(rows, ncols, p=PRIME):
    """Rank of a rational matrix reduced modulo p (never above its rank over Q).

    Sparse elimination: rows are dicts of nonzero entries, reduced against
    the pivot rows found so far.  Relator matrices have a handful of
    nonzeros per row, so this stays fast on matrices of hundreds of rows.
    """
    pivots = {}
    for row in rows:
        r = {}
        for j, x in enumerate(row[:ncols]):
            if x:
                v = _mod(x, p)
                if v:
                    r[j] = v
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], p - 2, p)
                pivots[c] = {j: v * inv % p for j, v in r.items()}
                break
            f = r[c]
            for j, v in piv.items():
                nv = (r.get(j, 0) - f * v) % p
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
    return len(pivots)


def kernel_q(rows, ncols):
    """Basis of the right kernel of a rational matrix, one vector per free column."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        basis.append(v)
    return basis


def zq_in_neighbours(arrows, node, level):
    """(node, level) pairs at the tails of the ZQ arrows into (node, level)."""
    out = [(a.source, level) for a in arrows if a.target == node]
    out += [(a.target, level - 1) for a in arrows if a.source == node]
    return out


def cartan_apply(arrows, v):
    """(C_q v)(x) = v(x) - sum of v over ZQ arrows into x + v(tau x), on (node, level) keys."""
    affected = set()
    for (node, level), val in v.items():
        if not val:
            continue
        affected.add((node, level))
        affected.add((node, level + 1))
        affected.update((a.target, level) for a in arrows if a.source == node)
        affected.update((a.source, level + 1) for a in arrows if a.target == node)
    out = {}
    for node, level in affected:
        val = (v.get((node, level), 0) - sum(v.get(y, 0) for y in zq_in_neighbours(arrows, node, level))
               + v.get((node, level - 1), 0))
        if val:
            out[(node, level)] = val
    return out


def hom_dim_mod_p(sk, ctx, x, y, w):
    """dim Hom(x, y) as #paths minus the rank, modulo a large prime, of the mesh relator rows."""
    mh, qc = sk.mesh_hom, sk.quiver_core
    paths = mh.enumerate_paths(ctx, x, y, w)
    if not paths:
        return 1 if x == y else 0
    index = {p: i for i, p in enumerate(paths)}
    rows = []
    for level in range(x.level, y.level + 1):
        for node in ctx.q.vertices:
            z = qc.RepVertex(node, level)
            tz = qc.RepVertex(node, level - 1)
            if not w.contains(tz) or tz.level < x.level:
                continue
            heads = mh.enumerate_paths(ctx, x, tz, w)
            tails = mh.enumerate_paths(ctx, z, y, w)
            branches = [(qc.sigma_arrow(ctx.q, b), b) for b in ctx.in_arrows(z, w)]
            for h in heads:
                for t in tails:
                    row = [0] * len(paths)
                    for sb, b in branches:
                        row[index[h + (sb, b) + t]] += 1
                    rows.append(row)
    return len(paths) - (rank_mod_p(rows, len(paths)) if rows else 0)
