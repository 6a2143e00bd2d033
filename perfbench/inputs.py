"""Seeded generation of benchmark inputs: random valid window representations.

Vertices are visited in topological order.  At a non-frozen vertex x whose
translate tau(x) lies in the window, the matrices of all arrows into x are
drawn together from the kernel of the already fixed half of the mesh
relator at x, so every relator holds by construction and no sample is ever
rejected.  Frozen dimensions can be fixed, which fixes the point's w.
The kernel comes from the benchmark's own elimination.
"""
from __future__ import annotations

from fractions import Fraction

from independent import kernel_q, rank_mod_p


# Frozen dimensions (node, level) -> dim of node'@level over A2.  STRATUM_W
# has 1 on levels 0-2 of a [0,3] window; each fiber point has its own fixed
# w on levels 0-1 of a [0,4] window.
STRATUM_W = {(n, p): 1 for n in ("1", "2") for p in (0, 1, 2)}
FIBER_WS = ({("1", 1): 1, ("2", 0): 1}, {("1", 0): 1, ("2", 0): 1, ("1", 1): 1}, {("2", 0): 1, ("2", 1): 1})


def named_quiver(sk, name):
    """A2, A3, D4, K2 (Kronecker) or K3 (3-Kronecker) from the program's constructors."""
    qc = sk.quiver_core
    return {"A2": lambda: qc.a_n_quiver(2), "A3": lambda: qc.a_n_quiver(3), "D4": qc.d4_quiver,
            "K2": lambda: qc.kronecker_quiver(2), "K3": lambda: qc.kronecker_quiver(3)}[name]()


def random_rep(sk, q, window, rng, dim_choices=(0, 1, 1, 2, 2, 3), coeff_range=2,
               support=None, frozen_dims=None, dims_rng=None):
    """A valid WindowRep; frozen_dims maps (node, level) to the dimension of node'@level.

    Dimensions not fixed otherwise are drawn from dims_rng (default rng).
    A dims_rng seeded apart from the run's seed fixes the dimension vector,
    so that the seed moves the point's matrices but hardly its cost.
    """
    dims_rng = dims_rng or rng
    qc = sk.quiver_core
    rq = qc.RepQuiver(q, True, window)
    dims = {}
    for v in rq.vertices:
        if frozen_dims is not None and v.frozen:
            dims[v] = frozen_dims.get((v.node, v.level), 0)
        elif support is not None and not support.contains(v):
            dims[v] = 0
        else:
            dims[v] = dims_rng.choice(dim_choices)
    chosen = {}
    for x in rq.vertices:
        incoming = rq.in_arrows(x)
        dx = dims[x]
        widths = [dims[b.source] for b in incoming]
        tx = qc.tau(x)
        if dx and incoming and not x.frozen and window.contains(tx) and dims[tx]:
            total = sum(widths)
            rows = []
            for i in range(dims[tx]):
                row = []
                for b, wd in zip(incoming, widths):
                    m = chosen.get(qc.sigma_arrow(q, b))
                    row.extend(m[i] if m else [0] * wd)
                rows.append(row)
            ker = kernel_q(rows, total)
            stacked = []
            for _ in range(dx):
                col = [Fraction(0)] * total
                for kv in ker:
                    c = rng.randint(-coeff_range, coeff_range)
                    if c:
                        col = [a + c * b for a, b in zip(col, kv)]
                stacked.append(col)
            off = 0
            for b, wd in zip(incoming, widths):
                chosen[b] = [[stacked[j][off + i] for j in range(dx)] for i in range(wd)]
                off += wd
        else:
            for b, wd in zip(incoming, widths):
                chosen[b] = [[Fraction(rng.randint(-coeff_range, coeff_range)) for _ in range(dx)]
                             for _ in range(wd)]
    return sk.kan_strata.WindowRep(q, window, None, {v: d for v, d in dims.items() if d}, chosen)


def is_stable(sk, rep):
    """Own stability test: at each non-frozen vertex the arrows into it are jointly injective.

    Rank modulo a prime never exceeds the rational rank, so a pass here is
    a proof of stability over Q.
    """
    for x in rep.rq.vertices:
        d = rep.dim(x)
        if x.frozen or d == 0:
            continue
        rows = [row for b in rep.rq.in_arrows(x) for row in rep.mat(b)]
        if not rows or rank_mod_p(rows, d) < d:
            return False
    return True
