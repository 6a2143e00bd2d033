"""Seeded generation of random valid window representations.

Arrows are chosen in topological order of their targets: once a vertex x
is reached, the matrices of all arrows ending at x are drawn from the
kernel of the already-fixed half of the mesh relator at x, so every
relator is satisfied by construction.
"""
from __future__ import annotations

import random
from typing import Dict, Optional

from .exact_linalg import QQ, kernel_cols
from .kan_strata import SModulePoint, WindowRep, restrict
from .quiver_core import Configuration, Quiver, RepVertex, Window, build_repetition, relator_row


def random_window_rep(q: Quiver, window: Window, rng: random.Random,
                      config: Optional[Configuration] = None,
                      dim_choices=(0, 1, 1, 2, 2, 3), coeff_range=2,
                      support: Optional[Window] = None,
                      fixed_dims: Optional[Dict[RepVertex, int]] = None) -> WindowRep:
    config = config if config is not None else Configuration.full()
    rq = build_repetition(q, True, window, config)
    dims: Dict[RepVertex, int] = {}
    for v in rq.vertices:
        if fixed_dims is not None and v in fixed_dims:
            dims[v] = fixed_dims[v]
            continue
        if support is not None and not support.contains(v):
            dims[v] = 0
            continue
        dims[v] = rng.choice(dim_choices)
    chosen = {}
    for x in rq.vertices:
        incoming = rq.in_arrows(x)
        dx = dims[x]
        if dx == 0 or not incoming:
            for b in incoming:
                chosen[b] = [[QQ.zero] * dx for _ in range(dims[b.source])]
            continue
        row = relator_row(rq, x, dims, chosen)
        if row is not None and row[0]:
            # columns of the stacked arrow matrices must lie in ker of [mat(sigma b1) | ...]
            rows, total = row
            ker = kernel_cols(rows, total, QQ)
            stacked_cols = []
            for _ in range(dx):
                col = [QQ.zero] * total
                for kv in ker:
                    c = rng.randint(-coeff_range, coeff_range)
                    if c:
                        for i in range(total):
                            col[i] += c * kv[i]
                stacked_cols.append(col)
            off = 0
            for b in incoming:
                wd = dims[b.source]
                chosen[b] = [[stacked_cols[j][off + i] for j in range(dx)] for i in range(wd)]
                off += wd
        else:
            for b in incoming:
                chosen[b] = [[QQ.of_int(rng.randint(-coeff_range, coeff_range)) for _ in range(dx)]
                             for _ in range(dims[b.source])]
    return WindowRep(q, window, config, {v: d for v, d in dims.items() if d}, chosen)


def random_module_point(q: Quiver, window: Window, rng: random.Random,
                        config: Optional[Configuration] = None,
                        dim_choices=(0, 1, 1, 2, 2, 3),
                        support: Optional[Window] = None) -> SModulePoint:
    """A random point of an affine graded quiver variety, as a restriction."""
    rep = random_window_rep(q, window, rng, config, dim_choices, support=support)
    return restrict(rep)
