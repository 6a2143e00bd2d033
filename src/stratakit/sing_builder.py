"""The quiver of the singular category: arrow and minimal-relation counts,
with a brute-force Ext oracle over explicit syzygies.

Arrow counts between frozen vertices come from first-extension spaces
between the corresponding simples and reduce, through the shift
bookkeeping, to mesh dimensions; minimal-relation counts are the second
extensions and vanish identically for connected non-Dynkin quivers.  The
oracle recomputes the same numbers by resolving the simples projectively
inside the singular category itself, so the two routes are independent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .catmod import ext_simple_multiplicity, syzygy_modules, window_category
from .dq_engine import DynkinInfo, is_dynkin, sigma_shift_inv_vertex
from .errors import InvalidInputError, WindowInsufficiencyError
from .mesh_hom import MeshContext, hom_dim
from .quiver_core import Configuration, Quiver, RepVertex, Window, sigma, sigma_inv


@dataclass
class SingQuiverReport:
    """Arrow and minimal-relation counts between retained frozen vertices."""

    vertices: List[RepVertex]
    arrows: Dict[Tuple[RepVertex, RepVertex], int]
    relations: Dict[Tuple[RepVertex, RepVertex], int]
    partial: List[RepVertex] = field(default_factory=list)
    dynkin: Optional[DynkinInfo] = None

    def arrow_count(self, u: RepVertex, v: RepVertex) -> int:
        return self.arrows.get((u, v), 0)

    def out_arrow_total(self, u: RepVertex) -> int:
        return sum(n for (a, _), n in self.arrows.items() if a == u)

    def to_json(self):
        return {
            "vertices": [v.key() for v in self.vertices],
            "arrows": {f"{a.key()}->{b.key()}": n for (a, b), n in sorted(self.arrows.items(),
                                                                          key=lambda kv: (kv[0][0].key(), kv[0][1].key()))},
            "relations": {f"{a.key()}->{b.key()}": n for (a, b), n in sorted(self.relations.items(),
                                                                             key=lambda kv: (kv[0][0].key(), kv[0][1].key()))},
            "partial": [v.key() for v in self.partial],
            "dynkin": None if self.dynkin is None else {
                "is_dynkin": self.dynkin.is_dynkin, "family": self.dynkin.family, "rank": self.dynkin.rank},
        }

    def to_dot(self) -> str:
        lines = ["digraph singular_quiver {", "  rankdir=LR;"]
        for v in self.vertices:
            lines.append(f'  "{v.key()}" [shape=box];')
        for (a, b), n in sorted(self.arrows.items(), key=lambda kv: (kv[0][0].key(), kv[0][1].key())):
            lines.append(f'  "{a.key()}" -> "{b.key()}" [label="{n}"];')
        for (a, b), n in sorted(self.relations.items(), key=lambda kv: (kv[0][0].key(), kv[0][1].key())):
            lines.append(f'  "{a.key()}" -> "{b.key()}" [style=dashed, color=gray, label="r={n}"];')
        lines.append("}")
        return "\n".join(lines)


def build_sing_quiver(q: Quiver, config: Optional[Configuration], w: Window,
                      max_span: Optional[int] = None) -> SingQuiverReport:
    """Counts of arrows and minimal relations between retained frozen vertices.

    Arrows from u to u' count morphisms from the non-frozen companion of u
    one level up into the translate of u''s companion; relation counts go
    through the inverse suspension and require a Dynkin quiver (they vanish
    identically otherwise).  Vertices whose shift data leaves the window
    are listed as partial rather than guessed.

    One kZQ sweep per source x = sigma^{-1}(u) serves all its pairs: it
    runs over the window from x's level up to the highest level any arrow or
    relation target of u needs.  Hom(x, y) involves only the paths and mesh
    relators on the levels between x and y, so the sweep's dimension at y
    equals the one on the shrunk window between the two levels: the counts
    are exact.  max_span caps the level distance of reported pairs: for
    non-Dynkin quivers the mesh dimensions grow exponentially with the
    distance, so a full table over a wide window is not a feasible exact
    computation; capped pairs are simply omitted, never guessed.
    """
    if max_span is not None and max_span < 0:
        raise InvalidInputError("max_span must be >= 0")
    config = config if config is not None else Configuration.full()
    info = is_dynkin(q)
    ctx = MeshContext(q, "kZQ")
    objects = [v for v in MeshContext(q, "RC", config).vertices_in(w) if v.frozen]
    arrows: Dict[Tuple[RepVertex, RepVertex], int] = {}
    relations: Dict[Tuple[RepVertex, RepVertex], int] = {}
    partial: List[RepVertex] = []
    shift_cache: Dict[RepVertex, Optional[RepVertex]] = {}

    def shifted(v: RepVertex) -> Optional[RepVertex]:
        if v not in shift_cache:
            try:
                shift_cache[v] = sigma_shift_inv_vertex(q, v, w)
            except WindowInsufficiencyError:
                shift_cache[v] = None
        return shift_cache[v]

    for u in objects:
        x = sigma_inv(u)
        if not w.contains(x):
            partial.append(u)
            continue
        src_partial = False
        pairs = []  # (table, u2, target of the Hom from x)
        for u2 in objects:
            if max_span is not None and abs(u2.level - u.level) > max_span:
                continue
            y_twin = sigma(u2)  # non-frozen twin of u2 at its own level
            pairs.append((arrows, u2, y_twin))
            if info.is_dynkin:
                z = shifted(y_twin)
                if z is None:
                    # the inverse suspension drops strictly in level, so the
                    # count is provably zero unless u2 sits well above u
                    if u2.level >= u.level + 2:
                        src_partial = True
                    continue
                pairs.append((relations, u2, z))
        sub = Window(x.level, max([x.level] + [y.level for _, _, y in pairs]))
        for table, u2, y in pairs:
            n = hom_dim(ctx, x, y, sub)
            if n:
                table[(u, u2)] = n
        if src_partial:
            partial.append(u)
    return SingQuiverReport(objects, arrows, relations, sorted(set(partial)), info)


def ext_oracle(q: Quiver, config: Optional[Configuration], w: Window,
               x: RepVertex, y: RepVertex, p: int) -> int:
    """dim Ext^p between simple modules over the singular category, by syzygies.

    Builds the minimal projective resolution of the simple at x inside S_C
    (covers from tops, kernels by exact elimination) and counts the
    summands of P_p at y.  This is the independent check of the
    closed-form counts; agreement is the test, not an input.

    The computation is exact on the sub-window between the two levels:
    cover summands below the target never contribute at or above it.  The
    shrink matters for non-Dynkin quivers, where framed morphism spaces
    grow exponentially with the level distance.  The category of that
    sub-window is the shared one of catmod.window_category, so every target
    on one level reads the simple's one kept resolution
    (catmod.simple_resolution).
    """
    if p not in (1, 2, 3):
        raise InvalidInputError("ext_oracle supports p in {1, 2, 3}")
    if not (x.frozen and y.frozen):
        raise InvalidInputError("ext_oracle takes frozen vertices")
    if not (w.contains(x) and w.contains(y)):
        raise WindowInsufficiencyError("both vertices must lie inside the window")
    if x.node not in q.topo_index or y.node not in q.topo_index or (
            config is not None and not (config.retains(x) and config.retains(y))):
        raise InvalidInputError("both vertices must be retained objects inside the window")
    if y.level > x.level:
        return 0
    sub = Window(max(w.lo, y.level), min(w.hi, x.level))
    return ext_simple_multiplicity(window_category(q, config, sub), x, y, p)


def second_syzygy_is_zero(q: Quiver, config: Optional[Configuration], w: Window, x: RepVertex) -> bool:
    """Whether the second syzygy of the simple at x vanishes on the window, read off its kept resolution."""
    if not w.contains(x):
        raise WindowInsufficiencyError(f"{x} outside window")
    cat = window_category(q, config, Window(w.lo, x.level))
    omega2 = syzygy_modules(cat, x, 2)[-1]
    return omega2.is_zero()
