"""Quivers, framed quivers, level windows and the repetition quiver.

Vertices of the repetition quiver are pairs (node, level); the framed
variant adds a frozen companion node i' per node i.  The involution sigma
and the translation tau act on vertices and arrows; sigma(sigma(u)) =
tau(u) everywhere.  All I/O uses the keys "i@p" (ordinary) and "i'@p"
(frozen), levels being arbitrary integers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, NamedTuple, Optional

from .errors import InvalidInputError
from .exact_linalg import QQ, mat_rank


@dataclass(frozen=True)
class QArrow:
    """An arrow of the base quiver."""

    id: str
    source: str
    target: str


class Quiver:
    """A finite acyclic quiver.  Parallel arrows are allowed, cycles are not.

    Immutable once built: vertices and arrows are never reassigned, so the
    identity string returned by key() and the arrows by id (arrow_by_id)
    are computed once, at construction.  Ids and endpoints must be strings,
    and no vertex id may end in the frozen marker ', so every vertex key
    reads back as the vertex it names (parse_vertex).
    """

    def __init__(self, vertices: Iterable[str], arrows: Iterable[QArrow]):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        for x in self.vertices + tuple(x for a in self.arrows for x in (a.id, a.source, a.target)):
            if not isinstance(x, str):
                raise InvalidInputError(f"quiver vertex and arrow ids must be strings, got {x!r}")
        for v in self.vertices:
            if v.endswith("'"):
                raise InvalidInputError(f"vertex id {v!r} ends in the frozen marker '")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInputError("duplicate vertex ids")
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise InvalidInputError("duplicate arrow ids")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise InvalidInputError(f"arrow {a.id} has endpoint outside vertex set")
        self.arrow_by_id = {a.id: a for a in self.arrows}
        self._topo = self._topological_order()
        self.topo_index = {v: i for i, v in enumerate(self._topo)}
        self._key = json.dumps(self.to_json(), sort_keys=True)

    def _topological_order(self):
        out = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a.target)
            indeg[a.target] += 1
        ready = sorted(v for v in self.vertices if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        if len(order) != len(self.vertices):
            raise InvalidInputError("quiver has an oriented cycle")
        return order

    def arrows_from(self, v: str):
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v: str):
        return [a for a in self.arrows if a.target == v]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def key(self) -> str:
        """Canonical string identifying the quiver (used as a cache key)."""
        return self._key

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a.id, "source": a.source, "target": a.target} for a in self.arrows],
        }

    @classmethod
    def from_json(cls, data) -> "Quiver":
        """A quiver given as input, checked as every quiver is at construction."""
        try:
            vertices = data["vertices"]
            arrows = [(a["id"], a["source"], a["target"]) for a in data["arrows"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed quiver JSON: {exc}") from exc
        if not isinstance(vertices, list):
            raise InvalidInputError(f"quiver vertices must be a list, got {vertices!r}")
        return cls(vertices, [QArrow(*a) for a in arrows])

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {len(self.arrows)} arrows)"


# Some stock quivers used throughout the tests and demos.

def a_n_quiver(n: int) -> Quiver:
    """Linearly oriented A_n: 1 -> 2 -> ... -> n."""
    verts = [str(i) for i in range(1, n + 1)]
    arrows = [QArrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return Quiver(verts, arrows)


def d4_quiver() -> Quiver:
    """D4 with central source: 0 -> 1, 0 -> 2, 0 -> 3."""
    return Quiver(["0", "1", "2", "3"], [QArrow("b1", "0", "1"), QArrow("b2", "0", "2"), QArrow("b3", "0", "3")])


def kronecker_quiver(arrows: int = 2) -> Quiver:
    """The quiver with two vertices and the given number of parallel arrows 1 -> 2."""
    return Quiver(["1", "2"], [QArrow(f"k{i}", "1", "2") for i in range(1, arrows + 1)])


class RepVertex(NamedTuple):
    """A vertex (node, level) of the repetition quiver; frozen marks the primed copy.

    A tuple, so hashing, equality and ordering run in C; the hash is
    hash((node, level, frozen)).
    """

    node: str
    level: int
    frozen: bool = False

    def key(self) -> str:
        prime = "'" if self.frozen else ""
        return f"{self.node}{prime}@{self.level}"

    def __repr__(self):
        return self.key()


def parse_vertex(key: str) -> RepVertex:
    """Inverse of RepVertex.key: "i@p" or "i'@p"."""
    if not isinstance(key, str):
        raise InvalidInputError(f"bad vertex key {key!r}: expected a string")
    try:
        name, level = key.rsplit("@", 1)
        frozen = name.endswith("'")
        node = name[:-1] if frozen else name
        return RepVertex(node, int(level), frozen)
    except ValueError as exc:
        raise InvalidInputError(f"bad vertex key {key!r}") from exc


def tau(v: RepVertex) -> RepVertex:
    return RepVertex(v.node, v.level - 1, v.frozen)


def tau_inv(v: RepVertex) -> RepVertex:
    return RepVertex(v.node, v.level + 1, v.frozen)


def sigma(v: RepVertex) -> RepVertex:
    """The involutive shift: sigma(i,p) = (i',p-1), sigma(i',p) = (i,p).

    With this choice sigma o sigma = tau, which is the identity the mesh
    bookkeeping relies on (the frozen companion of x sits between tau(x)
    and x).
    """
    if v.frozen:
        return RepVertex(v.node, v.level, False)
    return RepVertex(v.node, v.level - 1, True)


def sigma_inv(v: RepVertex) -> RepVertex:
    if v.frozen:
        return RepVertex(v.node, v.level + 1, False)
    return RepVertex(v.node, v.level, True)


class RepArrow(NamedTuple):
    """An arrow of the (framed) repetition quiver.

    kind is one of:
      "a"  inherited copy of a base arrow, (i,p) -> (j,p)
      "s"  reversed copy, (j,p-1) -> (i,p)
      "f"  framing, (i,p) -> (i',p)
      "c"  co-framing, (i',p-1) -> (i,p)
    base is the base-arrow id for kinds a/s and the node id for kinds f/c.
    A tuple like RepVertex; the hash is hash((kind, base, source, target)).
    """

    kind: str
    base: str
    source: RepVertex
    target: RepVertex

    def key(self) -> str:
        """The key kind:base@p, p the target level; equal arrows share one string until clear_slices()."""
        k = _ARROW_KEYS.get(self)
        if k is None:
            k = _ARROW_KEYS[self] = f"{self.kind}:{self.base}@{self.target.level}"
        return k

    def __repr__(self):
        return f"{self.key()}[{self.source}->{self.target}]"


def parse_arrow_key(q: Quiver, key: str) -> RepArrow:
    try:
        head, level = key.rsplit("@", 1)
        kind, base = head.split(":", 1)
        p = int(level)
    except ValueError as exc:
        raise InvalidInputError(f"bad arrow key {key!r}") from exc
    if kind in ("a", "s"):
        arr = q.arrow_by_id.get(base)
        if arr is None:
            raise InvalidInputError(f"unknown base arrow {base!r} in key {key!r}")
        if kind == "a":
            return RepArrow("a", base, RepVertex(arr.source, p), RepVertex(arr.target, p))
        return RepArrow("s", base, RepVertex(arr.target, p - 1), RepVertex(arr.source, p))
    if kind == "f":
        return RepArrow("f", base, RepVertex(base, p), RepVertex(base, p, True))
    if kind == "c":
        return RepArrow("c", base, RepVertex(base, p - 1, True), RepVertex(base, p))
    raise InvalidInputError(f"bad arrow kind in key {key!r}")


def sigma_arrow(q: Quiver, ra: RepArrow) -> RepArrow:
    """sigma on arrows; sigma^2 = tau (shift one level down)."""
    p = ra.target.level
    if ra.kind == "a":
        arr = q.arrow_by_id[ra.base]
        return RepArrow("s", ra.base, RepVertex(arr.target, p - 1), RepVertex(arr.source, p))
    if ra.kind == "s":
        arr = q.arrow_by_id[ra.base]
        return RepArrow("a", ra.base, RepVertex(arr.source, p - 1), RepVertex(arr.target, p - 1))
    if ra.kind == "f":
        return RepArrow("c", ra.base, RepVertex(ra.base, p - 1, True), RepVertex(ra.base, p))
    return RepArrow("f", ra.base, RepVertex(ra.base, p - 1), RepVertex(ra.base, p - 1, True))


# The most levels a window given as input may span: every level of it is
# built, and the widest window the tests and the benchmark use is [0, 17].
MAX_WINDOW_LEVELS = 1000


@dataclass(frozen=True)
class Window:
    """Inclusive level bounds [lo, hi].  No operation silently extends a window."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInputError(f"empty window [{self.lo},{self.hi}]")

    def contains(self, v: RepVertex) -> bool:
        return self.lo <= v.level <= self.hi

    def levels(self):
        return range(self.lo, self.hi + 1)

    def to_json(self):
        return [self.lo, self.hi]

    @classmethod
    def from_json(cls, data) -> "Window":
        """A window given as input: exactly two integers (no booleans) [lo, hi],
        spanning at most MAX_WINDOW_LEVELS levels."""
        if not (isinstance(data, (list, tuple)) and len(data) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in data)):
            raise InvalidInputError(f"bad window {data!r}: expected two integers [lo, hi]")
        lo, hi = data
        if hi - lo >= MAX_WINDOW_LEVELS:
            raise InvalidInputError(f"window [{lo},{hi}] spans {hi - lo + 1} levels, more than {MAX_WINDOW_LEVELS}")
        return cls(lo, hi)


class Configuration:
    """A set C of non-frozen repetition-quiver vertices, given extensionally.

    The retained frozen vertices are exactly those u with sigma(u) in C.
    An optional period k makes membership tau^k-periodic, so Riedtmann-style
    periodic configurations need only one fundamental domain of data.
    The default (members=None) is the full configuration: every non-frozen
    vertex belongs to C and every frozen vertex is retained.  Immutable once
    built: members and period are never reassigned, so key() is computed
    once, at construction.
    """

    def __init__(self, members: Optional[Iterable[RepVertex]] = None, period: Optional[int] = None):
        if members is None:
            self.members = None
        else:
            ms = set(members)
            for v in ms:
                if v.frozen:
                    raise InvalidInputError("configuration members must be non-frozen vertices")
            self.members = frozenset(ms)
        if period is not None and (isinstance(period, bool) or not isinstance(period, int) or period <= 0):
            raise InvalidInputError(f"configuration period must be a positive integer, got {period!r}")
        self.period = period
        if self.members is None:
            self._key = "ALL"
        else:
            body = ",".join(sorted(v.key() for v in self.members))
            self._key = f"{body};period={self.period}"

    @classmethod
    def full(cls) -> "Configuration":
        return cls(None)

    def is_full(self) -> bool:
        return self.members is None

    def contains(self, v: RepVertex) -> bool:
        if v.frozen:
            return False
        if self.members is None:
            return True
        if RepVertex(v.node, v.level) in self.members:
            return True
        if self.period is not None:
            return any(m.node == v.node and (v.level - m.level) % self.period == 0 for m in self.members)
        return False

    def retains(self, u: RepVertex) -> bool:
        """Whether the frozen vertex u survives in the configured categories."""
        if not u.frozen:
            raise InvalidInputError("retains() takes a frozen vertex")
        return self.contains(sigma(u))

    def key(self) -> str:
        return self._key

    def to_json(self):
        if self.members is None:
            return None
        data = {"members": sorted(v.key() for v in self.members)}
        if self.period is not None:
            data["period"] = self.period
        return data

    @classmethod
    def from_json(cls, data) -> "Configuration":
        if data is None:
            return cls.full()
        if isinstance(data, list):
            return cls([parse_vertex(k) for k in data])
        if not isinstance(data, dict):
            raise InvalidInputError(f"configuration must be null, a list or an object, got {data!r}")
        members = data.get("members", [])
        if not isinstance(members, list):
            raise InvalidInputError(f"configuration members must be a list, got {members!r}")
        return cls([parse_vertex(k) for k in members], data.get("period"))

    def __repr__(self):
        return f"Configuration({self.key()})"


@dataclass(frozen=True, slots=True)
class MeshRelator:
    """The mesh relator at a non-frozen vertex x: one (sigma(beta), beta) term per arrow
    beta: y -> x with y in the slice (RepQuiver.relator)."""

    vertex: RepVertex
    terms: tuple  # tuple of (RepArrow, RepArrow) pairs, each a path tau(x) -> y -> x


def rep_in_arrows(q: Quiver, v: RepVertex, framed: bool = True):
    """Arrows of the (framed) repetition quiver ending at v, with no window or configuration.

    The order is the one every slice uses: inherited, reversed, then framing.
    """
    if v.frozen:
        return [RepArrow("f", v.node, RepVertex(v.node, v.level), v)]
    out = [RepArrow("a", a.id, RepVertex(a.source, v.level), v) for a in q.arrows_into(v.node)]
    out += [RepArrow("s", a.id, RepVertex(a.target, v.level - 1), v) for a in q.arrows_from(v.node)]
    if framed:
        out.append(RepArrow("c", v.node, RepVertex(v.node, v.level - 1, True), v))
    return out


def rep_out_arrows(q: Quiver, v: RepVertex, framed: bool = True):
    """Arrows of the (framed) repetition quiver starting at v, with no window or configuration."""
    if v.frozen:
        return [RepArrow("c", v.node, v, RepVertex(v.node, v.level + 1))]
    out = [RepArrow("a", a.id, v, RepVertex(a.target, v.level)) for a in q.arrows_from(v.node)]
    out += [RepArrow("s", a.id, v, RepVertex(a.source, v.level + 1)) for a in q.arrows_into(v.node)]
    if framed:
        out.append(RepArrow("f", v.node, v, RepVertex(v.node, v.level, True)))
    return out


class RepQuiver:
    """A level-window slice of the (framed) repetition quiver.

    When a configuration is supplied, frozen vertices outside the retained
    set are dropped together with their incident arrows, which is exactly
    the quotient killing their identity morphisms.  Immutable once built:
    vertices, arrows and the arrows into and out of each vertex are tuples,
    the arrows computed on first use and kept, so one slice can be shared
    (build_repetition).
    """

    def __init__(self, q: Quiver, framed: bool, window: Window, config: Optional[Configuration] = None):
        self.q = q
        self.framed = framed
        self.window = window
        self.config = config if config is not None else Configuration.full()
        stray = sorted(m.key() for m in self.config.members or () if m.node not in q.topo_index)
        if stray:
            raise InvalidInputError(f"configuration member {stray[0]} names a node outside the quiver")
        vertices = []
        for p in window.levels():
            for node in q._topo:
                vertices.append(RepVertex(node, p))
                if framed:
                    u = RepVertex(node, p, True)
                    if self.config.retains(u):
                        vertices.append(u)
        self.vertices = tuple(vertices)
        self._vset = frozenset(vertices)
        self._in: Dict[RepVertex, tuple] = {}
        self._out: Dict[RepVertex, tuple] = {}
        self._rel: Dict[RepVertex, Optional[MeshRelator]] = {}

    @cached_property
    def arrows(self):
        return tuple(a for v in self.vertices for a in self.in_arrows(v))

    def has_vertex(self, v: RepVertex) -> bool:
        return v in self._vset

    def in_arrows(self, v: RepVertex):
        """Arrows of the sliced quiver ending at v (sources inside the slice)."""
        arrows = self._in.get(v)
        if arrows is None:
            if v not in self._vset:
                return ()
            arrows = self._in[v] = tuple(a for a in rep_in_arrows(self.q, v, self.framed)
                                         if a.source in self._vset)
        return arrows

    def out_arrows(self, v: RepVertex):
        """Arrows of the sliced quiver starting at v (targets inside the slice)."""
        arrows = self._out.get(v)
        if arrows is None:
            if v not in self._vset:
                return ()
            arrows = self._out[v] = tuple(a for a in rep_out_arrows(self.q, v, self.framed)
                                          if a.target in self._vset)
        return arrows

    def relator(self, x: RepVertex) -> Optional[MeshRelator]:
        """The mesh relator at x, or None where none is imposed; memoized, as in_arrows is.

        A relator is imposed exactly at a non-frozen x with tau(x) in the window, so x may lie one
        level above it.  The terms pair each arrow b: y -> x with y in the slice (in_arrows(x) at a
        vertex of the slice) with sigma(b): tau(x) -> y: the one place arrows meet their sigma-images.
        """
        if x in self._rel:
            return self._rel[x]
        rel = None
        if not x.frozen and self.window.contains(tau(x)):
            bs = (self.in_arrows(x) if x in self._vset
                  else [b for b in rep_in_arrows(self.q, x, self.framed) if b.source in self._vset])
            terms = []
            for b in bs:  # sigma(b) ends at b.source: the memo keeps the slice's own copy of it
                sb = sigma_arrow(self.q, b)
                terms.append((next(a for a in self.in_arrows(b.source) if a == sb), b))
            rel = MeshRelator(x, tuple(terms))
        self._rel[x] = rel
        return rel


# Objects shared by every caller until clear_slices(), keyed by a kind tag
# ("slice", "category", "serre", "fiber") followed by what identifies the object:
# a window slice, a windowed category, the Serre node map of a quiver, a fiber stage.
_SHARED: Dict[tuple, object] = {}
# The key string of each arrow (RepArrow.key), also kept until clear_slices().
_ARROW_KEYS: Dict[RepArrow, str] = {}


def shared(key: tuple, make, *args):
    """The shared object under key, built as make(*args) on first use; it must not be modified."""
    obj = _SHARED.get(key)
    if obj is None:
        obj = _SHARED.setdefault(key, make(*args))
    return obj


def build_repetition(q: Quiver, frame: bool, w: Window, config: Optional[Configuration] = None) -> RepQuiver:
    """All vertices and arrows of ZQ (or framed ZQ~) with levels in the window.

    One slice is built per (quiver, framing, window, configuration) and
    shared by every caller until clear_slices(); it must not be modified.
    """
    config = config if config is not None else Configuration.full()
    return shared(("slice", q._key, frame, w, config.key()), RepQuiver, q, frame, w, config)


def clear_slices():
    """Drop every shared object (the window slices, the windowed categories, the Serre
    node maps and the fiber stages) and the arrow key strings.  An object with a release()
    method (a windowed category) is told to give up its memos, so one still referenced
    elsewhere holds no more than what it was built from."""
    for obj in _SHARED.values():
        release = getattr(obj, "release", None)
        if release is not None:
            release()
    _SHARED.clear()
    _ARROW_KEYS.clear()


def check_configuration(q: Quiver, config: Configuration, w: Window) -> dict:
    """Report on condition (R) and on the two left-exact mesh sequences.

    For every vertex x of the window, condition (R) asks for some c in C
    with a nonzero mesh morphism x -> c.  A vertex whose morphisms could
    still reach a member above the window is reported "undetermined";
    vanishing on the entire top level certifies the support was seen.

    Left-exactness is checked per interior non-frozen vertex by a rank
    computation on Hom bases: the map Hom(u,x) -> (+) Hom(u,y) over arrows
    x -> y must be injective for every test object u (and dually).
    """
    from . import mesh_hom

    ctx = mesh_hom.MeshContext(q, "RC", config)
    kzq = mesh_hom.MeshContext(q, "kZQ", None)
    rq = build_repetition(q, True, w, config)
    nonfrozen = [v for v in rq.vertices if not v.frozen]
    report = {"condition_R": {}, "left_exact": {}}

    for x in nonfrozen:
        found = None
        support_hits_top = False
        for c in nonfrozen:
            if c.level < x.level:
                continue
            if not config.contains(c):
                continue
            if mesh_hom.hom_dim(kzq, x, c, w) > 0:
                found = c
                break
        if found is None:
            for y in nonfrozen:
                if y.level == w.hi and mesh_hom.hom_dim(kzq, x, y, w) > 0:
                    support_hits_top = True
                    break
        if found is not None:
            report["condition_R"][x.key()] = {"holds": True, "witness": found.key()}
        elif support_hits_top:
            report["condition_R"][x.key()] = {"holds": None, "detail": "undetermined: window too small"}
        else:
            report["condition_R"][x.key()] = {"holds": False}

    for x in nonfrozen:
        if x.level >= w.hi:  # outgoing mesh leaves the window
            report["left_exact"][x.key()] = {"holds": None, "detail": "undetermined: boundary vertex"}
            continue
        ok = True
        outgoing = rq.out_arrows(x)
        incoming = rq.in_arrows(x)
        for u in rq.vertices:
            if u.level > x.level:
                continue
            dom = mesh_hom.hom_dim(ctx, u, x, w)
            if dom == 0:
                continue
            rows = [r for a in outgoing for r in mesh_hom.postcomposition_matrix(ctx, u, (a,), x, w)]
            if mat_rank(rows, dom, QQ) != dom:
                ok = False
                break
        if ok and x.level > w.lo:
            for u in rq.vertices:
                if u.level < x.level:
                    continue
                dom = mesh_hom.hom_dim(ctx, x, u, w)
                if dom == 0:
                    continue
                rows = [r for a in incoming for r in mesh_hom.precomposition_matrix(ctx, (a,), a.source, x, u, w)]
                if mat_rank(rows, dom, QQ) != dom:
                    ok = False
                    break
        report["left_exact"][x.key()] = {"holds": ok}
    return report

