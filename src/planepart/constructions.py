"""Friendly-partition constructions on the incidence graph of PG(2,q).

Each construction returns a :class:`Partition` over the 2(q^2+q+1) graph
vertices (points first, lines after) together with provenance.  None of
them measures its own quality; callers get margins from
:mod:`planepart.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .graphs import LabelMap
from .plane import BaerDecomposition, Plane, baer_decomposition, distinct, vertex_ids


@dataclass(eq=False)
class Partition:
    """Two-class vertex assignment: side 0 is class A, side 1 is class B.

    Building one is the package's one check of a side: a 1-D array of 0
    and 1 with both classes nonempty, else ValueError.
    """

    side: np.ndarray
    provenance: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        side = np.asarray(self.side)
        if side.ndim != 1 or not ((side == 0) | (side == 1)).all():
            raise ValueError("partition side must be a 1-D array of 0 (A) and 1 (B)")
        self.side = side.astype(np.uint8)
        counts = np.bincount(self.side, minlength=2)
        if counts[0] == 0 or counts[1] == 0:
            raise ValueError("partition classes must both be nonempty")

    @property
    def n(self) -> int:
        return int(self.side.size)

    def class_a(self) -> np.ndarray:
        return np.flatnonzero(self.side == 0)

    def to_json(self, labels) -> dict:
        return {
            "assignment": LabelMap(labels, self.side, ("A", "B")),
            "provenance": self.provenance,
        }

    @staticmethod
    def from_json(doc: dict, label_to_id: dict[str, int], n: int) -> "Partition":
        side = np.full(n, -1, dtype=np.int8)
        for label, cls in doc["assignment"].items():
            if label not in label_to_id:
                raise ValueError(f"unknown vertex label {label!r}")
            if cls not in ("A", "B"):
                raise ValueError(f"bad class {cls!r} for vertex {label!r}")
            side[label_to_id[label]] = 0 if cls == "A" else 1
        if (side < 0).any():
            missing = int(np.count_nonzero(side < 0))
            raise ValueError(f"assignment misses {missing} vertices")
        return Partition(
            side=side.astype(np.uint8), provenance=doc.get("provenance", {})
        )


def _partition(pl: Plane, point_ids, line_ids, name: str, params: dict) -> Partition:
    """Class A = the point ids and the line ids, integer arrays of ``pl``."""
    side = np.ones(2 * pl.n, dtype=np.uint8)
    side[point_ids] = 0
    side[pl.n + line_ids] = 0
    prov = {
        "construction": name,
        "parameters": dict(params),
        "field_modulus": list(pl.field.modulus),
    }
    return Partition(side=side, provenance=prov)


# -- Baer subplane split -------------------------------------------------------


def construct_baer_partition(
    pl: Plane, dec: BaerDecomposition | None = None
) -> Partition:
    """Class A = the first floor((q - sqrt(q) + 1)/2) Baer subplanes.

    Induces a regular graph on each side: valency sqrt(q) + m on A and
    sqrt(q) + m + 1 on B, where m is the number of A-subplanes minus one.
    """
    dec = dec or baer_decomposition(pl)
    m = (pl.q - dec.suborder + 1) // 2
    pts = np.concatenate([dec.subplanes[j][0] for j in range(m)])
    lns = np.concatenate([dec.subplanes[j][1] for j in range(m)])
    return _partition(
        pl, pts, lns, "baer", {"q": pl.q, "subplanes_in_a": m}
    )


# -- pencil construction for odd q ---------------------------------------------


def construct_combinatorial(
    pl: Plane,
    point: int | None = None,
    line: int | None = None,
    pencil=None,
    drop_variant: bool = False,
) -> Partition:
    """Class A from half a pencil: q odd.

    Take (q+1)/2 lines through a point P off a reference line ell.  A gets
    every point of those pencil lines, and every line through the (q+1)/2
    points where the pencil meets ell.  The drop variant removes P and ell
    themselves from A.  The point, the line and the pencil lines follow the
    id rule of ``vertex_ids``: a repeated pencil line counts once.
    """
    q = pl.q
    if q % 2 == 0:
        raise ValueError(f"combinatorial construction requires odd q, got q={q}")
    default = pl.index((0, 0, 1))
    point = vertex_ids(default if point is None else point, pl.n, "point").item()
    line = vertex_ids(default if line is None else line, pl.n, "line").item()
    if pl.is_incident(point, line):
        raise ValueError("combinatorial construction requires a point off the line")
    half = (q + 1) // 2
    if pencil is None:
        pencil = pl.pencils[point][:half]
    pencil = vertex_ids(pencil, pl.n, "pencil line")
    if pencil.size != half:
        raise ValueError(f"pencil must hold {half} distinct lines")
    if not np.isin(pencil, pl.pencils[point]).all():
        raise ValueError("pencil lines must all pass through the chosen point")

    p1 = distinct(pl.pencils[pencil])
    meet = np.intersect1d(pl.pencils[line], p1, assume_unique=True)
    if meet.size != half:
        raise RuntimeError("pencil does not meet the reference line correctly")
    l1 = distinct(pl.pencils[meet])
    if drop_variant:
        p1, l1 = p1[p1 != point], l1[l1 != line]
    params = dict(q=q, point=point, line=line, pencil=pencil.tolist(), drop_variant=drop_variant)
    return _partition(pl, p1, l1, "combinatorial", params)


# -- algebraic constructions by residue class ----------------------------------

_UNIT_TRIPLES = ((0, 1, 0), (1, 0, 0), (0, 0, 1))

# square tests on the slope, y-axis, x-axis and ideal families: the A-points
# are the same for both residues of q mod 4, the A-lines differ
_ALG_POINTS = (True, True, False, False)
_ALG_LINES = {1: (False, True, False, True), 3: (True, False, True, False)}


def _coordinate_class(pl: Plane, squares, units: bool) -> np.ndarray:
    """Vertex ids picked by square tests on the four coordinate families."""
    slope_sq, yaxis_sq, xaxis_sq, ideal_sq = squares
    f = pl.field
    sq = f.square_mask
    u = np.arange(1, pl.q)
    one, zero = np.ones_like(u), np.zeros_like(u)
    x, y = (a.ravel() for a in np.meshgrid(u, u, indexing="ij"))
    slope = f.mul_table[y, f.inv_table[x]]
    fam = [
        np.stack([x, y, np.ones_like(x)], axis=1)[sq[slope] == slope_sq],
        np.stack([zero, u, one], axis=1)[sq[u] == yaxis_sq],
        np.stack([u, zero, one], axis=1)[sq[u] == xaxis_sq],
        np.stack([u, one, zero], axis=1)[sq[u] == ideal_sq],
    ]
    if units:
        fam.append(np.array(_UNIT_TRIPLES))
    return pl.index(np.concatenate(fam))


def _construct_algebraic(pl: Plane, residue: int, erase_units: bool) -> Partition:
    q = pl.q
    name = f"alg{residue}mod4"
    if q % 4 != residue:
        raise ValueError(f"{name} construction requires q = {residue} (mod 4), got q={q}")
    pts = _coordinate_class(pl, _ALG_POINTS, not erase_units)
    lns = _coordinate_class(pl, _ALG_LINES[residue], not erase_units)
    return _partition(pl, pts, lns, name, {"q": q, "erase_units": erase_units})


def construct_algebraic_1mod4(pl: Plane, erase_units: bool = False) -> Partition:
    """Square-slope class A for q = 1 mod 4.

    A-points: (x:y:1) with y/x a square, (0:y:1) with y a square, (x:0:1)
    and (x:1:0) with x a nonsquare, plus the three unit triples.  A-lines
    flip the slope and ideal tests: [x:y:1] with y/x a nonsquare, [0:y:1]
    with y a square, [x:0:1] with x a nonsquare, [x:1:0] with x a square,
    plus units.  The erase variant leaves out the six unit-triple vertices.
    """
    return _construct_algebraic(pl, 1, erase_units)


def construct_algebraic_3mod4(pl: Plane, erase_units: bool = False) -> Partition:
    """Square-slope class A for q = 3 mod 4.

    A-points: same coordinate families as the 1 mod 4 case.  A-lines flip
    the two axis tests instead: [x:y:1] with y/x a square, [0:y:1] with y a
    nonsquare, [x:0:1] with x a square, [x:1:0] with x a nonsquare, plus
    units.  The erase variant leaves out the six unit-triple vertices.
    """
    return _construct_algebraic(pl, 3, erase_units)


# -- conic classification and oval splits --------------------------------------

LINE_SKEW, LINE_TANGENT, LINE_SECANT = 0, 1, 2


@dataclass(eq=False)
class OvalData:
    """A conic oval with its line classification and point tangent counts."""

    plane: Plane
    oval: np.ndarray          # point ids, q+1 of them
    tangent_count: np.ndarray  # per point: tangent lines through it
    line_class: np.ndarray     # per line: LINE_SKEW / LINE_TANGENT / LINE_SECANT

    @cached_property
    def on_oval(self) -> np.ndarray:
        mask = np.zeros(self.plane.n, dtype=bool)
        mask[self.oval] = True
        return mask

    @property
    def interior_points(self) -> np.ndarray:
        return np.flatnonzero(~self.on_oval & (self.tangent_count == 0))

    @property
    def exterior_points(self) -> np.ndarray:
        return np.flatnonzero(~self.on_oval & (self.tangent_count == 2))

    @property
    def skew_lines(self) -> np.ndarray:
        return np.flatnonzero(self.line_class == LINE_SKEW)

    @property
    def tangent_lines(self) -> np.ndarray:
        return np.flatnonzero(self.line_class == LINE_TANGENT)

    @property
    def secant_lines(self) -> np.ndarray:
        return np.flatnonzero(self.line_class == LINE_SECANT)


def classify_conic(pl: Plane) -> OvalData:
    """Classify lines and points against the conic (t : t^2 : 1), (0:1:0).

    Odd q only.  Every line meets the conic in 0, 1 or 2 points; points off
    the conic lie on 0 or 2 tangents (interior respectively exterior).
    """
    q = pl.q
    if q % 2 == 0:
        raise ValueError(f"conic classification requires odd q, got q={q}")
    t = np.arange(q)
    oval_triples = np.stack([t, np.diagonal(pl.field.mul_table), np.ones_like(t)], axis=1)
    oval = np.sort(pl.index(np.vstack([oval_triples, [(0, 1, 0)]])))
    line_class = pl.hits(oval)
    if line_class.max() > 2:
        raise RuntimeError("conic has three collinear points")
    tangent_count = pl.hits(np.flatnonzero(line_class == LINE_TANGENT))
    od = OvalData(
        plane=pl, oval=oval, tangent_count=tangent_count, line_class=line_class
    )
    _validate_oval(od)
    return od


def _validate_oval(od: OvalData):
    pl, q = od.plane, od.plane.q
    ok = (
        od.oval.size == q + 1
        and (od.tangent_count[od.oval] == 1).all()
        and np.isin(od.tangent_count[~od.on_oval], (0, 2)).all()
        and od.interior_points.size == q * (q - 1) // 2
        and od.exterior_points.size == q * (q + 1) // 2
        and od.tangent_lines.size == q + 1
        and od.secant_lines.size == q * (q + 1) // 2
        and od.skew_lines.size == q * (q - 1) // 2
    )
    if not ok:
        raise RuntimeError("conic classification failed its count checks")


OVAL_VARIANTS = ("interior_skew", "exterior_skewtangent")


def construct_oval(
    pl: Plane, od: OvalData | None = None, variant: str = "interior_skew"
) -> Partition:
    """Class A from the conic geometry: q odd.

    ``interior_skew`` takes interior points with skew lines, inducing a
    (q+1)/2-regular graph on A.  ``exterior_skewtangent`` takes exterior
    points with skew and tangent lines.
    """
    if variant not in OVAL_VARIANTS:
        raise ValueError(f"unknown oval variant {variant!r}; pick from {OVAL_VARIANTS}")
    od = od or classify_conic(pl)
    if variant == "interior_skew":
        pts, lns = od.interior_points, od.skew_lines
    else:
        pts = od.exterior_points
        lns = np.concatenate([od.skew_lines, od.tangent_lines])
    return _partition(pl, pts, lns, "oval", {"q": pl.q, "variant": variant})


# -- maximal arcs and the even-order construction -------------------------------


@dataclass(eq=False)
class ArcData:
    """A maximal arc: every line meets it in 0 or ``degree`` points."""

    arc: np.ndarray
    degree: int
    secant_profile: np.ndarray  # per line: intersection size with the arc


def construct_denniston(pl: Plane) -> ArcData:
    """Degree-q/2 maximal arc in PG(2,q), q = 2^h with h > 1.

    Points (x:y:1) where x^2 + lambda*x*y + y^2 lands in the trace kernel,
    lambda the least unit making the form anisotropic.
    """
    f = pl.field
    q = pl.q
    if f.p != 2 or f.h < 2:
        raise ValueError(f"Denniston arc requires q = 2^h with h > 1, got q={q}")
    add, mul, tr = f.add_table, f.mul_table, f.trace_table
    lam = next(x for x in range(1, q) if tr[f.inv_table[x]] == 1)
    x, y = (a.ravel() for a in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
    val = add[add[mul[x, x], mul[mul[lam, x], y]], mul[y, y]]
    keep = tr[val] == 0
    arc = np.sort(pl.index(np.stack([x[keep], y[keep], np.ones_like(x[keep])], axis=1)))
    if not verify_maximal_arc(pl, arc, q // 2):
        raise RuntimeError("Denniston point set is not a maximal arc")
    return ArcData(arc=arc, degree=q // 2, secant_profile=pl.hits(arc))


def verify_maximal_arc(pl: Plane, arc_points, degree: int) -> bool:
    """Size is (degree-1)(q+1)+1 and every line meets the set in 0 or degree.

    ``arc_points`` is a set of point ids under ``vertex_ids``.
    """
    arc = vertex_ids(arc_points, pl.n, "arc point")
    if arc.size != (degree - 1) * (pl.q + 1) + 1:
        return False
    return bool(np.isin(pl.hits(arc), (0, degree)).all())


def construct_even(
    pl: Plane, arc: ArcData | None = None, secant_line: int | None = None
) -> Partition:
    """Strictly friendly partition for even q via a maximal arc: q = 2^h, h > 1.

    A gets the symmetric difference of the arc with a q/2-secant ell, plus
    every line that meets the arc and passes through a point of ell off the
    arc.  Every vertex ends with strictly more neighbors on its own side.
    ``secant_line`` follows the id rule of ``vertex_ids``.
    """
    arc = arc or construct_denniston(pl)
    q = pl.q
    half = q // 2
    if secant_line is None:
        secant_line = np.flatnonzero(arc.secant_profile == half)[0]
    secant_line = vertex_ids(secant_line, pl.n, "secant line").item()
    if arc.secant_profile[secant_line] != half:
        raise ValueError(
            f"line {secant_line} meets the arc in {int(arc.secant_profile[secant_line])} "
            f"points, need a {half}-secant"
        )
    ell = pl.pencils[secant_line]
    on_arc = np.zeros(pl.n, dtype=bool)
    on_arc[arc.arc] = True
    on_ell = np.zeros(pl.n, dtype=bool)
    on_ell[ell] = True
    # masks, not np.setxor1d and np.setdiff1d: their np.unique imports numpy.ma
    p1 = np.flatnonzero(on_arc ^ on_ell)
    l1 = distinct(pl.pencils[ell[~on_arc[ell]]])
    l1 = l1[arc.secant_profile[l1] > 0]
    return _partition(pl, p1, l1, "even", {"q": q, "secant_line": secant_line})
