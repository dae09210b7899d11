"""Accumulation measures dK(x) = x^2 * sum_k dF_k(x).

Construction from rows (optionally centered at per-component means), exact
CDF evaluation, and pre-weak / weak distances to candidate limit measures.
Continuous components contribute exact partial-mass callables; nothing here
is discretized.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat
from typing import Sequence

from ._lazy import np
from .arrays import (
    DISCRETE, GAUSSIAN, UNIFORM, ArraySpecError, ComponentDist, EntryError, FiniteDiscrete,
    GroupTable, RowSpec, columnar, component_from_json, component_key, component_to_json,
    json_number, refuse_unknown,
)
from .config import Value
from .jsontext import csv_text, json_text

#: accumulation-measure atom sites closer than this are merged into one
ATOM_MERGE = 1e-14


class DiscontinuityPointError(EntryError):
    """A grid point sits on (or too near) a discontinuity of the limit."""


class AccumMeasure:
    """Finite measure made of point masses plus x^2-weighted continuous pieces.

    atoms: (site, mass) pairs, sorted by site, sites merged within
        ATOM_MERGE, zero masses dropped.
    pieces: (weight, dist) pairs; each contributes weight * y^2 dF_dist(y).
    total_mass: the atoms' masses plus each piece's weight times its second
        moment.
    row_n / centered: provenance metadata when built from a row.

    The pieces are held both as pairs and as a GroupTable, the weights as
    its counts; each form is made from the other when first read, so a
    measure built from a row makes no component object unless its pieces
    are read. Measures are equal when these five fields are.
    """

    def __init__(self, atoms=(), pieces=(), row_n=None, centered=None):
        merged = _merge_atoms(atoms)
        kept = []
        for w, d in pieces:
            w = float(w)
            if w < 0.0:
                raise ValueError(f"negative piece weight {w}")
            if isinstance(d, FiniteDiscrete):
                raise ValueError("discrete components enter as atoms, not pieces")
            if w > 0.0:
                kept.append((w, d))
        total_mass = math.fsum(m for _, m in merged) + math.fsum(
            w * d.second_moment() for w, d in kept
        )
        self.pieces = tuple(kept)
        self._fill(merged, len(kept), total_mass, row_n, centered)

    @classmethod
    def _of_table(cls, atoms, table: GroupTable, total_mass, row_n, centered) -> "AccumMeasure":
        """A measure from checked parts: atoms as _merge_atoms leaves them,
        and the pieces' table, distinct pieces of positive weight."""
        m = cls.__new__(cls)
        m.piece_table = table
        m._fill(atoms, table.fam.size, total_mass, row_n, centered)
        return m

    def _fill(self, atoms, n_pieces: int, total_mass, row_n, centered) -> None:
        self.atoms = atoms
        self.total_mass = total_mass
        self.row_n = row_n
        self.centered = centered
        # fixed at construction, as a row's is
        self._columnar = columnar(len(atoms) + n_pieces)

    @cached_property
    def pieces(self) -> tuple[tuple[float, ComponentDist], ...]:
        t = self.piece_table
        return tuple(zip(t.count.tolist(), t.components()))

    @cached_property
    def piece_table(self) -> GroupTable:
        return GroupTable.of_keys((component_key(d) for _, d in self.pieces),
                                  [w for w, _ in self.pieces])

    @cached_property
    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms' sites and masses as two float arrays."""
        return (np.array([s for s, _ in self.atoms], dtype=np.float64),
                np.array([m for _, m in self.atoms], dtype=np.float64))

    @cached_property
    def _atom_prefix(self) -> tuple[np.ndarray, np.ndarray]:
        # sites, and the masses' running sums from 0.0
        sites, masses = self.atom_arrays
        return sites, np.cumsum(np.concatenate(([0.0], masses)))

    def _fields(self) -> tuple:
        return (self.atoms, self.pieces, self.total_mass, self.row_n, self.centered)

    def __eq__(self, other):
        if not isinstance(other, AccumMeasure):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "AccumMeasure(atoms={!r}, pieces={!r}, row_n={!r}, centered={!r})".format(
            self.atoms, self.pieces, self.row_n, self.centered)

    def cdf(self, x: float) -> float:
        """Mass of (-inf, x]; right-continuous at atom sites.

        The masses add as the loop over the atoms and then the pieces adds
        them. A measure of COLUMNAR_MIN_GROUPS atoms and pieces or more
        takes the atoms up to x from a prefix sum made once, and the pieces'
        weight * partial_m2(x) from their table.
        """
        if not self._columnar:
            acc = 0.0
            for site, mass in self.atoms:
                if site <= x:
                    acc += mass
                else:
                    break
            for w, d in self.pieces:
                acc += w * d.partial_m2(x)
            return acc
        sites, prefix = self._atom_prefix
        acc = prefix[np.searchsorted(sites, x, side="right")]
        t = self.piece_table
        if t.fam.size:
            acc = np.cumsum(np.concatenate(([acc], t.count * t.partial_m2(x))))[-1]
        return float(acc)

    def scaled_mass(self, factor: float) -> "AccumMeasure":
        if factor < 0.0:
            raise ValueError("mass factor must be nonnegative")
        return AccumMeasure(
            atoms=tuple((s, m * factor) for s, m in self.atoms),
            pieces=tuple((w * factor, d) for w, d in self.pieces),
            row_n=self.row_n,
            centered=self.centered,
        )


def _merge_atoms(atoms) -> tuple[tuple[float, float], ...]:
    cleaned = []
    for site, mass in atoms:
        site, mass = float(site), float(mass)
        if not (math.isfinite(site) and math.isfinite(mass)):
            raise ValueError(f"non-finite atom ({site}, {mass})")
        if mass < 0.0:
            raise ValueError(f"negative atom mass {mass} at {site}")
        if mass > 0.0:
            cleaned.append((site, mass))
    cleaned.sort()
    merged: list[tuple[float, float]] = []
    for site, mass in cleaned:
        if merged and site - merged[-1][0] <= ATOM_MERGE:
            merged[-1] = (merged[-1][0], merged[-1][1] + mass)
        else:
            merged.append((site, mass))
    return tuple(merged)


def _row_atoms(sites: np.ndarray, masses: np.ndarray) -> tuple[tuple[float, float], ...]:
    """The atoms of positive masses at sites, both in group order, as
    _merge_atoms leaves them once the masses at equal sites are added in
    that order. Where no two sites lie within ATOM_MERGE and every value is
    finite, that is one sort; otherwise the sums and the merge are taken
    one atom at a time."""
    order = np.argsort(sites, kind="stable")
    s, m = sites[order], masses[order]
    if np.all(np.diff(s) > ATOM_MERGE) and np.isfinite(m).all():
        return tuple(zip(s.tolist(), m.tolist()))
    site_mass: dict[float, float] = {}
    for x, mass in zip(sites.tolist(), masses.tolist()):
        site_mass[x] = site_mass.get(x, 0.0) + mass
    return _merge_atoms(site_mass.items())


def build_accum(row: RowSpec, center: bool) -> AccumMeasure:
    """K_n of a row: atoms x^2*prob*count per discrete site, pieces per
    distinct continuous component weighted by its count; with center=True
    every group is first shifted by its mean. Equal sites and equal pieces
    add in group order."""
    if not row.columnar:
        site_mass: dict[float, float] = {}
        piece_weight: dict[ComponentDist, float] = {}
        for dist, count in row.components:
            d = dist.shifted(dist.mean()) if center else dist
            if isinstance(d, FiniteDiscrete):
                for x, p in d.atoms:
                    m = x * x * p * count
                    if m != 0.0:
                        site_mass[x] = site_mass.get(x, 0.0) + m
            else:
                piece_weight[d] = piece_weight.get(d, 0.0) + float(count)
        return AccumMeasure(
            atoms=tuple(site_mass.items()),
            pieces=tuple((w, d) for d, w in piece_weight.items()),
            row_n=row.n,
            centered=center,
        )
    t = row.table.centered if center else row.table
    mass = t.sites * t.sites * t.probs * t.count[t.index[DISCRETE]][:, None]
    keep = mass != 0.0
    atoms = _row_atoms(t.sites[keep], mass[keep])
    # the continuous groups' keys, Gaussian then uniform, visited in group order
    cont = np.concatenate((t.index[GAUSSIAN], t.index[UNIFORM]))
    keys = [*zip(repeat(GAUSSIAN), t.m.tolist(), t.v.tolist()),
            *zip(repeat(UNIFORM), t.lo.tolist(), t.hi.tolist())]
    counts = t.count[cont].tolist()
    weights: dict[tuple, float] = {}
    for i in np.argsort(cont).tolist():
        weights[keys[i]] = weights.get(keys[i], 0.0) + counts[i]
    pieces = GroupTable.of_keys(weights, weights.values())
    total = math.fsum(m for _, m in atoms) + math.fsum((pieces.count * pieces.moments[2]).tolist())
    return AccumMeasure._of_table(atoms, pieces, total, row.n, center)


class PreweakDistance(Value):
    def __init__(self, sup_deviation: float, mass_gap: float):
        vars(self).update(sup_deviation=sup_deviation, mass_gap=mass_gap)


def preweak_distance(
    measures: Sequence[AccumMeasure],
    limit: AccumMeasure,
    grid: Sequence[float],
) -> list[PreweakDistance]:
    """Per measure: sup over the grid of |K_n(x) - K(x)|, plus the total-mass
    gap (the extra requirement separating weak from pre-weak convergence).

    A grid point on an atom site of the limit, where K jumps, is rejected."""
    grid = tuple(float(x) for x in grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    sites = {s for s, _ in limit.atoms}
    for i, x in enumerate(grid):
        if x in sites:
            raise DiscontinuityPointError(
                f"grid point {x} is a discontinuity point of the limit", "grid", i)
    out = []
    for m in measures:
        dev = max(abs(m.cdf(x) - limit.cdf(x)) for x in grid)
        out.append(PreweakDistance(dev, abs(m.total_mass - limit.total_mass)))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def measure_to_json(m: AccumMeasure) -> dict:
    return {
        "atoms": [[s, mass] for s, mass in m.atoms],
        "pieces": [{"weight": w, "dist": component_to_json(d)} for w, d in m.pieces],
    }


def measure_from_json(obj, path: str = "") -> AccumMeasure:
    """Every malformed atom or piece is refused with its JSON pointer."""
    if not isinstance(obj, dict):
        raise ArraySpecError(f"{path or '/'}: expected an object")
    refuse_unknown(obj, ("atoms", "pieces"), path)
    atoms = obj.get("atoms", [])
    pieces = obj.get("pieces", [])
    if not isinstance(atoms, list) or not isinstance(pieces, list):
        raise ArraySpecError(f"{path}: atoms and pieces must be lists")
    parsed_atoms = []
    for i, a in enumerate(atoms):
        apath = f"{path}/atoms/{i}"
        if not isinstance(a, list) or len(a) != 2:
            raise ArraySpecError(f"{apath}: expected [site, mass]")
        site, mass = json_number(a[0], f"{apath}/0"), json_number(a[1], f"{apath}/1")
        if mass < 0.0:
            raise ArraySpecError(f"{apath}/1: negative atom mass {mass!r}")
        parsed_atoms.append((site, mass))
    parsed_pieces = []
    for i, p in enumerate(pieces):
        ppath = f"{path}/pieces/{i}"
        if not isinstance(p, dict) or "weight" not in p or "dist" not in p:
            raise ArraySpecError(f"{ppath}: expected an object with 'weight' and 'dist'")
        if len(p) != 2:
            refuse_unknown(p, ("weight", "dist"), ppath)
        weight = json_number(p["weight"], f"{ppath}/weight")
        if weight < 0.0:
            raise ArraySpecError(f"{ppath}/weight: negative piece weight {weight!r}")
        dist = component_from_json(p["dist"], f"{ppath}/dist")
        if isinstance(dist, FiniteDiscrete):
            raise ArraySpecError(f"{ppath}/dist: discrete components enter as atoms, not pieces")
        parsed_pieces.append((weight, dist))
    try:
        measure = AccumMeasure(atoms=tuple(parsed_atoms), pieces=tuple(parsed_pieces))
        if math.isfinite(measure.total_mass):
            return measure
    except OverflowError:  # of fsum, over finite masses
        pass
    raise ArraySpecError(f"{path or '/'}: the total mass overflows a double")


def export_measure_csv(m: AccumMeasure) -> tuple[str, str]:
    """(csv_text, json_header_text): atom table plus a total-mass header."""
    header = {"total_mass": m.total_mass, "n": m.row_n, "centered": m.centered}
    return csv_text(("site", "mass"), m.atoms), json_text(header) + "\n"
