"""Accumulation measures dK(x) = x^2 * sum_k dF_k(x).

Construction from rows (optionally centered at per-component means), exact
CDF evaluation, and pre-weak / weak distances to candidate limit measures.
Continuous components contribute exact partial-mass callables; nothing here
is discretized.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

from .arrays import (
    ArraySpecError, ComponentDist, FiniteDiscrete, RowSpec, component_from_json, component_to_json,
    json_number,
)
from .jsontext import json_text

#: accumulation-measure atom sites closer than this are merged into one
ATOM_MERGE = 1e-14


class DiscontinuityPointError(ValueError):
    """A grid point sits on (or too near) a discontinuity of the limit."""


@dataclass(frozen=True)
class AccumMeasure:
    """Finite measure made of point masses plus x^2-weighted continuous pieces.

    atoms: (site, mass) pairs, sorted by site, sites merged within
        ATOM_MERGE, zero masses dropped.
    pieces: (weight, dist) pairs; each contributes weight * y^2 dF_dist(y).
    total_mass: validated against the parts when supplied, computed otherwise.
    row_n / centered: provenance metadata when built from a row.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[tuple[float, ComponentDist], ...] = ()
    total_mass: float | None = None
    row_n: int | None = None
    centered: bool | None = None

    def __post_init__(self):
        merged = _merge_atoms(self.atoms)
        pieces = []
        for w, d in self.pieces:
            w = float(w)
            if w < 0.0:
                raise ValueError(f"negative piece weight {w}")
            if isinstance(d, FiniteDiscrete):
                raise ValueError("discrete components enter as atoms, not pieces")
            if w > 0.0:
                pieces.append((w, d))
        expected = math.fsum(m for _, m in merged) + math.fsum(
            w * d.second_moment() for w, d in pieces
        )
        object.__setattr__(self, "atoms", merged)
        object.__setattr__(self, "pieces", tuple(pieces))
        if self.total_mass is None:
            object.__setattr__(self, "total_mass", expected)
        elif abs(self.total_mass - expected) > 1e-10 * max(1.0, abs(expected)):
            raise ValueError(
                f"total_mass {self.total_mass} inconsistent with parts {expected}"
            )

    def cdf(self, x: float) -> float:
        """Mass of (-inf, x]; right-continuous at atom sites."""
        acc = 0.0
        for site, mass in self.atoms:
            if site <= x:
                acc += mass
            else:
                break
        for w, d in self.pieces:
            acc += w * d.partial_m2(x)
        return acc

    def mass_at(self, x: float) -> float:
        """Atom mass carried by the single point {x}."""
        return math.fsum(m for s, m in self.atoms if abs(s - x) <= ATOM_MERGE)

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


def build_accum(row: RowSpec, center: bool) -> AccumMeasure:
    """K_n of a row: atoms x^2*prob per discrete site, pieces per continuous
    component; with center=True every component is first shifted by its mean."""
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


@dataclass(frozen=True)
class PreweakDistance:
    sup_deviation: float
    mass_gap: float


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
    for x in grid:
        if x in sites:
            raise DiscontinuityPointError(f"grid point {x} is a discontinuity point of the limit")
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
        weight = json_number(p["weight"], f"{ppath}/weight")
        if weight < 0.0:
            raise ArraySpecError(f"{ppath}/weight: negative piece weight {weight!r}")
        dist = component_from_json(p["dist"], f"{ppath}/dist")
        if isinstance(dist, FiniteDiscrete):
            raise ArraySpecError(f"{ppath}/dist: discrete components enter as atoms, not pieces")
        parsed_pieces.append((weight, dist))
    return AccumMeasure(atoms=tuple(parsed_atoms), pieces=tuple(parsed_pieces))


def export_measure_csv(m: AccumMeasure) -> tuple[str, str]:
    """(csv_text, json_header_text): atom table plus a total-mass header."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["site", "mass"])
    for site, mass in m.atoms:
        w.writerow([repr(site), repr(mass)])
    header = {"total_mass": m.total_mass, "n": m.row_n, "centered": m.centered}
    return buf.getvalue(), json_text(header) + "\n"
