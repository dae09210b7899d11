"""The columnar row path against the scalar component methods.

Rows of at least arrays.COLUMNAR_MIN_GROUPS groups are read through their
GroupTable. The references below are the per-group loops over the
ComponentDist methods; every statistic, Lindeberg sum, accumulation measure,
CDF value and Monte Carlo draw of the columnar path must equal them to the
last bit, on rows built from components and on rows parsed from JSON.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cfref
from arrayref import gaussian_draws, sample

from summand_lab import (
    AccumMeasure,
    ExplicitArray,
    FiniteDiscrete,
    Gaussian,
    NonCenteredRowError,
    RowSpec,
    Uniform,
    build_accum,
    gaussian_verdict,
    hypothesis_check,
    lindeberg_gaussian,
    lindeberg_poisson,
    row_statistics,
    sample_sums,
)
from summand_lab import arrays
from summand_lab.arrays import (
    GroupTable,
    component_from_json,
    component_key,
    component_to_json,
    generator_from_json,
)
from summand_lab.montecarlo import SUBSTREAM_CHUNK, _substream, sample_sums_chunked

# ---------------------------------------------------------------------------
# References: one loop over the groups, through the component methods
# ---------------------------------------------------------------------------


def ref_row_stats(row, eps_list):
    """(MV(n), B_n, a_n, max E X^2, [U(n, eps)])."""
    mv = b = a = max_m2 = 0.0
    u = [0.0] * len(eps_list)
    for dist, count in row.components:
        v = dist.var()
        mv += v * count
        b = max(b, v)
        a += dist.mean() * count
        max_m2 = max(max_m2, dist.second_moment())
        for j, eps in enumerate(eps_list):
            u[j] = max(u[j], dist.prob_abs_ge(eps))
    return mv, b, a, max_m2, u


def ref_lindeberg_gaussian(row, eps):
    return math.fsum(count * d.tail_m2(0.0, eps, inclusive=True) for d, count in row.components)


def ref_lindeberg_poisson(row, eps):
    total = 0.0
    for d, count in row.components:
        total += count * d.shifted(d.mean()).tail_m2(1.0, eps, inclusive=False)
    return total


def ref_build_accum(row, center):
    site_mass, piece_weight = {}, {}
    for dist, count in row.components:
        d = dist.shifted(dist.mean()) if center else dist
        if isinstance(d, FiniteDiscrete):
            for x, p in d.atoms:
                m = x * x * p * count
                if m != 0.0:
                    site_mass[x] = site_mass.get(x, 0.0) + m
        else:
            piece_weight[d] = piece_weight.get(d, 0.0) + float(count)
    return AccumMeasure(atoms=tuple(site_mass.items()),
                        pieces=tuple((w, d) for d, w in piece_weight.items()),
                        row_n=row.n, centered=center)


def ref_cdf(measure, x):
    acc = 0.0
    for site, mass in measure.atoms:
        if site <= x:
            acc += mass
        else:
            break
    for w, d in measure.pieces:
        acc += w * d.partial_m2(x)
    return acc


def ref_sample_sums(row, count, seed, stream_id):
    rng = _substream(seed, stream_id)
    total = np.zeros(count)
    gauss_m, gauss_v = [], []
    for comp, copies in row.components:
        if isinstance(comp, Gaussian):
            gauss_m.append(copies * comp.m)
            gauss_v.append(copies * comp.v)
        elif isinstance(comp, FiniteDiscrete) and copies > 1:
            sites = np.array([x for x, _ in comp.atoms])
            probs = np.array([p for _, p in comp.atoms])
            total += rng.multinomial(copies, probs / probs.sum(), size=count) @ sites
        else:
            draws = sample(comp, rng, count)
            for _ in range(copies - 1):
                draws += sample(comp, rng, count)
            total += draws
    if gauss_v:
        total += gaussian_draws(rng, math.fsum(gauss_m), math.fsum(gauss_v), count)
    return total


# ---------------------------------------------------------------------------
# Random rows
# ---------------------------------------------------------------------------


@contextmanager
def columnar_from(groups):
    """Rows and measures built inside read their tables from `groups` groups on."""
    old = arrays.COLUMNAR_MIN_GROUPS
    arrays.COLUMNAR_MIN_GROUPS = groups
    try:
        yield
    finally:
        arrays.COLUMNAR_MIN_GROUPS = old


def same(a, b) -> bool:
    """Equal to the last bit, the sign of a zero included."""
    return float(a).hex() == float(b).hex()


def same_atoms(a, b) -> bool:
    return len(a) == len(b) and all(same(x, y) and same(m, n) for (x, m), (y, n) in zip(a, b))


values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1.0 + 1e-15]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False),
)
weights = st.one_of(st.sampled_from([0.0, 0.1, 1.0, 2.5]), st.floats(0.01, 5.0))


@st.composite
def discretes(draw, sizes=(1, 2, 5, 40)):
    # 1, 2 and 5 atoms sum in _fsum_rows' two columns or by fsum; 40 is past
    # the sampler's comparison cut-off (_COMPARE_MAX_ATOMS)
    k = draw(st.sampled_from(sizes))
    sites = draw(st.lists(values, min_size=k, max_size=k))
    w = draw(st.lists(weights, min_size=k, max_size=k))
    if not any(w):
        w[0] = 1.0
    total = math.fsum(w)
    probs = [x / total for x in w[:-1]]
    probs.append(max(0.0, 1.0 - math.fsum(probs)))
    return FiniteDiscrete(tuple(zip(sites, probs)))


@st.composite
def uniforms(draw):
    if draw(st.booleans()):
        h = draw(st.floats(0.01, 3.0))
        return Uniform(-h, h)  # mean exactly 0.0: shifted keeps it as it is
    lo = draw(values)
    return Uniform(lo, lo + draw(st.floats(0.01, 3.0)))


gaussians = st.builds(Gaussian, values, st.floats(0.01, 4.0))
components = st.one_of(discretes(), gaussians, uniforms())


@st.composite
def rows(draw, pool_of=components, counts=st.integers(1, 4)):
    """A row of repeated and distinct components from pool_of, by default
    with counts up to 4."""
    pool = draw(st.lists(pool_of, min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), counts),
                          min_size=1, max_size=12))
    return RowSpec(sum(c for _, c in picks), [(pool[i], c) for i, c in picks])


def parsed(row):
    """The row as generator_from_json reads it: each component written out
    count times."""
    doc = {"generator": "explicit", "rows": [
        {"n": row.n,
         "components": [component_to_json(d) for d, c in row.components for _ in range(c)]}]}
    return generator_from_json(json.loads(json.dumps(doc))).row(row.n)


epsilons = st.sampled_from((0.05, 0.3, 0.5, 1.0, 2.5))
COLUMNAR = settings(max_examples=120, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@COLUMNAR
@given(rows(), st.lists(epsilons, min_size=1, max_size=3, unique=True))
# a_n of means -0.0 only: the loop's 0.0 + -0.0 is +0.0
@example(RowSpec(3, ((Gaussian(-0.0, 1.0), 2), (Gaussian(-0.0, 0.5), 1))), [0.5])
def test_statistics_and_lindeberg_sums_match_the_component_loops(row, eps_list):
    mv, b, a, max_m2, u = ref_row_stats(row, eps_list)
    for groups in (1, arrays.COLUMNAR_MIN_GROUPS):
        with columnar_from(groups):
            built = (RowSpec(row.n, row.components), parsed(row))
        for r in built:
            assert r.columnar == (len(row.components) >= groups)
            hyp = hypothesis_check([r], eps_list)
            stats = [row_statistics(r, eps) for eps in eps_list]
            gauss = [lindeberg_gaussian(r, eps) for eps in eps_list]
            pois = [lindeberg_poisson(r, eps) for eps in eps_list]
            assert all(same(x, y) for x, y in zip((hyp.mv[0], hyp.b[0], hyp.a[0]), (mv, b, a)))
            for j, eps in enumerate(eps_list):
                assert same(hyp.u_table[j][0], u[j])
                assert same(hyp.markov_bound[j][0], max_m2 / (eps * eps))
                assert all(same(x, y) for x, y in zip(stats[j], (u[j], mv, b, a)))
                assert same(gauss[j], ref_lindeberg_gaussian(row, eps))
                assert same(pois[j], ref_lindeberg_poisson(row, eps))


@COLUMNAR
@given(rows(), st.booleans(), st.lists(values, min_size=1, max_size=5))
def test_accumulation_measure_and_cdf_match_the_component_loops(row, center, xs):
    ref = ref_build_accum(row, center)
    with columnar_from(1):
        built = (RowSpec(row.n, row.components), parsed(row))
        measures = [build_accum(r, center) for r in built]
    for m in measures:
        assert m._columnar == (len(m.atoms) + len(m.pieces) >= 1)
        got = [m.cdf(x) for x in xs]
        assert same_atoms(m.atoms, ref.atoms)
        assert len(m.pieces) == len(ref.pieces)
        for (w, d), (rw, rd) in zip(m.pieces, ref.pieces):
            assert same(w, rw) and repr(d) == repr(rd)
        assert same(m.total_mass, ref.total_mass)
        assert (m.row_n, m.centered) == (row.n, center)
        assert m == ref
        assert all(same(g, ref_cdf(ref, x)) for g, x in zip(got, xs))


us = st.one_of(st.sampled_from([0.0, 1e-8, -1e-8, 20.0, -20.0]),
               st.floats(-20.0, 20.0, allow_nan=False))


@COLUMNAR
@given(rows(), st.lists(us, min_size=1, max_size=4))
def test_group_cf_matches_the_scalar_reference(row, u):
    got = row.table.cf(np.array(u))
    assert got.shape == (len(u), len(row.components))
    for j, t in enumerate(u):
        for i, (d, _) in enumerate(row.components):
            ref = cfref.component_cf(d, t)
            assert abs(got[j, i] - ref) <= 1e-13 * max(1.0, abs(ref))


#: rows for the sampler: discrete groups on both sides of its comparison
#: cut-off (_COMPARE_MAX_ATOMS = 32), and up to 16 copies of a group (300 in
#: wide_row, as each copy costs parsed() a component)
sampled_rows = rows(st.one_of(discretes((1, 2, 32, 33, 40)), gaussians, uniforms()),
                    st.one_of(st.integers(1, 4), st.just(16)))


def wide_row() -> RowSpec:
    """A row of more than COLUMNAR_MIN_GROUPS groups of the three families:
    discrete ones of 1, 2, 32, 33 and 40 atoms, and one group of each family
    in 300 copies."""
    rng = np.random.default_rng(11)
    pairs = []
    for i in range(arrays.COLUMNAR_MIN_GROUPS // 2):
        k = (1, 2, 32, 33, 40)[i % 5]
        w = rng.uniform(0.1, 1.0, k)
        pairs.append(FiniteDiscrete(tuple(zip(rng.uniform(-2.0, 2.0, k), w / w.sum()))))
        lo = rng.uniform(-2.0, 1.0)
        pairs.append(Uniform(lo, lo + rng.uniform(0.01, 2.0)))
        if i % 4 == 0:
            pairs.append(Gaussian(rng.normal(), rng.uniform(0.01, 2.0)))
    counts = [300 if i < 3 else (1, 1, 2)[i % 3] for i in range(len(pairs))]
    return RowSpec(sum(counts), list(zip(pairs, counts)))


def ref_sample_sums_chunked(row, count, seed, base_stream):
    return np.concatenate([
        ref_sample_sums(row, min(SUBSTREAM_CHUNK, count - start), seed, base_stream + j)
        for j, start in enumerate(range(0, count, SUBSTREAM_CHUNK))])


@COLUMNAR
@given(sampled_rows, st.integers(0, 2**32), st.integers(0, 3))
@example(wide_row(), 7, 2)
def test_sample_sums_draw_the_component_streams(row, seed, stream_id):
    want = ref_sample_sums(row, 64, seed, stream_id).tobytes()
    assert sample_sums(row, 64, seed, stream_id).tobytes() == want
    assert sample_sums(parsed(row), 64, seed, stream_id).tobytes() == want


@pytest.mark.parametrize("count", [1, SUBSTREAM_CHUNK, SUBSTREAM_CHUNK + 1])
def test_chunked_sums_draw_the_component_streams(count):
    row = wide_row()
    assert len(row.components) >= arrays.COLUMNAR_MIN_GROUPS
    want = ref_sample_sums_chunked(row, count, 3, 5 << 32).tobytes()
    assert sample_sums_chunked(row, count, 3, 5 << 32).tobytes() == want
    assert sample_sums_chunked(parsed(row), count, 3, 5 << 32).tobytes() == want


@COLUMNAR
@given(st.lists(components, min_size=1, max_size=20))
def test_parsed_rows_group_as_component_pairs_do(flat):
    doc = {"generator": "explicit", "rows": [
        {"n": 3, "components": [component_to_json(d) for d in flat]}]}
    doc = json.loads(json.dumps(doc))
    row = generator_from_json(doc).row(3)
    old = RowSpec(3, ((component_from_json(c), 1) for c in doc["rows"][0]["components"]))
    assert row.components == old.components
    # the first appearance of equal components is the one kept, -0.0 or 0.0
    assert repr(row.components) == repr(old.components)
    assert row.k() == old.k() == len(flat)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_group_table_methods_match_the_component_methods():
    # thousands of groups per family, so a last-bit slip that one value in a
    # thousand shows (a square by multiplication, numpy's exp) is seen
    rng = np.random.default_rng(2)
    comps = []
    for _ in range(6000):
        p = rng.uniform(0.05, 0.95)
        comps.append(FiniteDiscrete(((rng.uniform(-2, 2), 1.0 - p), (rng.uniform(-2, 2), p))))
        comps.append(Gaussian(rng.normal(0.0, 0.5), rng.uniform(0.01, 2.0)))
        lo = rng.uniform(-2, 1)
        comps.append(Uniform(lo, lo + rng.uniform(0.01, 2.0)))
    for _ in range(300):
        w = rng.uniform(0.1, 1.0, 5)
        comps.append(FiniteDiscrete(tuple(zip(rng.uniform(-2, 2, 5), w / w.sum()))))
    order = rng.permutation(len(comps))
    comps = [comps[i] for i in order]
    t = GroupTable.of_keys([component_key(d) for d in comps], [1] * len(comps))
    centered = [d.shifted(d.mean()) for d in comps]

    mean, var, m2 = t.moments
    assert _bits(mean) == _bits([d.mean() for d in comps])
    assert _bits(var) == _bits([d.var() for d in comps])
    assert _bits(m2) == _bits([d.second_moment() for d in comps])
    for eps in (0.1, 0.7):
        assert _bits(t.prob_abs_ge(eps)) == _bits([d.prob_abs_ge(eps) for d in comps])
        for inclusive in (True, False):
            assert _bits(t.tail_m2(0.0, eps, inclusive)) == _bits(
                [d.tail_m2(0.0, eps, inclusive) for d in comps])
        assert _bits(t.centered.tail_m2(1.0, eps)) == _bits([d.tail_m2(1.0, eps) for d in centered])
    for x in (-0.8, 0.3, 1.7):
        assert _bits(t.partial_m2(x)) == _bits([d.partial_m2(x) for d in comps])
    assert t.centered.components() == centered
    assert t.components() == comps


@pytest.mark.parametrize("terms", [
    [[0.1, 0.2]], [[-0.0, -0.0]], [[-0.0, 0.0]], [[1e16, 1.0]], [[-1.0, 1.0]],
    [[0.1, 0.2, 0.3, 1e-17, -0.6]], [[-0.0, -0.0, -0.0]],
])
def test_fsum_rows_is_fsum(terms):
    t = np.array(terms)
    wide = np.flatnonzero([len(r) > 2 for r in terms])
    assert _bits(arrays._fsum_rows(t, wide)) == _bits([math.fsum(r) for r in terms])


def test_measure_of_many_pieces_reads_its_table():
    pieces = tuple((1.0 + i, Gaussian(0.1 * i, 1.0)) for i in range(40))
    m = AccumMeasure(atoms=((0.5, 0.25),), pieces=pieces)
    assert arrays.columnar(len(m.atoms) + len(m.pieces))
    for x in (-1.0, 0.0, 0.5, 2.0):
        assert same(m.cdf(x), ref_cdf(m, x))


def test_off_centre_component_is_named_on_either_path():
    comps = [(Gaussian(0.0, 1.0), 1), (Uniform(-1.0, 1.0), 2), (Gaussian(0.25, 1.0), 1)]
    messages = []
    for groups in (1, arrays.COLUMNAR_MIN_GROUPS):
        with columnar_from(groups):
            row = RowSpec(4, comps)
        assert row.columnar == (groups == 1)
        with pytest.raises(NonCenteredRowError) as exc:
            gaussian_verdict(ExplicitArray((row,)), [4], [0.5])
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("row n=4 component 2 (1 x Gaussian(m=0.25, v=1.0)) has mean 0.25")
