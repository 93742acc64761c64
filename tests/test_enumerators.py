"""The enumerators of vectors, projective points, rank-one points, RREF
subspaces and independent rows, each compared byte for byte with the
straightforward loop it replaced, which is kept here as the oracle."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from spreadrank import algebra, atlas, codec, gf, search

# (q, largest k or n) with every smaller size included; the sizes stay small
SMALL = [(2, 4), (3, 4), (5, 4)]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_grid(q, k):
    return np.array(list(product(range(q), repeat=k)), dtype=np.int64)


def oracle_first_row_bases(n, k, q, allowed):
    """RREF bases (w_1..w_k) of k-dim subspaces of F_q^n with rows in allowed,
    built row by row, each row's free entries in product order."""
    cols = list(range(n))
    for pivots in combinations(cols, k):
        nonpiv = [c for c in cols if c not in pivots]
        free_slots = [[c for c in nonpiv if c > pivots[r]] for r in range(k)]

        def build(r, rows):
            if r == k:
                yield list(rows)
                return
            base = np.zeros(n, dtype=np.uint8)
            base[pivots[r]] = 1
            for fill in product(range(q), repeat=len(free_slots[r])):
                w = base.copy()
                for c, v in zip(free_slots[r], fill):
                    w[c] = v
                if w.tobytes() in allowed:
                    rows.append(w)
                    yield from build(r + 1, rows)
                    rows.pop()

        yield from build(0, [])


def oracle_subspace_generators(length, k, q):
    """All k-dim subspaces of F_q^length, one RREF generator matrix each."""
    for pivots in combinations(range(length), k):
        free_positions = []
        for r in range(k):
            for c in range(pivots[r] + 1, length):
                if c not in pivots:
                    free_positions.append((r, c))
        base = np.zeros((k, length), dtype=np.int64)
        for r, p in enumerate(pivots):
            base[r, p] = 1
        for fill in product(range(q), repeat=len(free_positions)):
            G = base.copy()
            for (r, c), v in zip(free_positions, fill):
                G[r, c] = v
            yield G


def oracle_projective_vectors(q, n):
    out = []
    for coords in product(range(q), repeat=n):
        v = np.array(coords, dtype=np.uint8)
        nz = np.nonzero(v)[0]
        if nz.size and v[nz[0]] == 1:
            out.append(v)
    return out


def oracle_rank_one_elements(q, n):
    """u w^T over projective u and every nonzero w, sorted by encoding."""
    mats = []
    for u in oracle_projective_vectors(q, n):
        for wc in product(range(q), repeat=n):
            w = np.array(wc, dtype=np.uint8)
            if w.any():
                mats.append(np.outer(u, w).astype(np.uint8) % q)
    mats.sort(key=lambda m: codec.encode(m, q))
    return mats


def oracle_projective_rank_ones(q, d2, d3):
    us = oracle_projective_vectors(q, d2)
    ws = oracle_projective_vectors(q, d3)
    return [np.outer(u, w).reshape(-1).astype(np.int64) for u in us for w in ws]


def oracle_independent_rows(rows, q, limit=None):
    """Greedy: keep each row that raises the rank of the rows kept so far."""
    chosen = []
    span = np.zeros((0, rows.shape[1]), dtype=np.int64)
    for j, row in enumerate(rows):
        cand = np.concatenate([span, row[None]], axis=0)
        if gf.rank(cand, q) > span.shape[0]:
            chosen.append(j)
            span = cand
        if len(chosen) == limit:
            break
    return chosen


def oracle_charpoly_digits(q, n):
    size = q ** (n * n)
    digits = np.zeros((size, n * n), dtype=np.int64)
    tmp = np.arange(size, dtype=np.int64)
    for pos in range(n * n):
        digits[:, pos] = tmp % q
        tmp //= q
    return digits


def sizes():
    for q, top in SMALL:
        for k in range(0, top + 1):
            yield q, k


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q, k", list(sizes()))
def test_coefficient_grid_matches_product(q, k):
    grid = gf.coefficient_grid(q, k)
    want = oracle_grid(q, k)
    assert grid.dtype == want.dtype and grid.shape == want.shape == (q**k, k)
    assert np.ascontiguousarray(grid).tobytes() == want.tobytes()


@pytest.mark.parametrize("q, n", [(q, n) for q, n in sizes() if n >= 1])
def test_projective_vectors_match_scan(q, n):
    got = algebra.projective_vectors(q, n)
    want = np.stack(oracle_projective_vectors(q, n))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                  (3, 3), (5, 1), (5, 2), (5, 3)])
def test_rank_one_elements_match_double_loop(q, n):
    got = algebra.rank_one_elements(q, n)
    want = oracle_rank_one_elements(q, n)
    assert len(got) == len(want) == (q**n - 1) ** 2 // (q - 1)
    assert all(g.dtype == w.dtype == np.uint8 for g, w in zip(got, want))
    assert np.stack(got).tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("d2, d3", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_rank_one_rows_match_outer_products(q, d2, d3):
    got = algebra.rank_one_rows(q, d2, d3)
    # the old rows were unreduced products; every consumer reduced them
    want = np.stack(oracle_projective_rank_ones(q, d2, d3)) % q
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q, length", list(sizes()))
def test_rref_subspaces_match_generator_loop(q, length):
    for k in range(0, length + 1):
        got = list(gf.rref_subspaces(length, k, q))
        want = list(oracle_subspace_generators(length, k, q))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape == (k, length)
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("q, n", [(q, n) for q, n in sizes() if n >= 1])
def test_filtered_rref_subspaces_match_first_row_enumerator(q, n):
    """iter_spread_sets keeps the RREF subspaces whose rows are all allowed;
    that gives the recursive enumerator's bases in its order."""
    vectors = [v.astype(np.uint8) for v in oracle_grid(q, n)[1:]]
    rng = np.random.default_rng(q * 10 + n)
    allowed_sets = [{v.tobytes() for v in vectors}]
    for _ in range(3):
        keep = rng.random(len(vectors)) < 0.6
        allowed_sets.append({v.tobytes() for v, k in zip(vectors, keep) if k})
    for allowed in allowed_sets:
        for k in range(0, n + 1):
            want = [np.stack(rows).tobytes() if rows else b""
                    for rows in oracle_first_row_bases(n, k, q, allowed)]
            got = [G.astype(np.uint8).tobytes() for G in gf.rref_subspaces(n, k, q)
                   if all(w.astype(np.uint8).tobytes() in allowed for w in G)]
            assert got == want


def _spaces_for_spread_search():
    f16 = atlas.atlas_get("F16").spread_set().space
    grown = f16
    for e in np.eye(4, dtype=np.uint8):
        grown = grown.extend(np.diag(e))
    yield pytest.param(f16, id="F16")
    yield pytest.param(grown, id="F16+diag")
    yield pytest.param(atlas.atlas_get("F81").spread_set().space, id="F81")
    yield pytest.param(algebra.MatSpace.from_rows(2, 3, np.eye(9, dtype=np.uint8)), id="M3(F2)")


@pytest.mark.parametrize("space", list(_spaces_for_spread_search()))
def test_spread_sets_come_in_first_row_oracle_order(space):
    """Each nonsingular subspace has one first-row subspace; iter_spread_sets
    must reach them in the order of the recursive first-row enumerator."""
    q, n = space.q, space.n
    everything = {v.astype(np.uint8).tobytes() for v in oracle_grid(q, n)[1:]}
    for k in range(1, n + 1):
        order = {np.stack(rows).tobytes(): i
                 for i, rows in enumerate(oracle_first_row_bases(n, k, q, everything))}
        seen = []
        for S in search.iter_spread_sets(space, k):
            first_rows = S.basis.reshape(-1, n, n)[:, 0]
            seen.append(order[gf.rref(first_rows, q)[0].tobytes()])
        assert seen == sorted(seen)
        if k == 1:
            assert seen  # every invertible element spans one


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rref_pivots_are_the_greedy_independent_rows(q):
    rng = np.random.default_rng(q)
    for _ in range(40):
        nrows, ncols = rng.integers(0, 9), rng.integers(1, 7)
        rows = rng.integers(0, q, (nrows, ncols))
        rows[rng.random(nrows) < 0.3] = 0
        if nrows > 2:
            rows[-1] = (rows[0] + 2 * rows[1]) % q
        _, piv = gf.rref(rows.T, q)
        assert list(piv) == oracle_independent_rows(rows, q)
        # code_equivalent's information set: pivots of the RREF, on which it
        # is the identity
        basis, piv = gf.rref(rows, q)
        assert list(piv) == oracle_independent_rows(basis.T.astype(np.int64), q)


def _rank_one_spaces():
    for name in ("F16", "S1", "F81"):
        entry = atlas.atlas_get(name)
        mats = entry.decomposition_matrices()
        span = algebra.MatSpace.from_matrices(entry.q, entry.n, mats)
        yield pytest.param(span, id=name + "-span")
        yield pytest.param(entry.spread_set().space, id=name)
    yield pytest.param(algebra.MatSpace.from_rows(3, 2, np.eye(4, dtype=np.uint8)), id="M2(F3)")
    yield pytest.param(algebra.MatSpace.from_encodings(2, 2, [9, 14]), id="F4-no-points")


@pytest.mark.parametrize("space", list(_rank_one_spaces()))
def test_rank_one_basis_matches_greedy_loop(space):
    pts = algebra.points_for(space.q, space.n)
    inside = pts.flat[space.contains_batch(pts.flat)]
    want = inside[oracle_independent_rows(inside, space.q)]
    got = search._rank_one_basis(space, pts)
    assert got.tobytes() == want.tobytes()
    spanned = len(want) == space.dim
    assert search._rank_one_spanned(space, pts) == spanned
    if spanned:
        limited = inside[oracle_independent_rows(inside, space.q, limit=space.dim)]
        want_codes = [codec.encode(r.reshape(space.n, space.n), space.q) for r in limited]
        assert search._witness_rank_ones(space, pts) == want_codes


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                  (5, 1), (5, 2)])
def test_charpoly_digits_match_digit_loop(q, n):
    reversed_grid = gf.coefficient_grid(q, n * n)[:, ::-1]
    assert np.ascontiguousarray(reversed_grid).tobytes() == oracle_charpoly_digits(q, n).tobytes()


def fill_code_table(q, n, step):
    """The (q, n) code table, empty at first, after the table's readers
    have been asked for every n x n matrix in batches of step, each batch
    half new codes and half codes of the batch before, repeats included;
    the readers take turns, so every one of them fills entries."""
    gf._code_table.cache_clear()
    mats = oracle_charpoly_digits(q, n).reshape(-1, n, n)
    readers = [gf.charpoly_ids, gf.rank_batch, gf.inverse_batch, gf.min_degrees]
    for turn, lo in enumerate(range(0, len(mats), step)):
        batch = np.concatenate([mats[lo:lo + step], mats[max(0, lo - step // 2):lo + step // 2]])
        readers[turn % len(readers)](batch, q)
    return gf._code_table(q, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_charpoly_code_table_matches_digit_loop(n):
    # the table is filled lazily, batch by batch; the oracle runs the kernel
    # on all at once
    digits = oracle_charpoly_digits(2, n)
    cps = gf.charpoly_batch(digits.reshape(-1, n, n), 2)
    ids = codec.encode_rows(cps[:, 1:], 2)
    got = fill_code_table(2, n, max(1, 2 ** (n * n) // 16))
    assert (got["rank"] >= 0).all()
    assert got["charpoly"].astype(np.int64).tobytes() == ids.tobytes()
    gf._code_table.cache_clear()


def test_charpoly_code_table_build_peak_memory():
    # one charpoly_batch over all 65,536 matrices peaked at about 27 MB; the
    # digit grid alone is 8.4 MB.  Filling every field of the table in
    # batches of 4,096 stays below 16 MB
    tracemalloc.start()
    try:
        table = fill_code_table(2, 4, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gf._code_table.cache_clear()
    assert peak < 16e6
    assert set(np.unique(table["rank"])) == set(range(5))
    assert set(np.unique(table["min_degree"])) == set(range(1, 5))
    assert set(np.unique(table["charpoly"])) == set(range(16))
    invertible = table["rank"] == 4
    assert invertible.sum() == 20160  # |GL_4(F_2)|
    assert (table["inverse"][invertible] > 0).all() and not table["inverse"][~invertible].any()
