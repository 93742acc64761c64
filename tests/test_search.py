import functools
import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spreadrank import algebra, atlas, codec, codes, equivalence, gf, search
from spreadrank.errors import BadParameters

# ---------------------------------------------------------------------------
# Rank-one enumeration and spread-set search
# ---------------------------------------------------------------------------


def test_rank_one_elements_reexported():
    assert len(search.rank_one_elements(2, 2)) == 9


def test_find_spread_sets_full_matrix_space():
    full = algebra.MatSpace.from_rows(2, 2, np.eye(4, dtype=np.uint8))
    classes = search.find_spread_sets(full, 2)
    assert len(classes) == 1
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    assert equivalence.are_equivalent(classes[0], f4.space) is not None


def test_find_spread_sets_diagonal_empty():
    diag = algebra.MatSpace.from_rows(
        2, 4, np.stack([np.diag(e).reshape(-1) for e in np.eye(4, dtype=np.uint8)])
    )
    assert search.find_spread_sets(diag, 2) == []
    assert not search.contains_partial_spread(diag, 2)


def test_find_spread_sets_in_nine_matrix_span():
    e = atlas.atlas_get("F16")
    span = algebra.MatSpace.from_encodings(2, 4, e.decomposition)
    found = search.find_spread_sets(span, 4)
    assert any(
        equivalence.are_equivalent(rep, e.space()) is not None for rep in found
    )


def test_contains_partial_spread_trivial():
    f16 = atlas.atlas_get("F16").space()
    assert search.contains_partial_spread(f16, 1)
    assert search.contains_partial_spread(f16, 4)


@pytest.mark.parametrize("k", [0, -1])
def test_partial_spread_dimension_below_one_is_rejected(k):
    f16 = atlas.atlas_get("F16").space()
    with pytest.raises(BadParameters, match="at least 1"):
        search.contains_partial_spread(f16, k)
    with pytest.raises(BadParameters, match="at least 1"):
        search.find_spread_sets(f16, k)


def test_first_row_normalisation_completeness():
    # a 1-dim nonsingular space whose first row is not e_1 must still be found
    M = np.array([[0, 1], [1, 1]], dtype=np.uint8)  # first row e_2
    space = algebra.MatSpace.from_matrices(2, 2, [M])
    assert search.contains_partial_spread(space, 1)


# ---------------------------------------------------------------------------
# Decomposition verification
# ---------------------------------------------------------------------------


def test_verify_decomposition_atlas_entries():
    for name in atlas.atlas_list():
        e = atlas.atlas_get(name)
        ok, reason = search.verify_decomposition(
            e.spread_set(), e.decomposition_matrices()
        )
        assert ok, (name, reason)


def test_verify_decomposition_failure_modes():
    e = atlas.atlas_get("F16")
    mats = e.decomposition_matrices()
    ok, reason = search.verify_decomposition(e.spread_set(), mats[:-1])
    assert not ok and "span" in reason
    bad = mats[:-1] + [np.eye(4, dtype=np.uint8)]
    ok, reason = search.verify_decomposition(e.spread_set(), bad)
    assert not ok and "rank" in reason


# ---------------------------------------------------------------------------
# Tensor rank, small cases
# ---------------------------------------------------------------------------


def test_tensor_rank_f4():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    rank, witness, _ = search.tensor_rank(f4)
    assert rank == 3
    mats = [codec.decode(v, 2, 2) for v in witness]
    ok, _ = search.verify_decomposition(f4, mats)
    assert ok
    assert codes.brute_force_tensor_rank(f4.hypercube(), 2, 4) == rank


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_tensor_rank_of_a_one_dimensional_spread_set(q):
    f = algebra.field_construct(q, 1)
    rank, witness, _ = search.tensor_rank(f)
    assert (rank, witness) == (1, [1])
    assert equivalence.automorphism_group(f).order == (q - 1) ** 2


def test_tensor_rank_f8():
    f8 = algebra.field_construct(2, 3)
    rank, witness, _ = search.tensor_rank(f8)
    assert rank == 6
    ok, _ = search.verify_decomposition(f8, [codec.decode(v, 2, 3) for v in witness])
    assert ok


def test_tensor_rank_equivalence_invariant():
    rng = np.random.default_rng(0)
    f8 = algebra.field_construct(2, 3)
    from spreadrank import gf

    while True:
        A = rng.integers(0, 2, (3, 3)).astype(np.uint8)
        B = rng.integers(0, 2, (3, 3)).astype(np.uint8)
        if gf.mat_det(A, 2) and gf.mat_det(B, 2):
            break
    moved = equivalence.act(equivalence.Isotopism(A, B, 2), f8.space)
    rank, _, _ = search.tensor_rank(moved)
    assert rank == 6


def test_tensor_rank_knuth_invariant():
    f8 = algebra.field_construct(2, 3)
    for member in algebra.knuth_orbit(f8):
        rank, _, _ = search.tensor_rank(member)
        assert rank == 6
    transposed = algebra.SpreadSet(2, [m.T for m in f8.matrices])
    rank, _, _ = search.tensor_rank(transposed)
    assert rank == 6


def test_disprove_rank_at_the_input_dimension():
    # R equals the input's dimension, so no level runs: the input itself
    # must be tested for being spanned by rank ones
    spanned = algebra.MatSpace.from_encodings(2, 2, [2, 12])
    rep = search.disprove_rank(spanned, 2)
    assert rep.outcome == "witness" and rep.levels == []
    ok, _ = search.verify_decomposition(spanned, [codec.decode(v, 2, 2) for v in rep.witness])
    assert ok and len(rep.witness) == 2
    rank, _, _ = search.tensor_rank(spanned)
    assert rank == codes.brute_force_tensor_rank(np.stack(spanned.matrices()), 2, 8) == 2
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    rep = search.disprove_rank(f4, 2)
    assert rep.outcome == "exhausted" and rep.witness is None


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sp: search.disprove_rank(sp, 4), id="disprove"),
        pytest.param(search.tensor_rank, id="tensor-rank"),
    ],
)
@pytest.mark.parametrize("encodings", [[1, 6, 8], [1]], ids=["dim3", "dim1"])
def test_rank_searches_reject_inputs_of_dimension_other_than_n(monkeypatch, call, encodings):
    # levels and rank bounds start at n: M_2(F_2) ⊃ <1, 6, 8> spans by rank
    # ones at dim 4 yet was reported exhausted, and <1> has rank 1, not 2
    def never(space):
        raise AssertionError("automorphism_group ran before the check")

    monkeypatch.setattr(search, "automorphism_group", never)
    space = algebra.MatSpace.from_encodings(2, 2, encodings)
    with pytest.raises(BadParameters, match="dimension"):
        call(space)


def test_disprove_rank_rejects_targets_above_n_squared(monkeypatch):
    # M_n(F_q) itself is spanned by rank ones, so R > n^2 has no exhaustion:
    # F4 at R = 5 was reported exhausted although its rank is 3
    def never(space):
        raise AssertionError("automorphism_group ran before the check")

    monkeypatch.setattr(search, "automorphism_group", never)
    with pytest.raises(BadParameters, match="n\\^2"):
        search.disprove_rank(algebra.field_construct(2, 2), 5)


@pytest.mark.parametrize("q, n, R", [(2, 1, 0), (2, 3, 2), (3, 2, 1)])
def test_spread_sets_by_rank_rejects_targets_below_n(q, n, R):
    # a spread set has rank at least n: R = 0 at n = 1 returned one class
    # although the field F_2 has tensor rank 1
    with pytest.raises(BadParameters, match="between n"):
        search.spread_sets_by_rank(q, n, R)


def test_disprove_rank_rejects_targets_below_n():
    # the same range error as spread_sets_by_rank, not the "cap exceeded" one
    with pytest.raises(BadParameters, match="between n"):
        search.disprove_rank(algebra.field_construct(2, 4), 3)


def test_spread_sets_by_rank_flags_an_unlicensed_default_prune():
    # a level space of dim d in a rank-one spanned R-space meets the spread
    # set in dimension d + n - R or more; the default schedule equals that
    # only at R = 2n
    report, _ = search.spread_sets_by_rank(2, 3, 7)
    assert [f.split(":")[0] for f in report.flags] == ["prune-unlicensed"]
    assert search.spread_sets_by_rank(2, 3, 6)[0].flags == []
    report, _ = search.spread_sets_by_rank(2, 3, 7, prune={5: 1, 6: 2, 7: 3})
    assert report.flags == []


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(0, q - 1), min_size=8, max_size=8)
        )
    )
)
def test_tensor_rank_agrees_with_brute_force_on_random_2x2_spaces(case):
    q, entries = case
    space = algebra.MatSpace.from_rows(q, 2, np.reshape(entries, (2, 4)))
    assume(space.dim == 2)  # singular spaces included
    rank, witness, _ = search.tensor_rank(space)
    assert rank == codes.brute_force_tensor_rank(np.stack(space.matrices()), q, 8)
    ok, reason = search.verify_decomposition(space, [codec.decode(v, q, 2) for v in witness])
    assert ok, reason
    assert len(witness) == rank


def test_disprove_rank_witness_and_exhaustion():
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    rep = search.disprove_rank(f4, 3)
    assert rep.outcome == "witness"
    f8 = algebra.field_construct(2, 3)
    rep = search.disprove_rank(f8, 5)
    assert rep.outcome == "exhausted"
    assert rep.level(6) is None


def test_disprove_rank_finds_rank8_witnesses():
    # the rank-8 families admit witnesses through the diagonal space
    for name in ("V", "II"):
        e = atlas.atlas_get(name)
        rep = search.disprove_rank(e.spread_set(), 8)
        assert rep.outcome == "witness"
        mats = [codec.decode(v, 3, 4) for v in rep.witness]
        ok, _ = search.verify_decomposition(e.spread_set(), mats)
        assert ok and len(rep.witness) == 8


# (field, R, diagonal probe on, outcome, levels, witness), frozen from the
# runs before every raw level kept the children whose rank-one score
# reaches a threshold.  Between them they cover reduce, filter, ordered and
# final levels; with the probe off, F4 R=4 runs its filter level, F8 R=6
# its filter level as level R - 1 and R=7 its ordered level up to a witness.
FROZEN_RUNS = [
    ("F4", 3, True, "witness", [], [8, 1, 15]),
    ("F4", 3, False, "witness", [{"dim": 3, "spaces": 3, "witnesses": 3}], [8, 1, 15]),
    ("F4", 4, True, "witness", [], [8, 4, 2, 1]),
    ("F4", 4, False, "witness",
     [{"dim": 3, "spaces": 3, "survivors": 3}, {"dim": 4, "spaces": 3, "witnesses": 3}],
     [8, 4, 2, 1]),
    ("F8", 5, True, "exhausted",
     [{"dim": 4, "classes": 1}, {"dim": 5, "spaces": 30, "witnesses": 0}], None),
    ("F8", 6, True, "witness", [], [256, 16, 432, 1, 195, 63]),
    ("F8", 6, False, "witness",
     [{"dim": 4, "classes": 1}, {"dim": 5, "spaces": 30, "survivors": 12},
      {"dim": 6, "spaces": 60, "witnesses": 9}],
     [256, 432, 2, 45, 195, 511]),
    ("F8", 7, True, "witness", [], [256, 128, 32, 16, 1, 365, 195]),
    ("F8", 7, False, "witness",
     [{"dim": 4, "classes": 1}, {"dim": 5, "spaces": 30}, {"dim": 6, "spaces": 450},
      {"dim": 7, "spaces": 28, "witnesses": 28}],
     [256, 128, 32, 16, 1, 365, 195]),
    ("F8", 8, True, "witness",
     [{"dim": 4, "classes": 1}, {"dim": 5, "spaces": 30}, {"dim": 6, "spaces": 450},
      {"dim": 7, "spaces": 3150}, {"dim": 8, "spaces": 12, "witnesses": 12}],
     [256, 128, 64, 32, 16, 2, 1, 45]),
]


@pytest.mark.parametrize(
    "field, R, probe, outcome, levels, witness",
    FROZEN_RUNS,
    ids=[f"{r[0]}-R{r[1]}-stop{'' if r[2] else '-noprobe'}" for r in FROZEN_RUNS],
)
def test_disprove_rank_matches_frozen_runs(monkeypatch, field, R, probe, outcome, levels, witness):
    spread = {
        "F4": algebra.field_construct(2, 2, (1, 1, 1)),
        "F8": algebra.field_construct(2, 3),
    }[field]
    if not probe:
        monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    rep = search.disprove_rank(spread, R)
    assert (rep.outcome, rep.levels, rep.witness) == (outcome, levels, witness)


def log_records(path):
    """The JSON-lines records of a checkpoint log, header first."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def assert_step_records(records):
    """Every record after the header is one raw-level step: its progress
    event plus its kept rows [parent position, point index, score], in
    (dim, parents_done) order, each level's steps _CHUNK parents apart."""
    done = {}
    for r in records:
        assert set(r) == {"dim", "parents_done", "parents_total", "spaces", "good", "kept"}
        assert all(len(row) == 3 and all(isinstance(v, int) for v in row) for row in r["kept"])
        before = done.get(r["dim"], 0)
        assert r["parents_done"] == min(before + search._CHUNK, r["parents_total"])
        assert all(before <= row[0] < r["parents_done"] for row in r["kept"])
        done[r["dim"]] = r["parents_done"]
    dims = [r["dim"] for r in records]
    assert dims == sorted(dims)


class Stop(Exception):
    pass


def interrupt_at(dim, event):
    """A progress callback that raises Stop at the event-th step of level dim."""
    seen = []

    def progress(update):
        if update["dim"] == dim and "parents_done" in update:
            seen.append(update["parents_done"])
            if len(seen) == event:
                raise Stop

    return progress


@functools.lru_cache(maxsize=None)
def uninterrupted(n, R):
    return search.disprove_rank(algebra.field_construct(2, n), R)


@pytest.mark.parametrize(
    "n, R, dim, event",
    [
        # F8 R=5: the only chunk of the final level
        pytest.param(3, 5, 5, 1, id="f8-final-only"),
        # F16 R=8: the raw filter level has 8 chunks, the final level 26
        pytest.param(4, 8, 7, 1, id="f16-raw-first"),
        pytest.param(4, 8, 7, 4, id="f16-raw-middle"),
        pytest.param(4, 8, 8, 13, id="f16-final-middle"),
        # F16 R=8: the last final chunk, after every other one found nothing
        pytest.param(4, 8, 8, 26, id="f16-final-last"),
        # F8 R=8: dim 7 is ordered by rank-one content for the witness level
        pytest.param(3, 8, 7, 1, id="f8-ordered-first"),
        pytest.param(3, 8, 7, 3, id="f8-ordered-third"),
        # F8 R=8: the first final chunk holds the witness that stops the run
        pytest.param(3, 8, 8, 1, id="f8-final-witness-chunk"),
    ],
)
def test_disprove_rank_checkpoint_resume(tmp_path, n, R, dim, event):
    spread = algebra.field_construct(2, n)
    baseline = uninterrupted(n, R)

    ckpt = tmp_path / "state.json"
    with pytest.raises(Stop):
        search.disprove_rank(spread, R, checkpoint=str(ckpt), progress=interrupt_at(dim, event))
    # the header, then one record per step of every raw level so far
    records = log_records(ckpt)
    assert_step_records(records[1:])
    assert [r["dim"] for r in records[1:]].count(dim) == event
    assert records[-1]["dim"] == dim
    resumed = search.disprove_rank(spread, R, checkpoint=str(ckpt))
    assert "resumed-from-checkpoint" in resumed.flags
    assert resumed.outcome == baseline.outcome
    assert resumed.levels == baseline.levels
    assert resumed.witness == baseline.witness
    assert not ckpt.exists()  # cleared after a finished run


def test_disprove_rank_resumes_past_a_torn_last_record(tmp_path):
    f8 = algebra.field_construct(2, 3)
    baseline = uninterrupted(3, 8)
    ckpt = tmp_path / "state.json"
    # interrupted at the third step of the ordered level, with the third
    # step's record cut in half
    with pytest.raises(Stop):
        search.disprove_rank(f8, 8, checkpoint=str(ckpt), progress=interrupt_at(7, 3))
    text = ckpt.read_text()
    torn = len(text.splitlines()[-1]) // 2 + 1
    ckpt.write_text(text[:-torn])
    # resumed from the second step, then interrupted again at the final level
    with pytest.raises(Stop):
        search.disprove_rank(f8, 8, checkpoint=str(ckpt), progress=interrupt_at(8, 1))
    records = log_records(ckpt)[1:]
    assert_step_records(records)  # the torn record is gone, not duplicated
    assert [r["dim"] for r in records].count(8) == 1
    resumed = search.disprove_rank(f8, 8, checkpoint=str(ckpt))
    assert "resumed-from-checkpoint" in resumed.flags
    assert (resumed.outcome, resumed.levels, resumed.witness) == (
        baseline.outcome, baseline.levels, baseline.witness
    )
    assert not ckpt.exists()


def test_disprove_rank_checkpoint_step_only_appends(tmp_path):
    f16 = algebra.field_construct(2, 4)
    ckpt = tmp_path / "state.json"
    logs = []

    def snapshot(event):
        if event["dim"] == 7 and "parents_done" in event:
            logs.append(ckpt.read_bytes())

    search.disprove_rank(f16, 8, checkpoint=str(ckpt), progress=snapshot)
    assert len(logs) == 8  # the raw filter level has 8 steps
    for before, after in zip(logs, logs[1:]):
        assert after.startswith(before)
        assert after.count(b"\n") == before.count(b"\n") + 1


def test_disprove_rank_refuses_a_log_of_another_level_size(tmp_path):
    f16 = algebra.field_construct(2, 4)
    ckpt = tmp_path / "state.json"
    with pytest.raises(Stop):
        search.disprove_rank(f16, 8, checkpoint=str(ckpt), progress=interrupt_at(7, 2))
    header, *steps = log_records(ckpt)
    steps[-1]["parents_total"] += 1
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in (header, *steps)))
    before = ckpt.read_bytes()
    total = steps[0]["parents_total"]
    with pytest.raises(BadParameters) as err:
        search.disprove_rank(f16, 8, checkpoint=str(ckpt))
    assert str(err.value) == (
        f"checkpoint {ckpt} is not a snapshot of this run: "
        f"level 7 has {total} parents, not {total + 1}"
    )
    assert ckpt.read_bytes() == before


def test_disprove_rank_builds_fewer_spaces_than_its_dim7_level(monkeypatch):
    # the kept children are rows; a space is built only when a level scans
    # it, and the final level stops at its first witness chunk
    calls = []
    extend = algebra.MatSpace.extend

    def counting(self, *args):
        calls.append(None)
        return extend(self, *args)

    monkeypatch.setattr(algebra.MatSpace, "extend", counting)
    rep = search.disprove_rank(algebra.field_construct(2, 3), 8)
    assert rep.level(7) == {"dim": 7, "spaces": 3150}
    assert len(calls) < 3150


def test_disprove_rank_filter_level_at_2n_keeps_scan_order(monkeypatch):
    # F16 R=8: dim 7 is both the filter level and level R - 1, so it is not
    # ordered; the final level scans the dim-7 survivors as they were found
    pts = search.points_for(2, 4)
    seen = []
    process = search._process_parent

    def recording(parent, pts, least):
        result = process(parent, pts, least)
        seen.append((parent, result[1]))
        return result

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "_process_parent", recording)
    rep = search.disprove_rank(algebra.field_construct(2, 4), 8)
    assert rep.level(7)["survivors"] == 102
    survivors = [
        parent.extend(pts.flat[point]).key
        for parent, points in seen if parent.dim == 6 for point in points
    ]
    assert [parent.key for parent, _ in seen if parent.dim == 7] == survivors


def test_code_exists_is_computed_once_per_argument(monkeypatch):
    calls = []
    min_distance = codes.min_distance

    def counting(*args):
        calls.append(None)
        return min_distance(*args)

    monkeypatch.setattr(codes, "min_distance", counting)
    codes.code_exists.cache_clear()
    f8 = algebra.field_construct(2, 3)
    search.disprove_rank(f8, 8)
    first = len(calls)
    search.disprove_rank(f8, 8)
    assert first > 0
    assert len(calls) == first


def test_tensor_rank_events_carry_their_target():
    events = []
    _, _, reports = search.tensor_rank(atlas.atlas_get("S1").spread_set(), progress=events.append)
    targets = [event["R"] for event in events]
    assert targets == sorted(targets)
    assert targets[0] == 8  # R = 9 is settled by the diagonal probe, with no events
    assert {"R": 8, "dim": 7, "spaces": 48636, "survivors": 816} in events
    assert all("R" not in entry for rep in reports for entry in rep.levels)


# ---------------------------------------------------------------------------
# Classification searches
# ---------------------------------------------------------------------------


def test_spread_sets_by_rank_order4():
    report, classes = search.spread_sets_by_rank(2, 2, 3)
    assert len(classes) == 1
    f4 = algebra.field_construct(2, 2, (1, 1, 1))
    assert equivalence.are_equivalent(classes[0], f4.space) is not None


def test_spread_sets_by_rank_order8_rank5_empty():
    report, classes = search.spread_sets_by_rank(2, 3, 5)
    assert classes == []
    assert report.level(5)["survivors"] == 8


def test_extension_groups_partition():
    f16 = atlas.atlas_get("F16").space()
    pts = search.points_for(2, 4)
    ext = search.extension_groups(f16, pts)
    covered = np.concatenate([ext.inside_idx, ext.out_idx])
    assert sorted(covered.tolist()) == list(range(len(pts)))
    # every point spans the child it is assigned to, and every child
    # signature corresponds to a distinct span
    keys = [f16.extend(pts.flat[i]).key for i in ext.group_reps]
    for point, child_no in zip(ext.out_idx, ext.child):
        assert f16.extend(pts.flat[point]).key == keys[child_no]
    assert len(set(keys)) == len(ext.group_reps)


# ---------------------------------------------------------------------------
# Raw-level kernels against the per-child loops they replace
# ---------------------------------------------------------------------------


def oracle_extension_groups(parent, pts):
    """Children grouped in a dict of normalised residue bytes:
    (inside point indices, least point of each child, members of each
    child), the children sorted by those bytes."""
    red = parent.reduce(pts.flat)
    nz = red.any(axis=1)
    inside_idx, out_idx = np.nonzero(~nz)[0], np.nonzero(nz)[0]
    rows = red[out_idx]
    lead = rows[np.arange(rows.shape[0]), np.argmax(rows != 0, axis=1)]
    rows_n = ((rows * gf.inv_table(parent.q)[lead][:, None]) % parent.q).astype(np.uint8)
    seen = {}
    for pos, row in enumerate(rows_n):
        seen.setdefault(row.tobytes(), []).append(pos)
    members = [out_idx[seen[sig]] for sig in sorted(seen)]
    return inside_idx, [int(m[0]) for m in members], members


def oracle_rank_one_profile(parent, inside_idx, members, pts):
    """Base rank and per-child extras by row-reducing each child's members,
    over all n^2 columns, modulo the RREF of the inside points."""
    q, width = parent.q, pts.flat.shape[1]
    if inside_idx.size:
        base_rows, base_piv = gf.rref(pts.flat[inside_idx], q)
    else:
        base_rows, base_piv = np.zeros((0, width), dtype=np.uint8), ()
    base_rank = base_rows.shape[0]
    if not members:
        return base_rank, np.zeros(0, dtype=np.int64)
    batch = np.zeros((len(members), max(map(len, members)), width), dtype=np.int64)
    for i, memb in enumerate(members):
        rows = pts.flat[memb]
        if base_rank:
            rows = (rows - rows[:, list(base_piv)] @ base_rows.astype(np.int64)) % q
        batch[i, : len(memb)] = rows
    return base_rank, gf.rank_batch(batch, q)


def seeded_parents(space, seed, depth, per_level=3):
    """The space and random descendants of it, up to depth points added."""
    rng = np.random.default_rng(seed)
    pts = search.points_for(space.q, space.n)
    parents, level = [space], [space]
    for _ in range(depth):
        nxt = []
        for parent in level:
            reps = search.extension_groups(parent, pts).group_reps
            for i in rng.choice(len(reps), min(per_level, len(reps)), replace=False):
                nxt.append(parent.extend(pts.flat[reps[i]]))
        level = nxt[:per_level]
        parents += level
    return parents


def kernel_parents(name):
    if name == "full-M2(F2)":  # no outside points
        return [algebra.MatSpace.from_rows(2, 2, np.eye(4, dtype=np.uint8))]
    if name == "F27":
        return seeded_parents(algebra.field_construct(3, 3).space, 5, 4)
    # an atlas spread set (no inside points) and its seeded descendants
    seed, depth = {"F16": (1, 4), "S1": (2, 4), "F81": (3, 3), "V": (4, 3)}[name]
    return seeded_parents(atlas.atlas_get(name).space(), seed, depth)


@pytest.mark.parametrize("name", ["full-M2(F2)", "F16", "S1", "F81", "V", "F27"])
def test_raw_level_kernels_match_per_child_oracles(name):
    for parent in kernel_parents(name):
        pts = search.points_for(parent.q, parent.n)
        ext = search.extension_groups(parent, pts)
        inside_idx, reps, members = oracle_extension_groups(parent, pts)
        assert np.array_equal(ext.inside_idx, inside_idx)
        assert ext.group_reps.tolist() == reps
        got = [ext.out_idx[ext.child == c] for c in range(len(ext.group_reps))]
        assert [m.tolist() for m in got] == [m.tolist() for m in members]
        base_rank, extras = search._rank_one_profile(parent, ext, pts)
        want_rank, want_extras = oracle_rank_one_profile(parent, inside_idx, members, pts)
        assert base_rank == want_rank
        assert np.array_equal(extras, want_extras)


def oracle_process_parent(parent, pts, mode, n, R):
    """Oracle: the raw-level kernel that branched on a level kind, before
    every level kept the children whose score reaches a threshold."""
    ext = search.extension_groups(parent, pts)
    spans = len(ext.group_reps)
    if mode == "plain":
        return spans, [parent.extend(pts.flat[i]) for i in ext.group_reps], []
    base_rank, extras = search._rank_one_profile(parent, ext, pts)
    scores = base_rank + extras
    if mode == "filter":
        keep = np.nonzero(scores >= n)[0]
    elif mode == "final":
        keep = np.nonzero(scores == R)[0]
    else:
        keep = np.arange(spans)
    children = [parent.extend(pts.flat[ext.group_reps[i]]) for i in keep]
    return spans, children, scores[keep].tolist()


@pytest.mark.parametrize("name", ["full-M2(F2)", "F16", "S1", "F81", "V", "F27"])
def test_process_parent_matches_level_kind_oracle(name):
    for parent in kernel_parents(name):
        pts = search.points_for(parent.q, parent.n)
        n, R = parent.n, parent.dim + 1  # R: the children's dimension
        for mode, least in (("plain", 0), ("plain-ordered", 0), ("filter", n), ("final", R)):
            spans, points, scores = search._process_parent(parent, pts, least)
            want_spans, want_children, want_scores = oracle_process_parent(parent, pts, mode, n, R)
            assert spans == want_spans
            children = [parent.extend(pts.flat[point]) for point in points]
            assert [c.key for c in children] == [c.key for c in want_children]
            if mode != "plain":  # the plain kind did not score
                assert scores == want_scores


def oracle_kept(parent, pts, least):
    """Oracle: every child ranked by the per-child loops, then filtered at
    least; (spans, kept points, their scores) as _process_parent gives them."""
    inside_idx, reps, members = oracle_extension_groups(parent, pts)
    base_rank, extras = oracle_rank_one_profile(parent, inside_idx, members, pts)
    scores = base_rank + extras
    keep = np.nonzero(scores >= least)[0]
    return len(reps), [reps[i] for i in keep], scores[keep].tolist()


@pytest.mark.parametrize("name", ["full-M2(F2)", "F16", "S1", "F81", "V", "F27"])
def test_process_parent_matches_full_profile_at_every_threshold(name):
    # the kernel ranks only the children with enough members to reach least
    for parent in kernel_parents(name):
        pts = search.points_for(parent.q, parent.n)
        for least in range(parent.dim + 3):
            assert search._process_parent(parent, pts, least) == oracle_kept(parent, pts, least)


@functools.lru_cache(maxsize=None)
def gl3(q):
    """GL_3(q) as a (|GL_3(q)|, 3, 3) stack."""
    mats = gf.coefficient_grid(q, 9).reshape(-1, 3, 3)
    return mats[gf.rank_batch(mats, q) == 3]


def descendants_of_spread_sets(q):
    """(q, a spread set of order q^3, isotopism matrices A and B, picks,
    least): the parent is A S B extended by one picked child per pick, so
    its dimension is 3 + len(picks), and least runs up to that plus 2."""
    spreads = {
        2: [algebra.field_construct(2, 3)],
        3: [algebra.field_construct(3, 3), algebra.gtf_construct(3, 3, 1, 2, (0, 1, 0))],
    }[q]
    gl = st.integers(0, len(gl3(q)) - 1).map(lambda i: gl3(q)[i])
    picks = st.lists(st.integers(0, 10**6), max_size=5)
    return st.tuples(st.just(q), st.sampled_from(spreads), gl, gl, picks).flatmap(
        lambda case: st.tuples(*map(st.just, case), st.integers(0, len(case[4]) + 5))
    )


@given(st.sampled_from([2, 3]).flatmap(descendants_of_spread_sets))
def test_process_parent_keeps_the_full_profile_filter_on_random_descendants(case):
    q, spread, A, B, picks, least = case
    pts = search.points_for(q, 3)
    parent = algebra.MatSpace.from_matrices(q, 3, [A @ M @ B % q for M in spread.matrices])
    for pick in picks:
        reps = search.extension_groups(parent, pts).group_reps
        parent = parent.extend(pts.flat[reps[pick % reps.size]])
    assert search._process_parent(parent, pts, least) == oracle_kept(parent, pts, least)


def test_disprove_rank_ranks_only_children_that_can_reach_the_threshold(monkeypatch):
    # S1 R=8: a score is at most the parent's base rank plus the child's
    # member count, so the filter level (least n = 4) ranks only the
    # children with at least 2 members, and no final child has the 4
    # members a witness needs
    items, enough, level = {}, {}, []
    profile, rank_batch = search._rank_one_profile, gf.rank_batch

    def profiling(parent, ext, pts, least=0):
        dim = parent.dim + 1
        enough[dim] = enough.get(dim, 0) + int((np.bincount(ext.child) >= 2).sum())
        level.append(dim)
        try:
            return profile(parent, ext, pts, least)
        finally:
            level.pop()

    def counting(mats, q):
        if level:
            items[level[-1]] = items.get(level[-1], 0) + len(mats)
        return rank_batch(mats, q)

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "_rank_one_profile", profiling)
    monkeypatch.setattr(gf, "rank_batch", counting)
    rep = search.disprove_rank(atlas.atlas_get("S1").spread_set(), 8)
    assert rep.outcome == "exhausted"
    assert rep.level(7) == {"dim": 7, "spaces": 48636, "survivors": 816}
    assert rep.level(8) == {"dim": 8, "spaces": 130162, "witnesses": 0}
    assert items == {7: 7368}
    assert enough[7] == 7368


def oracle_diag_probe(space, R, pts):
    """Oracle: the diagonal probe with its own scan of the last level, before
    it scored through _process_parent."""
    n = space.n
    probe = space
    for e in np.eye(n, dtype=np.uint8):
        probe = probe.extend(np.diag(e))
    if probe.dim > R or probe.dim < R - 2:
        return None

    def scan_last(cand):
        ext = search.extension_groups(cand, pts)
        base_rank, extras = search._rank_one_profile(cand, ext, pts)
        hits = np.nonzero(base_rank + extras == R)[0]
        if hits.size:
            return cand.extend(pts.flat[ext.group_reps[int(hits[0])]])
        return None

    if probe.dim == R:
        return probe if search._rank_one_spanned(probe, pts) else None
    if probe.dim == R - 1:
        return scan_last(probe)
    ext = search.extension_groups(probe, pts)
    base_rank, extras = search._rank_one_profile(probe, ext, pts)
    for i in np.argsort(-extras, kind="stable")[:64]:
        witness = scan_last(probe.extend(pts.flat[ext.group_reps[int(i)]]))
        if witness is not None:
            return witness
    return None


@pytest.mark.parametrize("name", atlas.atlas_list())
def test_diag_probe_matches_scan_oracle(name):
    space = atlas.atlas_get(name).space()
    pts = algebra.points_for(space.q, space.n)
    for R in (7, 8, 9):
        got = search._diag_probe(space, R, pts)
        want = oracle_diag_probe(space, R, pts)
        assert (got is None) == (want is None), R
        assert got is None or got.key == want.key, R


def test_disprove_rank_checkpoint_records_the_filter_flag(tmp_path):
    f16 = algebra.field_construct(2, 4)
    baseline = uninterrupted(4, 8)
    ckpt = tmp_path / "state.json"
    with pytest.raises(Stop):
        search.disprove_rank(f16, 8, checkpoint=str(ckpt), progress=interrupt_at(7, 1))
    header, step = log_records(ckpt)
    assert header["params"]["filter"] is True  # no [8, 4, 5]_2 code exists
    assert step["dim"] == 7  # the raw filter level
    header["params"]["filter"] = False
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in (header, step)))
    before = ckpt.read_bytes()
    with pytest.raises(BadParameters, match="parameters differ"):
        search.disprove_rank(f16, 8, checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before
    header["params"]["filter"] = True
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in (header, step)))
    rep = search.disprove_rank(f16, 8, checkpoint=str(ckpt))
    assert "resumed-from-checkpoint" in rep.flags
    assert rep.levels == baseline.levels
    assert rep.outcome == baseline.outcome


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "parameters differ"),
        (
            json.dumps({"version": search.CHECKPOINT_VERSION - 1}),
            f"version {search.CHECKPOINT_VERSION - 1}, expected {search.CHECKPOINT_VERSION}",
        ),
        ("{not json", "unreadable (JSONDecodeError)"),
    ],
)
def test_disprove_rank_flags_ignored_checkpoint(tmp_path, content, reason):
    """A file that is not a snapshot of this run is refused and kept."""
    f8 = algebra.field_construct(2, 3)
    ckpt = tmp_path / "state.json"
    if content is None:
        # a log of the same spread set at another R
        with pytest.raises(Stop):
            search.disprove_rank(f8, 5, checkpoint=str(ckpt), progress=interrupt_at(5, 1))
    else:
        ckpt.write_text(content)
    before = ckpt.read_bytes()
    with pytest.raises(BadParameters) as err:
        search.disprove_rank(f8, 6, checkpoint=str(ckpt))
    assert str(err.value) == f"checkpoint {ckpt} is not a snapshot of this run: {reason}"
    assert ckpt.read_bytes() == before
