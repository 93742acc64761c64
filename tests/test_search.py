import functools
import json
import os
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spreadrank import algebra, atlas, codec, codes, equivalence, gf, search
from spreadrank.errors import BadParameters, EncodingOverflow

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


def oracle_iter_spread_sets(space, k):
    """Oracle: iter_spread_sets with one rank_batch per candidate, tested
    when the search reaches it."""
    q, n = space.q, space.n
    elems = space.nonzero_elements()
    inv_rows = elems[gf.rank_batch(elems.reshape(-1, n, n), q) == n]
    by_first = {}
    for row in inv_rows:
        by_first.setdefault(row[:n].tobytes(), []).append(row)

    def candidates(chosen, w):
        for cand in by_first[w.tobytes()]:
            if chosen:
                combos = (gf.coefficient_grid(q, len(chosen)) @ np.stack(chosen) + cand) % q
                if not bool((gf.rank_batch(combos.reshape(-1, n, n), q) == n).all()):
                    continue
            yield cand

    def dfs(chosen, w_rows):
        if len(chosen) == len(w_rows):
            yield algebra.MatSpace.from_rows(q, n, np.stack(chosen))
            return
        for cand in candidates(chosen, w_rows[len(chosen)]):
            chosen.append(cand)
            yield from dfs(chosen, w_rows)
            chosen.pop()

    for G in gf.rref_subspaces(n, k, q):
        if all(w.tobytes() in by_first for w in G):
            yield from dfs([], G)


def assert_spread_sets_like_oracle(space, k):
    got = [s.basis.tobytes() for s in search.iter_spread_sets(space, k)]
    assert got == [s.basis.tobytes() for s in oracle_iter_spread_sets(space, k)]


def test_iter_spread_sets_matches_per_candidate_oracle_on_order8_levels(order8_levels):
    spaces = [s for dim, _, classes in order8_levels if dim != "spread sets" for s in classes]
    assert len(spaces) == 52
    for space in spaces:
        for k in (2, 3):
            assert_spread_sets_like_oracle(space, k)


@pytest.mark.parametrize("name", ["F16", "S1", "S2"])
def test_iter_spread_sets_matches_per_candidate_oracle_on_order16(name):
    for k in (2, 3):
        assert_spread_sets_like_oracle(atlas.atlas_get(name).space(), k)


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


def cleared_logs(monkeypatch):
    """The bytes of each checkpoint log that a finished run removes, in
    order; the logs are still removed."""
    logs, clear = [], search._Checkpoint.clear

    def keeping(log):
        with open(log.path, "rb") as fh:
            logs.append(fh.read())
        clear(log)

    monkeypatch.setattr(search._Checkpoint, "clear", keeping)
    return logs


@functools.lru_cache(maxsize=None)
def uninterrupted(n, R):
    """The report of disprove_rank(F_2^n, R) and the bytes of its log."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        logs = cleared_logs(patch)
        report = search.disprove_rank(algebra.field_construct(2, n), R, checkpoint=os.path.join(tmp, "s.json"))
    return report, logs[0]


@pytest.mark.parametrize(
    "n, R, dim, event, then",
    [
        # F8 R=5: the only chunk of the final level
        pytest.param(3, 5, 5, 1, None, id="f8-final-only"),
        # F16 R=8: the raw filter level has 8 chunks, the final level 26
        pytest.param(4, 8, 7, 1, None, id="f16-raw-first"),
        pytest.param(4, 8, 7, 4, None, id="f16-raw-middle"),
        pytest.param(4, 8, 8, 13, None, id="f16-final-middle"),
        # inside a kernel block, not at its edge: the filter level is one
        # block of 8 chunks, and the final level's second block holds
        # chunks 17-26, so the resumed run's blocks start at chunk 21
        pytest.param(4, 8, 7, 6, None, id="f16-raw-inside-block"),
        pytest.param(4, 8, 8, 20, None, id="f16-final-inside-second-block"),
        # F16 R=8: the last final chunk, after every other one found nothing
        pytest.param(4, 8, 8, 26, None, id="f16-final-last"),
        # F16 R=8: interrupted in the filter level, then, resumed with half
        # of it replayed, in the final level; the last run replays the whole
        # filter level, whose kept rows carry no rank-one points, so its
        # final level keys none of its parents
        pytest.param(4, 8, 7, 4, (8, 13), id="f16-final-after-replayed-filter"),
        # F8 R=8: dim 7 is ordered by rank-one content for the witness level
        pytest.param(3, 8, 7, 1, None, id="f8-ordered-first"),
        pytest.param(3, 8, 7, 3, None, id="f8-ordered-third"),
        # F8 R=8: the first final chunk holds the witness that stops the run
        pytest.param(3, 8, 8, 1, None, id="f8-final-witness-chunk"),
    ],
)
def test_disprove_rank_checkpoint_resume(monkeypatch, tmp_path, n, R, dim, event, then):
    spread = algebra.field_construct(2, n)
    baseline, baseline_log = uninterrupted(n, R)

    ckpt = tmp_path / "state.json"
    with pytest.raises(Stop):
        search.disprove_rank(spread, R, checkpoint=str(ckpt), progress=interrupt_at(dim, event))
    # the header, then one record per step of every raw level so far
    records = log_records(ckpt)
    assert_step_records(records[1:])
    assert [r["dim"] for r in records[1:]].count(dim) == event
    assert records[-1]["dim"] == dim
    if then:
        with pytest.raises(Stop):
            search.disprove_rank(spread, R, checkpoint=str(ckpt), progress=interrupt_at(*then))
        records = log_records(ckpt)
        assert_step_records(records[1:])
        assert [r["dim"] for r in records[1:]].count(then[0]) == then[1]
    logs = cleared_logs(monkeypatch)
    resumed = search.disprove_rank(spread, R, checkpoint=str(ckpt))
    assert "resumed-from-checkpoint" in resumed.flags
    assert resumed.outcome == baseline.outcome
    assert resumed.levels == baseline.levels
    assert resumed.witness == baseline.witness
    assert logs == [baseline_log]  # the log ends byte for byte as an uninterrupted run's
    assert not ckpt.exists()  # cleared after a finished run
    if then:  # no parent of the resumed final level was keyed: all of its rest was evaluated
        total = baseline.level(7)["survivors"]
        assert resumed.timings[-1]["evaluated"] == total - then[1] * search._CHUNK


def test_disprove_rank_resumes_past_a_torn_last_record(tmp_path):
    f8 = algebra.field_construct(2, 3)
    baseline, _ = uninterrupted(3, 8)
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
    # it, and the final level builds its parents one block at a time and
    # stops at its first witness step
    built = []
    extend, extend_batch = algebra.MatSpace.extend, algebra.MatSpace.extend_batch

    def counting(self, *args):
        built.append(1)
        return extend(self, *args)

    def counting_batch(spaces, mats):
        built.append(len(spaces))
        return extend_batch(spaces, mats)

    monkeypatch.setattr(algebra.MatSpace, "extend", counting)
    monkeypatch.setattr(algebra.MatSpace, "extend_batch", staticmethod(counting_batch))
    rep = search.disprove_rank(algebra.field_construct(2, 3), 8)
    assert rep.level(7) == {"dim": 7, "spaces": 3150}
    assert sum(built) < 3150


def test_disprove_rank_filter_level_at_2n_keeps_scan_order(monkeypatch):
    # F16 R=8: dim 7 is both the filter level and level R - 1, so it is not
    # ordered; the final level scans the dim-7 survivors as they were found
    # (the first of each Aut(F16)-orbit of them, see the final-level tests)
    pts = search.points_for(2, 4)
    seen = []
    process = search._process_parents

    def recording(parents, pts, least, **kw):
        results = process(parents, pts, least, **kw)
        seen.extend((parent, result[1]) for parent, result in zip(parents, results))
        return results

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "_process_parents", recording)
    f16 = algebra.field_construct(2, 4)
    rep = search.disprove_rank(f16, 8)
    assert rep.level(7)["survivors"] == 102
    survivors = [
        parent.extend(pts.flat[point])
        for parent, points in seen if parent.dim == 6 for point in points
    ]
    firsts = orbit_firsts(survivors, equivalence.automorphism_group(f16.space))
    assert [parent.key for parent, _ in seen if parent.dim == 7] == [s.key for s in firsts]


def test_disprove_rank_runs_on_after_a_filter_level_without_survivors(monkeypatch):
    # F16 R=10 (no [10,4,5]_2 code, so dim 7 filters): with no survivors
    # kept there, the levels above it have no parents and nothing to build
    process = search._process_parents

    def none_kept(parents, pts, least, **kw):
        results = process(parents, pts, least, **kw)
        return [(spans, [], []) for spans, _, _ in results] if least == 4 else results

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "_process_parents", none_kept)
    rep = search.disprove_rank(algebra.field_construct(2, 4), 10)
    assert rep.outcome == "exhausted" and rep.level(7)["survivors"] == 0
    assert [rep.level(dim)["spaces"] for dim in (8, 9, 10)] == [0, 0, 0]


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


def test_reports_time_every_level():
    # one {dim, wall_s} per level, beside the levels and in the JSON report,
    # with every time rounded there; F8 R=8 ends at a final level with a
    # witness; spread_sets_by_rank also times its three phases, the
    # classified levels of disprove_rank their two, and its raw levels
    # their grouping and rank-one profile
    reports = [
        search.disprove_rank(algebra.field_construct(2, 4), 8),
        search.disprove_rank(algebra.field_construct(2, 3), 8),
        search.spread_sets_by_rank(2, 3, 6)[0],
    ]
    for rep in reports:
        assert rep.levels
        assert [t["dim"] for t in rep.timings] == [entry["dim"] for entry in rep.levels]
        assert all(t["wall_s"] >= 0 for t in rep.timings)
        rounded = [{k: round(v, 3) if k != "dim" else v for k, v in t.items()}
                   for t in rep.timings]
        assert json.loads(rep.to_json())["timings"] == rounded
    for rep, phases in ((reports[0], ("children_s", "classify_s")),
                        (reports[1], ("children_s", "classify_s")),
                        (reports[2], ("children_s", "classify_s", "filter_s"))):
        for entry, t in zip(rep.levels, rep.timings):
            raw = ("group_s", "profile_s")
            if "witnesses" in entry:  # the final level of disprove_rank
                assert set(t) == {"dim", "wall_s", "key_s", "evaluated", *raw}
                assert 0 <= t["key_s"] <= t["wall_s"] and t["evaluated"] > 0
                assert all(t[k] > 0 for k in raw)
                assert t["key_s"] + t["group_s"] + t["profile_s"] <= t["wall_s"]
                continue
            if "classes" not in entry:  # another raw level of disprove_rank
                assert set(t) == {"dim", "wall_s", *raw}
                assert all(t[k] > 0 for k in raw)
                assert t["group_s"] + t["profile_s"] <= t["wall_s"]
                continue
            assert set(t) == {"dim", "wall_s", *phases}
            assert all(t[k] >= 0 for k in phases)
            assert sum(t[k] for k in phases) <= t["wall_s"]
    assert [e["dim"] for e in reports[0].levels if "classes" in e] == [5, 6]
    assert [e["dim"] for e in reports[1].levels if "classes" in e] == [4]
    # F16 R=8 evaluates one final parent per orbit; F8 R=8 one block, up to its witness
    assert [rep.timings[-1]["evaluated"] for rep in reports[:2]] == [16, search._BLOCK]


@pytest.mark.parametrize("call", [
    "search.disprove_rank(atlas.atlas_get('F81').spread_set(), 6)",
    "search.spread_sets_by_rank(2, 3, 8)",
    "search.tensor_rank(atlas.atlas_get('S1').spread_set())",
    "equivalence.rank_one_orbits(equivalence.automorphism_group(atlas.atlas_get('F16').space()))",
], ids=["disprove-F81-R6", "classify-order8-R8", "tensor-rank-S1", "rank-one-orbits-F16"])
def test_searches_leave_numpy_ma_unimported(call):
    # a plain np.unique imports numpy.ma, 12 ms and its memory in every
    # process (NOTES.md, "Performance pitfalls"); each search runs in a
    # fresh interpreter, which imports the package from this checkout
    src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); from spreadrank import atlas, equivalence, search; "
            f"{call}; print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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
    ext = search.extension_groups([f16], pts)
    # a spread set holds no rank-one point, so every point lies in a child
    assert ext.child.shape == (1, len(pts)) and (ext.child >= 0).all()
    assert ext.sizes.sum() == len(pts)
    # every point spans the child it is assigned to, and every child
    # signature corresponds to a distinct span
    keys = [f16.extend(pts.flat[i]).key for i in ext.group_reps]
    for point, child_no in enumerate(ext.child[0]):
        assert f16.extend(pts.flat[point]).key == keys[child_no]
    assert len(set(keys)) == len(ext.group_reps)


# ---------------------------------------------------------------------------
# Raw-level kernels against the per-parent and per-child loops they replace
# ---------------------------------------------------------------------------


def oracle_parent_groups(parent, pts):
    """Oracle: one parent's grouping as the per-parent kernel did it, before
    the block kernel: the points' residues modulo the parent, normalised and
    packed, and one np.unique per parent."""
    q = parent.q
    red = parent.reduce(pts.flat)
    nz = red.any(axis=1)
    inside_idx, out_idx = np.nonzero(~nz)[0], np.nonzero(nz)[0]
    rows = red[out_idx]
    lead = gf.leading_coeff(rows, q)
    normed = (rows * gf.inv_table(q)[lead][:, None]) % q
    sig = codec.encode_rows(normed[:, ::-1], q)
    _, first, child = np.unique(sig, return_index=True, return_inverse=True)
    return types.SimpleNamespace(
        inside_idx=inside_idx, out_idx=out_idx, child=child, group_reps=out_idx[first], lead=lead
    )


def oracle_parent_profile(parent, ext, pts, least=0):
    """Oracle: one parent's rank-one profile as the per-parent kernel did it,
    (base rank, extras per child), ranking only the children that can reach
    least (see search._rank_one_profile)."""
    q = parent.q
    nchild = len(ext.group_reps)
    sizes = np.bincount(ext.child, minlength=nchild)
    bound = min(ext.inside_idx.size, parent.dim)
    if bound + sizes.max(initial=0) < least:
        return bound, sizes
    coords = pts.flat[:, list(parent.pivots)]
    if ext.inside_idx.size:
        base_rows, base_piv = gf.rref(coords[ext.inside_idx], q)
    else:
        base_rows, base_piv = np.zeros((0, parent.dim), dtype=np.uint8), ()
    base_rank = base_rows.shape[0]
    ranked = sizes >= least - base_rank
    extras = sizes.copy()
    if not ranked.any():
        return base_rank, extras
    members = ranked[ext.child]
    rows = coords[ext.out_idx[members]]
    if base_rank:
        rows = (rows - rows[:, list(base_piv)] @ base_rows.astype(np.int64)) % q
    free = np.ones(parent.dim, dtype=bool)
    free[list(base_piv)] = False
    rows = np.concatenate([rows[:, free], ext.lead[members, None]], axis=1)
    child = (np.cumsum(ranked) - 1)[ext.child[members]]  # position in the batch
    sizes = sizes[ranked]
    order = np.argsort(child, kind="stable")
    starts = np.cumsum(sizes) - sizes
    by_child = child[order]
    batch = np.zeros((sizes.size, sizes.max(), rows.shape[1]), dtype=np.int64)
    batch[by_child, np.arange(order.size) - starts[by_child]] = rows[order]
    extras[ranked] = gf.rank_batch(batch, q)
    return base_rank, extras


def oracle_process_parent(parent, pts, least):
    """Oracle: the per-parent raw-level kernel that _process_parents replaced;
    (spans, kept points, their scores) for one parent."""
    ext = oracle_parent_groups(parent, pts)
    base_rank, extras = oracle_parent_profile(parent, ext, pts, least)
    scores = base_rank + extras
    keep = np.nonzero(scores >= least)[0]
    return len(ext.group_reps), ext.group_reps[keep].tolist(), scores[keep].tolist()


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
    over all n^2 columns, modulo the RREF of the inside points; the
    children of one member count share one unpadded rank_batch."""
    q, width = parent.q, pts.flat.shape[1]
    if inside_idx.size:
        base_rows, base_piv = gf.rref(pts.flat[inside_idx], q)
    else:
        base_rows, base_piv = np.zeros((0, width), dtype=np.uint8), ()
    base_rank = base_rows.shape[0]
    extras = np.zeros(len(members), dtype=np.int64)
    by_size = {}
    for i, memb in enumerate(members):
        by_size.setdefault(len(memb), []).append(i)
    for size, idx in by_size.items():
        rows = pts.flat[np.concatenate([members[i] for i in idx])]
        if base_rank:
            rows = (rows - rows[:, list(base_piv)] @ base_rows.astype(np.int64)) % q
        extras[idx] = gf.rank_batch(rows.reshape(len(idx), size, width), q)
    return base_rank, extras


def oracle_kept(parent, pts, least):
    """Oracle: every child ranked by the per-child loops, then filtered at
    least; (spans, kept points, their scores) as _process_parents gives them
    for one parent."""
    inside_idx, reps, members = oracle_extension_groups(parent, pts)
    base_rank, extras = oracle_rank_one_profile(parent, inside_idx, members, pts)
    scores = base_rank + extras
    keep = np.nonzero(scores >= least)[0]
    return len(reps), [reps[i] for i in keep], scores[keep].tolist()


def assert_block_matches_oracles(block, pts, least):
    """_process_parents on the block equals the per-parent kernel and the
    per-child loops on every parent."""
    got = search._process_parents(block, pts, least)
    assert got == [oracle_process_parent(parent, pts, least) for parent in block]
    assert got == [oracle_kept(parent, pts, least) for parent in block]


def same_dim_blocks(parents):
    """The parents in blocks of one dimension each, in order."""
    blocks = {}
    for parent in parents:
        blocks.setdefault(parent.dim, []).append(parent)
    return list(blocks.values())


def seeded_parents(space, seed, depth, per_level=3):
    """The space and random descendants of it, up to depth points added."""
    rng = np.random.default_rng(seed)
    pts = search.points_for(space.q, space.n)
    parents, level = [space], [space]
    for _ in range(depth):
        nxt = []
        for parent in level:
            reps = oracle_parent_groups(parent, pts).group_reps
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
    if name == "F125":  # q = 5: three multiples of each residue to compare
        return seeded_parents(algebra.field_construct(5, 3).space, 6, 3)
    # an atlas spread set (no inside points) and its seeded descendants
    seed, depth = {"F16": (1, 4), "S1": (2, 4), "F81": (3, 3), "V": (4, 3)}[name]
    return seeded_parents(atlas.atlas_get(name).space(), seed, depth)


KERNEL_CASES = ["full-M2(F2)", "F16", "S1", "F81", "V", "F27", "F125"]


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_raw_level_kernels_match_per_child_oracles(name):
    for block in same_dim_blocks(kernel_parents(name)):
        pts = search.points_for(block[0].q, block[0].n)
        ext = search.extension_groups(block, pts)
        base_rank, extras = search._rank_one_profile(block, ext, pts)
        for p, parent in enumerate(block):
            lo, hi = ext.first[p], ext.first[p + 1]
            inside_idx, reps, members = oracle_extension_groups(parent, pts)
            assert np.nonzero(ext.child[p] < 0)[0].tolist() == inside_idx.tolist()
            assert ext.group_reps[lo:hi].tolist() == reps
            got = [np.nonzero(ext.child[p] == c)[0] for c in range(lo, hi)]
            assert [m.tolist() for m in got] == [m.tolist() for m in members]
            assert ext.sizes[lo:hi].tolist() == [len(m) for m in members]
            # the lead of each outside point, as the per-parent kernel had it
            want = oracle_parent_groups(parent, pts)
            assert ext.lead[p, want.out_idx].tolist() == want.lead.tolist()
            want_rank, want_extras = oracle_rank_one_profile(parent, inside_idx, members, pts)
            assert base_rank[p] == want_rank
            assert extras[lo:hi].tolist() == want_extras.tolist()


def oracle_level_kind(parent, pts, mode, n, R):
    """Oracle: the raw-level kernel that branched on a level kind, before
    every level kept the children whose score reaches a threshold."""
    ext = oracle_parent_groups(parent, pts)
    spans = len(ext.group_reps)
    if mode == "plain":
        return spans, [parent.extend(pts.flat[i]) for i in ext.group_reps], []
    base_rank, extras = oracle_parent_profile(parent, ext, pts)
    scores = base_rank + extras
    if mode == "filter":
        keep = np.nonzero(scores >= n)[0]
    elif mode == "final":
        keep = np.nonzero(scores == R)[0]
    else:
        keep = np.arange(spans)
    children = [parent.extend(pts.flat[ext.group_reps[i]]) for i in keep]
    return spans, children, scores[keep].tolist()


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_process_parent_matches_level_kind_oracle(name):
    for block in same_dim_blocks(kernel_parents(name)):
        pts = search.points_for(block[0].q, block[0].n)
        n, R = block[0].n, block[0].dim + 1  # R: the children's dimension
        for mode, least in (("plain", 0), ("plain-ordered", 0), ("filter", n), ("final", R)):
            got = search._process_parents(block, pts, least)
            for parent, (spans, points, scores) in zip(block, got):
                want_spans, want_children, want_scores = oracle_level_kind(parent, pts, mode, n, R)
                assert spans == want_spans
                children = [parent.extend(pts.flat[point]) for point in points]
                assert [c.key for c in children] == [c.key for c in want_children]
                if mode != "plain":  # the plain kind did not score
                    assert scores == want_scores


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_process_parent_matches_full_profile_at_every_threshold(name):
    # the kernel ranks only the children with enough members to reach least
    for block in same_dim_blocks(kernel_parents(name)):
        pts = search.points_for(block[0].q, block[0].n)
        for least in range(block[0].dim + 3):
            assert_block_matches_oracles(block, pts, least)


def recorded_raw_parents(monkeypatch, name, R):
    """{level dim: its parents} of disprove_rank(name, R) with the probe off,
    recorded from the blocks of its raw levels before the final one, which
    keep the final level's parents (R = 2n: the level before it is not
    ordered); the test's monkeypatches are undone afterwards."""
    levels = {}
    process = search._process_parents

    def recording(parents, pts, least, **kw):
        # the final level evaluates one parent per orbit: its parents are
        # recorded as the level before it keeps them
        results = process(parents, pts, least, **kw)
        if parents[0].dim + 1 < R:
            levels.setdefault(parents[0].dim + 1, []).extend(parents)
            levels.setdefault(parents[0].dim + 2, []).extend(
                parent.extend(pts.flat[point]) for parent, result in zip(parents, results) for point in result[1])
        return results

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "_process_parents", recording)
    search.disprove_rank(atlas.atlas_get(name).spread_set(), R)
    monkeypatch.undo()
    return levels


@pytest.mark.parametrize("name", ["F16", "S1"])
def test_process_parents_matches_oracles_on_every_raw_parent_at_rank_8(monkeypatch, name):
    # the filter level (dim 7, least n) and the final level (dim 8, least R)
    levels = recorded_raw_parents(monkeypatch, name, 8)
    assert sorted(levels) == [7, 8]
    pts = search.points_for(2, 4)
    for dim, parents in levels.items():
        for start in range(0, len(parents), search._BLOCK):
            block = parents[start:start + search._BLOCK]
            for least in (0, 4):
                got = search._process_parents(block, pts, least)
                assert got == [oracle_process_parent(parent, pts, least) for parent in block]
            assert_block_matches_oracles(block, pts, 8)
            if dim == 8:
                continue
            # the rank-one points of the filter survivors, as containment finds them
            with_members = search._process_parents(block, pts, 4, members=True)
            assert [row[:3] for row in with_members] == search._process_parents(block, pts, 4)
            for parent, (_, points, _, members) in zip(block, with_members):
                for point, row in zip(points, members):
                    inside = parent.extend(pts.flat[point]).contains_batch(pts.flat)
                    assert sorted(row[row < len(pts)].tolist()) == np.nonzero(inside)[0].tolist()


@pytest.mark.slow
def test_process_parents_matches_oracles_on_f81_dim7_parents(monkeypatch):
    # a seeded sample of the 2,688 parents of the F81 final level (q = 3)
    parents = recorded_raw_parents(monkeypatch, "F81", 8)[8]
    assert len(parents) == 2688
    rng = np.random.default_rng(81)
    sample = [parents[i] for i in rng.choice(len(parents), 2 * search._BLOCK, replace=False)]
    pts = search.points_for(3, 4)
    for block in (sample[: search._BLOCK], sample[search._BLOCK:]):
        for least in (0, 4, 8):
            assert_block_matches_oracles(block, pts, least)


def orbit_firsts(spaces, group):
    """The first of the spaces in each orbit of the group, in order."""
    seen = set()
    keys = equivalence.orbit_keys(equivalence._points_inside(spaces, group), group, [s.dim for s in spaces])
    return [s for s, key in zip(spaces, keys) if not (key in seen or seen.add(key))]


# final-level parents of disprove_rank(name, 8) and their Aut(S)-orbits
FINAL_ORBITS = {"F16": (102, 16), "S1": (816, 127), "F81": (2688, 414), "S2": (4422, 720)}


@pytest.mark.parametrize("name", sorted(FINAL_ORBITS))
def test_final_level_parents_share_their_orbit_firsts_counts(monkeypatch, name):
    # every final-level parent, evaluated: its spans and witness count are
    # those of the first parent of its orbit, which the final level charges
    # it; only the first parents are evaluated, each once
    parents = recorded_raw_parents(monkeypatch, name, 8)[8]
    spread = atlas.atlas_get(name).spread_set()
    aut = equivalence.automorphism_group(spread.space)
    pts = search.points_for(spread.q, spread.n)
    keys = equivalence.orbit_keys(equivalence._points_inside(parents, aut), aut, [7] * len(parents))
    counts = [
        (spans, len(points))
        for start in range(0, len(parents), search._BLOCK)
        for spans, points, _ in search._process_parents(parents[start:start + search._BLOCK], pts, 8)
    ]
    first = {}
    for key, count in zip(keys, counts):
        assert first.setdefault(key, count) == count
    assert (len(parents), len(first)) == FINAL_ORBITS[name]
    evaluated = []
    process = search._process_parents

    def recording(block, pts, least, **kw):
        if block[0].dim == 7:
            evaluated.extend(block)
        return process(block, pts, least, **kw)

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "_process_parents", recording)
    rep = search.disprove_rank(spread, 8)
    assert [p.key for p in evaluated] == [p.key for p in orbit_firsts(parents, aut)]
    assert rep.level(8) == {"dim": 8, "spaces": sum(c[0] for c in counts), "witnesses": 0}
    assert rep.timings[-1]["evaluated"] == len(first)


def test_final_level_charges_the_witness_steps_later_orbit_members(monkeypatch):
    # F8 R=6, probe off: the first final step holds the witness.  Two of its
    # four parents are evaluated, with 3 and 2 witness children; the other
    # two lie in their orbits and are charged those counts, not 0, so the
    # level counts the 9 witnesses of FROZEN_RUNS
    goods = []
    process = search._process_parents

    def recording(block, pts, least, **kw):
        results = process(block, pts, least, **kw)
        if block[0].dim == 5:
            goods.extend(len(points) for _, points, _ in results)
        return results

    monkeypatch.setattr(search, "_diag_probe", lambda space, R, pts: None)
    monkeypatch.setattr(search, "_process_parents", recording)
    events = []
    rep = search.disprove_rank(algebra.field_construct(2, 3), 6, progress=events.append)
    assert goods == [3, 2]
    assert events[-1] == {"dim": 6, "parents_done": 4, "parents_total": 12, "spaces": 60, "good": 9}
    assert rep.level(6) == {"dim": 6, "spaces": 60, "witnesses": 9}
    assert rep.timings[-1]["evaluated"] == 2


def test_process_parents_mixes_skipped_and_ranked_parents_in_one_block(monkeypatch):
    # at least R = 8, every parent of S1's final level skips its base RREF,
    # while the span of 7 rank ones of a published decomposition reduces
    # its base (rank 7) and ranks every child
    final = recorded_raw_parents(monkeypatch, "S1", 8)[8]
    rich = [
        algebra.MatSpace.from_encodings(2, 4, atlas.atlas_get(name).decomposition[:7])
        for name in ("F16", "S1", "S2")
    ]
    block = final[:20] + rich[:1] + final[20:40] + rich[1:] + final[40:60]
    pts = search.points_for(2, 4)

    def kind(parent):
        ext = oracle_parent_groups(parent, pts)
        sizes = np.bincount(ext.child)
        if min(ext.inside_idx.size, parent.dim) + sizes.max() < 8:
            return "skipped"
        base_rank, _ = oracle_parent_profile(parent, ext, pts, 8)
        return "ranked" if (sizes >= 8 - base_rank).any() else "based"

    assert {parent.dim for parent in block} == {7} and len(block) <= search._BLOCK
    assert {"skipped", "ranked"} <= {kind(parent) for parent in block}
    for least in (0, 4, 8):
        assert_block_matches_oracles(block, pts, least)


@functools.lru_cache(maxsize=None)
def gl3(q):
    """GL_3(q) as a (|GL_3(q)|, 3, 3) stack."""
    mats = gf.coefficient_grid(q, 9).reshape(-1, 3, 3)
    return mats[gf.rank_batch(mats, q) == 3]


SPREADS_OF_ORDER_Q3 = {
    2: [algebra.field_construct(2, 3)],
    3: [algebra.field_construct(3, 3), algebra.gtf_construct(3, 3, 1, 2, (0, 1, 0))],
}


def descendant(q, spread, A, B, picks):
    """A S B extended by one picked child per pick."""
    pts = search.points_for(q, 3)
    parent = algebra.MatSpace.from_matrices(q, 3, [A @ M @ B % q for M in spread.matrices])
    for pick in picks:
        reps = oracle_parent_groups(parent, pts).group_reps
        parent = parent.extend(pts.flat[reps[pick % reps.size]])
    return parent


def descendants_of_spread_sets(q):
    """(q, a spread set of order q^3, isotopism matrices A and B, picks,
    least): the parent is A S B extended by one picked child per pick, so
    its dimension is 3 + len(picks), and least runs up to that plus 2."""
    gl = st.integers(0, len(gl3(q)) - 1).map(lambda i: gl3(q)[i])
    picks = st.lists(st.integers(0, 10**6), max_size=5)
    return st.tuples(st.just(q), st.sampled_from(SPREADS_OF_ORDER_Q3[q]), gl, gl, picks).flatmap(
        lambda case: st.tuples(*map(st.just, case), st.integers(0, len(case[4]) + 5))
    )


@given(st.sampled_from([2, 3]).flatmap(descendants_of_spread_sets))
def test_process_parent_keeps_the_full_profile_filter_on_random_descendants(case):
    q, spread, A, B, picks, least = case
    pts = search.points_for(q, 3)
    parent = descendant(q, spread, A, B, picks)
    assert search._process_parents([parent], pts, least) == [oracle_kept(parent, pts, least)]


def blocks_of_descendants(q):
    """(q, a block of 1 to 8 descendants of one dimension, least): each is
    A S B, for its own spread set S and isotopism (A, B), extended by depth
    picked children."""
    gl = st.integers(0, len(gl3(q)) - 1).map(lambda i: gl3(q)[i])

    def block(depth):
        picks = st.lists(st.integers(0, 10**6), min_size=depth, max_size=depth)
        member = st.tuples(st.sampled_from(SPREADS_OF_ORDER_Q3[q]), gl, gl, picks)
        return st.tuples(st.just(q), st.lists(member, min_size=1, max_size=8),
                         st.integers(0, depth + 5))

    return st.integers(0, 5).flatmap(block)


@given(st.sampled_from([2, 3]).flatmap(blocks_of_descendants))
def test_process_parents_on_random_blocks_of_descendants(case):
    q, members, least = case
    pts = search.points_for(q, 3)
    block = [descendant(q, *member) for member in members]
    assert search._process_parents(block, pts, least) == [
        oracle_kept(parent, pts, least) for parent in block
    ]


def oracle_block_groups(parents, pts):
    """Oracle: extension_groups as it was before residue codes, which found
    each outside point's lead, normalised its residue row by it and encoded
    the normalised row."""
    q, dim = parents[0].q, parents[0].dim
    npar, (npts, width) = len(parents), pts.flat.shape
    piv = np.array([parent.pivots for parent in parents], dtype=np.int64).reshape(npar, dim)
    basis = np.stack([parent.basis for parent in parents]).astype(np.int64)
    nfree = width - dim
    on_free = np.ones((npar, width), dtype=bool)
    on_free[np.arange(npar)[:, None], piv] = False
    free = np.nonzero(on_free)[1].reshape(npar, nfree)
    # column k of parent p's map sends x to x[free_k] - x[piv] · B[:, free_k]
    block, cols = np.arange(npar)[:, None], np.arange(nfree)
    resmap = np.zeros((npar, width, nfree), dtype=np.float32)
    resmap[block, free, cols] = 1
    resmap[block[:, :, None], piv[:, :, None], cols] = -np.take_along_axis(basis, free[:, None], 2) % q
    res = (np.matmul(pts.flat.astype(np.float32), resmap).astype(np.uint16) % q).astype(np.uint8)
    outside = res.any(axis=2)
    rows = res[outside]
    lead = np.zeros((npar, npts), dtype=np.uint8)
    lead[outside] = row_lead = gf.leading_coeff(rows, q)
    normed = rows * gf.inv_table(q).astype(np.uint8)[row_lead][:, None] % q
    par, point = np.nonzero(outside)  # by parent, then by point
    sig = codec.encode_rows(normed[:, ::-1], q)
    # stable sorts by signature, then by parent, each in its narrowest type
    # (a radix sort up to 16 bits), keep each child's points in order
    by_sig = np.argsort(sig.astype(np.min_scalar_type(q**nfree - 1)), kind="stable")
    order = by_sig[np.argsort(par[by_sig].astype(np.min_scalar_type(npar - 1)), kind="stable")]
    par, sig, point = par[order], sig[order], point[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (par[1:] != par[:-1]) | (sig[1:] != sig[:-1])
    starts = np.nonzero(new)[0]
    child = np.full((npar, npts), -1, dtype=np.int64)
    child[par, point] = np.cumsum(new) - 1
    first = np.searchsorted(par[starts], np.arange(npar + 1))
    sizes = np.diff(np.append(starts, order.size))
    return search._Extension(child, lead, first, point[starts], sizes, point)


def assert_groups_match_oracle(block, pts):
    """extension_groups on the block equals the lead-normalising block
    oracle field by field, values and dtypes, and numbers, sizes and leads
    every parent's children as the per-parent np.unique kernel did."""
    ext = search.extension_groups(block, pts)
    want_ext = oracle_block_groups(block, pts)
    for name in ("child", "lead", "first", "group_reps", "sizes", "points"):
        got, want = getattr(ext, name), getattr(want_ext, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    for p, parent in enumerate(block):
        want = oracle_parent_groups(parent, pts)
        lo, hi = ext.first[p], ext.first[p + 1]
        assert np.nonzero(ext.child[p] < 0)[0].tolist() == want.inside_idx.tolist()
        assert (ext.child[p, want.out_idx] - lo).tolist() == want.child.tolist()
        assert ext.group_reps[lo:hi].tolist() == want.group_reps.tolist()
        assert ext.sizes[lo:hi].tolist() == np.bincount(want.child).tolist()
        assert ext.lead[p, want.out_idx].tolist() == want.lead.tolist()


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_extension_groups_matches_the_block_oracle(name):
    for block in same_dim_blocks(kernel_parents(name)):
        assert_groups_match_oracle(block, search.points_for(block[0].q, block[0].n))


def test_extension_groups_refuses_codes_past_float64_exactness():
    # q = 3, n = 6, dimension 2: 3^34 residue codes, past 2^53
    q, n = 3, 6
    parent = algebra.MatSpace.from_rows(q, n, np.eye(36, dtype=np.uint8)[:2])
    with pytest.raises(EncodingOverflow):
        search.extension_groups([parent], search.points_for(q, n))


def test_extension_groups_reduces_residues_beyond_a_byte():
    # q = 7: the point u w^T, u = (1,5,5,5), w = (1,4,4,4), is 6 on eight
    # pivot columns of the parent spanned by e_c + e_15 over those columns,
    # so its product entry on column 15 is 6 + 8 * 6 * 6 = 294 > 255
    q, n = 7, 4
    pts = search.points_for(q, n)
    x = np.outer([1, 5, 5, 5], [1, 4, 4, 4]) % q
    sixes = [c for c in range(15) if x.flat[c] == 6][:8]
    rows = np.zeros((8, 16), dtype=np.int64)
    rows[np.arange(8), sixes] = rows[:, 15] = 1
    parent = algebra.MatSpace.from_rows(q, n, rows)
    assert parent.dim == 8 and 6 + 8 * 36 > 255
    point = np.nonzero((pts.flat == x.reshape(-1)).all(axis=1))[0]
    assert point.size == 1  # the point is listed as it is
    assert search.extension_groups([parent], pts).child[0, point[0]] >= 0  # outside
    # the parent and seeded descendants, in blocks of one dimension
    for block in same_dim_blocks(seeded_parents(parent, 7, 2, per_level=2)):
        assert_groups_match_oracle(block, pts)
    # a block of the parent twice at least 9 ranks its 236,872 children, one
    # of them with 2,744 members: padded to that count, the batch would take
    # 43.6 GiB; ranked in member-count classes it matches a per-child rank
    ext = search.extension_groups([parent], pts)
    assert len(ext.sizes) == 118436 and ext.sizes.max() == 2744
    want = oracle_kept(parent, pts, 9)
    assert search._process_parents([parent, parent], pts, 9) == [want, want]


def test_extension_groups_numbers_children_of_wide_signatures():
    # q = 3, n = 6, dimension 6: q^30 signatures times 132,496 points is past
    # 2^63, which one key packing signature and point together cannot hold
    q, n = 3, 6
    pts = search.points_for(q, n)
    rng = np.random.default_rng(36)
    block = [algebra.MatSpace.from_rows(q, n, rng.integers(0, q, (6, 36))) for _ in range(2)]
    assert {parent.dim for parent in block} == {6}
    assert q ** 30 * len(pts) > 2**63
    assert_groups_match_oracle(block, pts)
    assert search._process_parents(block, pts, 7) == [
        oracle_process_parent(parent, pts, 7) for parent in block
    ]


def test_disprove_rank_ranks_only_children_that_can_reach_the_threshold(monkeypatch):
    # S1 R=8: a score is at most the parent's base rank plus the child's
    # member count, so the filter level (least n = 4) ranks only the
    # children with at least 2 members, and no final child has the 4
    # members a witness needs
    items, enough, level = {}, {}, []
    profile, rank_batch = search._rank_one_profile, gf.rank_batch

    def profiling(parents, ext, pts, least=0):
        dim = parents[0].dim + 1
        enough[dim] = enough.get(dim, 0) + int((ext.sizes >= 2).sum())
        level.append(dim)
        try:
            return profile(parents, ext, pts, least)
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
    it scored through the raw-level kernel."""
    n = space.n
    probe = space
    for e in np.eye(n, dtype=np.uint8):
        probe = probe.extend(np.diag(e))
    if probe.dim > R or probe.dim < R - 2:
        return None

    def scan_last(cand):
        ext = oracle_parent_groups(cand, pts)
        base_rank, extras = oracle_parent_profile(cand, ext, pts)
        hits = np.nonzero(base_rank + extras == R)[0]
        if hits.size:
            return cand.extend(pts.flat[ext.group_reps[int(hits[0])]])
        return None

    if probe.dim == R:
        return probe if search._rank_one_spanned(probe, pts) else None
    if probe.dim == R - 1:
        return scan_last(probe)
    ext = oracle_parent_groups(probe, pts)
    base_rank, extras = oracle_parent_profile(probe, ext, pts)
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
    baseline, _ = uninterrupted(4, 8)
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
