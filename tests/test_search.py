import numpy as np
import pytest

from spreadrank import algebra, atlas, codec, codes, equivalence, search

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


def test_disprove_rank_worker_invariance():
    f8 = algebra.field_construct(2, 3)
    rep1 = search.disprove_rank(f8, 5, workers=1)
    rep2 = search.disprove_rank(f8, 5, workers=2)
    assert rep1.levels == rep2.levels
    assert rep1.outcome == rep2.outcome


def test_disprove_rank_checkpoint_resume(tmp_path):
    f8 = algebra.field_construct(2, 3)
    baseline = search.disprove_rank(f8, 5)

    ckpt = tmp_path / "state.json"

    class Stop(Exception):
        pass

    calls = {"n": 0}

    def interrupt(event):
        if "parents_done" in event:
            calls["n"] += 1
            raise Stop

    with pytest.raises(Stop):
        search.disprove_rank(
            f8, 5, checkpoint=str(ckpt), checkpoint_interval=0.0, progress=interrupt
        )
    assert ckpt.exists()
    resumed = search.disprove_rank(
        f8, 5, checkpoint=str(ckpt), checkpoint_interval=0.0
    )
    assert "resumed-from-checkpoint" in resumed.flags
    assert resumed.outcome == baseline.outcome
    assert [lvl for lvl in resumed.levels] == baseline.levels
    assert not ckpt.exists()  # cleared after a finished run


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
    covered = set(ext.inside_idx.tolist())
    for members in ext.group_members:
        covered.update(int(i) for i in members)
    assert covered == set(range(len(pts)))
    # every child signature corresponds to a distinct span
    keys = search.child_keys(f16, ext.norm_rows)
    assert len(set(keys)) == len(keys) == len(ext.group_reps)


def test_child_keys_match_extend():
    f16 = atlas.atlas_get("F16").space()
    pts = search.points_for(2, 4)
    ext = search.extension_groups(f16, pts)
    keys = search.child_keys(f16, ext.norm_rows)
    for idx, key in list(zip(ext.group_reps, keys))[:25]:
        child = f16.extend(pts.flat[idx])
        assert child.basis.tobytes() == key


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "parameters differ"),
        ('{"version": 0}', "version 0, expected 1"),
        ("{not json", "unreadable (JSONDecodeError)"),
    ],
)
def test_disprove_rank_flags_ignored_checkpoint(tmp_path, content, reason):
    f8 = algebra.field_construct(2, 3)
    baseline = search.disprove_rank(f8, 5, stop_at_witness=False)
    ckpt = tmp_path / "state.json"
    if content is None:
        # a snapshot of the same search with stop_at_witness on
        class Stop(Exception):
            pass

        def interrupt(event):
            if "parents_done" in event:
                raise Stop

        with pytest.raises(Stop):
            search.disprove_rank(
                f8, 5, checkpoint=str(ckpt), checkpoint_interval=0.0, progress=interrupt
            )
    else:
        ckpt.write_text(content)
    rep = search.disprove_rank(
        f8, 5, stop_at_witness=False, checkpoint=str(ckpt), checkpoint_interval=0.0
    )
    assert f"checkpoint-ignored: {reason}" in rep.flags
    assert "resumed-from-checkpoint" not in rep.flags
    assert rep.levels == baseline.levels
    assert rep.outcome == baseline.outcome
