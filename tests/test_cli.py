import json

import numpy as np
import pytest

from spreadrank import atlas, cli, equivalence


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decode(capsys):
    code, out, _ = run(capsys, "decode", "33825", "--q", "2", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "1 0 0 0"


def test_encode(capsys):
    code, out, _ = run(capsys, "encode", "0100", "0010", "0001", "1100", "--q", "2")
    assert code == 0
    assert out.strip() == "14402"


def test_atlas_list(capsys):
    code, out, _ = run(capsys, "atlas", "list")
    assert code == 0
    assert "F16" in out and "GTF81" in out


def test_atlas_selfcheck(capsys):
    code, out, _ = run(capsys, "atlas", "selfcheck")
    assert code == 0
    assert "FAIL" not in out


def test_atlas_export_and_verify(capsys, tmp_path):
    spread = tmp_path / "f16.txt"
    decomp = tmp_path / "f16_decomp.txt"
    code, _, _ = run(
        capsys, "atlas", "export", "F16",
        "--output", str(spread), "--decomp-output", str(decomp),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--spreadset", str(spread), "--decomp", str(decomp),
        "--json",
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_refuted_exit_code(capsys, tmp_path):
    spread = tmp_path / "f16.txt"
    run(capsys, "atlas", "export", "F16", "--output", str(spread))
    bad = tmp_path / "bad.txt"
    bad.write_text("2 4 2\n85\n8738\n")  # too few matrices to span
    code, out, _ = run(
        capsys, "verify", "--spreadset", str(spread), "--decomp", str(bad)
    )
    assert code == 1


def test_rank_small_field(capsys, tmp_path):
    spread = tmp_path / "f4.txt"
    spread.write_text("2 2\n9\n14\n")  # identity and companion of x^2+x+1
    code, out, _ = run(capsys, "rank", "--spreadset", str(spread))
    assert code == 0
    assert out.strip() == "3"


def test_codes_published(capsys):
    code, out, _ = run(capsys, "codes", "--g1-paper", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["G1"]["weight_distribution"] == [1, 0, 0, 0, 6, 24, 24, 12, 12, 2]
    assert data["G1"]["min_distance"] == 4
    assert data["G1~G2"] is True
    assert data["G1~G3"] is False


def test_equiv_atlas_pair(capsys):
    code, out, _ = run(capsys, "equiv", "--atlas", "F16", "S1")
    assert code == 1
    assert json.loads(out) == {"equivalent": False}
    code, out, _ = run(capsys, "equiv", "--atlas", "GTF81", "IX")
    assert code == 0
    found = json.loads(out)
    assert found["equivalent"] is True
    # the printed witness maps GTF81 onto IX
    gtf81, ix = (atlas.atlas_get(name).spread_set().space for name in ("GTF81", "IX"))
    witness = equivalence.Isotopism(np.array(found["A"]), np.array(found["B"]), gtf81.q)
    assert equivalence.act(witness, gtf81) == ix


def test_disprove_small(capsys, tmp_path):
    spread = tmp_path / "f4.txt"
    spread.write_text("2 2\n9\n14\n")
    code, out, _ = run(capsys, "disprove", "--spreadset", str(spread),
                       "--rank", "3", "--json")
    assert code == 1  # witness found: rank 3 not disproved
    data = json.loads(out)
    assert data["outcome"] == "witness"


def test_rank_one_dimensional_spread_set(capsys, tmp_path):
    spread = tmp_path / "f3.txt"
    spread.write_text("3 1\n1\n")
    code, out, _ = run(capsys, "rank", "--spreadset", str(spread))
    assert (code, out.strip()) == (0, "1")


def test_disprove_refuses_a_checkpoint_path_holding_another_file(capsys, tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("notes\n")
    code, out, err = run(capsys, "disprove", "--atlas", "F16", "--rank", "8",
                         "--checkpoint", str(notes))
    assert code == 2 and out == ""
    assert err.startswith(f"error: checkpoint {notes} is not a snapshot")
    assert notes.read_text() == "notes\n"


def test_disprove_refuses_an_unwritable_checkpoint_path_at_once(capsys, tmp_path):
    # F16 has rank 9, so the diagonal probe misses, and the log is opened
    # before the first level sends a progress event
    path = tmp_path / "no" / "such" / "state.json"
    code, out, err = run(capsys, "disprove", "--atlas", "F16", "--rank", "8",
                         "--checkpoint", str(path), "--verbose")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert len(err.splitlines()) == 1
    assert not path.parent.exists()


def test_disprove_leaves_no_checkpoint_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    # a diagonal-probe witness, then an exhaustion that runs its levels
    for rank, exit_code in ((9, 1), (7, 0)):
        code, _, _ = run(capsys, "disprove", "--atlas", "F16", "--rank", str(rank),
                         "--checkpoint", str(path), "--json")
        assert code == exit_code
        assert not path.exists()


def test_search_small(capsys):
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "2", "--max", "3",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["spread_set_classes"] == 1


def test_search_text_prints_flags(capsys):
    # the default prune schedule is not licensed above R = 2n
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "3", "--max", "7")
    assert code == 0
    assert "flag: prune-unlicensed" in out


def test_knuth_cli(capsys, tmp_path):
    spread = tmp_path / "f4.txt"
    spread.write_text("2 2\n9\n14\n")
    code, out, _ = run(capsys, "knuth", "--spreadset", str(spread))
    assert code == 0
    assert json.loads(out)["orbit_size"] == 1


def test_unknown_atlas_entry_usage_error(capsys):
    code, _, err = run(capsys, "rank", "--atlas", "NOPE")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["search", "--q", "2", "--n", "3", "--max", "5", "--prune", "5"],
                     "--prune", id="prune-without-colon"),
        pytest.param(["search", "--q", "2", "--n", "3", "--max", "5", "--prune", "5:x"],
                     "--prune", id="prune-not-an-integer"),
        pytest.param(["atlas", "export", "F16"], "--output", id="export-without-output"),
        pytest.param(["atlas", "export", "--output", "out.txt"], "NAME", id="export-without-name"),
        pytest.param(["decode", "5", "--q", "4", "--n", "2"], "q=4", id="decode-unsupported-q"),
        pytest.param(["encode", "10", "01", "--q", "9"], "q=9", id="encode-unsupported-q"),
        pytest.param(["encode", "012", "--q", "2"], "rows of", id="encode-not-square"),
        pytest.param(["encode", "01", "1x", "--q", "2"], "rows of", id="encode-not-a-digit"),
        pytest.param(["encode", "01", "12", "--q", "2"], "below q", id="encode-digit-not-below-q"),
        pytest.param(["search", "--q", "2", "--n", "3", "--max", "5", "--prune", "5:0"],
                     "at least 1", id="prune-partial-spread-dim-zero"),
        pytest.param(["equiv", "one.txt"], "two spread-set files", id="equiv-one-file"),
        pytest.param(["rank", "--spreadset", "/nonexistent/spread.txt"],
                     "No such file", id="spreadset-file-missing"),
        pytest.param(["verify", "--spreadset", "n0.txt"], "n >= 1", id="verify-header-n-zero"),
        pytest.param(["equiv", "n0.txt", "n0.txt"], "n >= 1", id="equiv-header-n-zero"),
        pytest.param(["disprove", "--atlas", "F16", "--rank", "17"], "n^2",
                     id="disprove-rank-above-n-squared"),
        pytest.param(["disprove", "--atlas", "F16", "--rank", "3"], "between n",
                     id="disprove-rank-below-n"),
        pytest.param(["search", "--q", "2", "--n", "0", "--max", "3"], "at least 1",
                     id="search-n-zero"),
        pytest.param(["search", "--q", "2", "--n", "2", "--max", "5"], "n^2",
                     id="search-max-above-n-squared"),
        pytest.param(["search", "--q", "2", "--n", "1", "--max", "0"], "between n",
                     id="search-max-below-n"),
    ],
)
def test_malformed_input_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n0.txt").write_text("2 0\n")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_bad_subcommand_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_unknown_option_exit_2(capsys):
    for option in (["--workers", "2"], ["--checkpoint-interval", "0"]):
        code, _, err = run(capsys, "disprove", "--atlas", "F16", "--rank", "8", *option)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in err


def test_verify_singular_spread_set_is_refuted(capsys, tmp_path):
    spread = tmp_path / "singular.txt"
    spread.write_text("2 2\n9\n6\n")  # I plus the swap matrix is the all-ones matrix
    code, out, err = run(capsys, "verify", "--spreadset", str(spread))
    assert (code, out.strip(), err) == (1, "singular", "")
    code, out, _ = run(capsys, "verify", "--spreadset", str(spread), "--json")
    assert code == 1 and json.loads(out) == {"verified": False, "reason": "singular"}


def test_verify_dependent_spread_set_basis_is_a_usage_error(capsys, tmp_path):
    spread = tmp_path / "dependent.txt"
    spread.write_text("2 2\n9\n9\n")
    code, out, err = run(capsys, "verify", "--spreadset", str(spread))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "dimension 1" in err


@pytest.mark.parametrize("command", ["verify", "codes"])
@pytest.mark.parametrize(
    "decomp, message",
    [
        pytest.param("2 3 1\n1\n", "n=3", id="wrong-n"),
        # the F16 witness read over F_3
        pytest.param("3 4 9\n85\n8738\n57582\n32896\n1632\n3072\n30576\n53261\n4096\n",
                     "q=3", id="wrong-q"),
    ],
)
def test_decomposition_over_another_q_or_n_is_a_usage_error(
    capsys, tmp_path, command, decomp, message
):
    spread = tmp_path / "f16.txt"
    run(capsys, "atlas", "export", "F16", "--output", str(spread))
    path = tmp_path / "decomp.txt"
    path.write_text(decomp)
    code, out, err = run(capsys, command, "--spreadset", str(spread), "--decomp", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_empty_decomposition(capsys, tmp_path):
    spread = tmp_path / "f16.txt"
    run(capsys, "atlas", "export", "F16", "--output", str(spread))
    empty = tmp_path / "empty.txt"
    empty.write_text("2 4 0\n")
    code, out, _ = run(capsys, "verify", "--spreadset", str(spread), "--decomp", str(empty),
                       "--json")
    assert code == 1
    assert json.loads(out) == {"verified": False, "reason": "span does not contain the spread set",
                               "R": 0}
    code, out, err = run(capsys, "codes", "--spreadset", str(spread), "--decomp", str(empty))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not contained" in err


def test_rank_verbose_events_name_their_target(capsys):
    code, out, err = run(capsys, "rank", "--atlas", "F16", "--verbose")
    events = [json.loads(line) for line in err.splitlines()]
    assert (code, out.strip()) == (0, "9")
    # R = 8 is exhausted level by level; R = 9 is settled by the diagonal probe
    assert events and all(event["R"] == 8 for event in events)
