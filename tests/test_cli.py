"""End-to-end command-line behavior (in-process, plus one subprocess run)."""

import ast
import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crystal_poly import Context, CrystalOps, crosscheck_membership, epsilon_star_oracle, shapes
from crystal_poly import oracle
from crystal_poly.cli import main
from crystal_poly.crystal import ZVector
from crystal_poly.inequalities import ClosureResult
from crystal_poly.oracle import random_reachable

from util import with_undo_moves


def write_cfg(tmp_path, *, name="cfg.json", family="A1", word=(2, 1, 3), lam=None):
    cfg = {"family": family, "n": 3, "iota_word": list(word)}
    if lam is not None:
        cfg["lambda"] = {str(k): v for k, v in lam.items()}
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------------------
# gen-ineq
# ----------------------------------------------------------------------------------


def test_gen_ineq_comb_ladder(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lam={1: 1})
    rc = main(["--config", cfg, "gen-ineq", "--mode", "comb", "--k", "1", "--window", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["converged"] is True
    assert payload["lambda"] == {"1": 1}
    assert payload["mode"] == "comb" and payload["k"] == 1 and payload["window"] == 11
    texts = [f["text"] for f in payload["forms"]]
    assert "x[1,2] - x[1,1] + 1" in texts
    # deterministic output across runs
    rc2 = main(["--config", cfg, "gen-ineq", "--mode", "comb", "--k", "1", "--window", "11"])
    assert rc2 == 0
    assert capsys.readouterr().out == out


def test_gen_ineq_shat_singleton(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lam={2: 5})
    rc = main(["--config", cfg, "gen-ineq", "--mode", "shat", "--k", "2", "--window", "6"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    texts = sorted(f["text"] for f in payload["forms"])
    assert texts == ["-x[1,2] + 5", "0"]


def test_gen_ineq_sprime_and_comb_limit_agree(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc1 = main(["--config", cfg, "gen-ineq", "--mode", "sprime", "--window", "6"])
    out1 = json.loads(capsys.readouterr().out)
    rc2 = main(["--config", cfg, "gen-ineq", "--mode", "comb-limit", "--window", "6"])
    out2 = json.loads(capsys.readouterr().out)
    assert rc1 == rc2 == 0
    assert out1["converged"] and out2["converged"]
    texts1 = {f["text"] for f in out1["forms"]}
    texts2 = {f["text"] for f in out2["forms"]}
    assert texts2 == texts1 - {"0"}  # closed forms = closure minus the trivial form


def test_gen_ineq_out_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lam={1: 1})
    dest = tmp_path / "forms.json"
    rc = main(
        ["--config", cfg, "gen-ineq", "--mode", "comb", "--k", "2", "--window", "6",
         "--out", str(dest)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(dest.read_text(encoding="utf-8"))
    assert [f["text"] for f in payload["forms"]] == ["-x[1,2]"]


def test_gen_ineq_node_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "5")
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, "gen-ineq", "--mode", "sprime", "--window", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert payload["converged"] is False


def test_gen_ineq_stops_on_a_move_that_lowers_the_last_position(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(shapes, "shape_children", with_undo_moves(shapes.shape_children))
    cfg = write_cfg(tmp_path, lam={1: 1})
    rc = main(["--config", cfg, "gen-ineq", "--mode", "comb", "--k", "3", "--window", "9"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: eyd move lowers the last position from 3 to 0")


def test_gen_ineq_comb_limit_refuses_k(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, "gen-ineq", "--mode", "comb-limit", "--k", "1", "--window", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: --k does not apply to --mode comb-limit\n"


# ----------------------------------------------------------------------------------
# check
# ----------------------------------------------------------------------------------


def test_check_member_and_rejection(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lam={1: 1})
    assert main(["--config", cfg, "check", "--vector", "{(1,1): 1}"]) == 0
    assert capsys.readouterr().out.startswith("member (")
    assert main(["--config", cfg, "check", "--vector", "[0, 2]"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not a member: ")
    assert "evaluates to" in out


def test_check_limit_crystal_accepts_more(tmp_path, capsys):
    cfg = write_cfg(tmp_path)  # no weight: limit crystal
    assert main(["--config", cfg, "check", "--vector", "[0, 2]"]) == 0
    capsys.readouterr()
    assert main(["--config", cfg, "check", "--vector", "[0, 0, 0, 1]"]) == 1
    capsys.readouterr()
    assert main(["--config", cfg, "check", "--vector", "[-1]"]) == 1
    assert "negative entry" in capsys.readouterr().out


def test_check_node_cap_runtime_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "5")
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, "check", "--vector", "[1]"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    # support max(1, n) = 3, closure bound 3 + 2 periods of 3
    assert "node cap of 5 forms (support 3, closure bound 9)" in captured.err


def test_vector_position_past_the_node_cap_exits_2_before_allocating(
        tmp_path, capsys, monkeypatch):
    def no_row(self, entries=None):
        raise AssertionError("a vector row was allocated")

    monkeypatch.setattr(ZVector, "__init__", no_row)
    cfg = write_cfg(tmp_path)
    for command in ("check", "epsilon-star"):
        assert main(["--config", cfg, command, "--vector", "{1000000000: 1}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vector position 1000000000 lies past the limit "
                              "of 1000000 positions")


@pytest.mark.parametrize("argv, bound", [
    (["check", "--vector", "{100000: 1}"], 100006),  # support plus two periods
    (["gen-ineq", "--mode", "sprime", "--window", "1000001"], 1000001),
], ids=["check", "gen-ineq"])
def test_huge_seed_set_exits_2_before_a_seed_is_built(tmp_path, capsys, argv, bound):
    cfg = write_cfg(tmp_path, lam={1: 1})
    t0 = time.perf_counter()
    rc = main(["--config", cfg, *argv])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"error: plain closure of {bound} variable seeds at width {bound} "
                            f"needs {bound * bound} bytes of seed rows, over the limit of "
                            f"16777216\n")
    assert elapsed < 1


@pytest.mark.parametrize(
    "lam, member_rc, counts",
    [({}, 0, [1, 3, 9]), ({"lambda": None}, 0, [1, 3, 9]), ({"lambda": {}}, 1, [1, 0, 0])],
    ids=["lambda-absent", "lambda-null", "lambda-empty"],
)
def test_lambda_null_selects_the_limit_crystal(tmp_path, capsys, lam, member_rc, counts):
    cfg = {"family": "A1", "n": 3, "iota_word": [2, 1, 3], **lam}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(path), "check", "--vector", "[0,1]"]) == member_rc
    capsys.readouterr()
    assert main(["--config", str(path), "enumerate", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"depth {d}: {c}" for d, c in enumerate(counts)]


# ----------------------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------------------


def test_enumerate_limit(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["--config", cfg, "enumerate", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["depth 0: 1", "depth 1: 3", "depth 2: 9", "total: 13"]
    assert "colors 0,0,0: 1" in lines
    assert "colors 1,1,0: 2" in lines


def test_enumerate_fundamental(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lam={1: 1})
    assert main(["--config", cfg, "enumerate", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["depth 0: 1", "depth 1: 1", "depth 2: 2", "total: 4"]


# sha256 of the whole enumerate output, recorded with the sparse operators
# that preceded the dense-row kernel: (family, word, lambda, depth, digest)
ENUMERATE_DIGESTS = [
    ("A1", (2, 1, 3), None, 14, "bfe44bd1505c52f7a745b046fe580de73bf11ec2dfffd7eae56fb9588c7c1ed9"),
    ("A1", (2, 1, 3), {1: 1}, 10, "bcccb77df26ee6e2f1966b424406d2299fdda1c5978b7102fbff7a4d51d8f362"),
    ("C1", (1, 2, 3), None, 9, "fd45a12b3d799db4bf354aa34abd45289325e1b54ed11c1099a65d863237a2c1"),
    ("D2", (1, 2, 3), {1: 1, 2: 1}, 8, "ab8afe846675c331d25a31eb223cb9bc3a0843cc610dbacafee470a46d79a757"),
    ("A2", (3, 2, 1), {1: 1, 2: 1}, 9, "b89a76a9b1ec671f4b254c3baf7064cb019bf166e815236585f84d14b2c194a5"),
    ("D2", (2, 1, 3), {3: 2}, 9, "1003487cec8bc3440fe92aa1e369f2429d61a9e3002f13d95e72fbeb562972dd"),
    ("C1", (3, 2, 1), None, 9, "fd45a12b3d799db4bf354aa34abd45289325e1b54ed11c1099a65d863237a2c1"),
]


def test_enumerate_matches_golden_outputs(tmp_path, capsys):
    for family, word, lam, depth, want in ENUMERATE_DIGESTS:
        cfg = write_cfg(tmp_path, family=family, word=word, lam=lam)
        assert main(["--config", cfg, "enumerate", "--depth", str(depth)]) == 0
        out = capsys.readouterr().out
        if depth == 14:
            counts = [1, 3, 9, 21, 48, 99, 198, 375, 693, 1236, 2160, 3681, 6168, 10140, 16434]
            assert out.splitlines()[:16] == [
                *(f"depth {d}: {c}" for d, c in enumerate(counts)), "total: 41266"]
        assert hashlib.sha256(out.encode()).hexdigest() == want, (family, word, lam, depth)


# ----------------------------------------------------------------------------------
# epsilon-star
# ----------------------------------------------------------------------------------


def test_epsilon_star_both_methods(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, "epsilon-star", "--vector", "[3,3,2,3,2,1]"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines == [
        "k=1: forms=1 oracle=1",
        "k=2: forms=3 oracle=3",
        "k=3: forms=0 oracle=0",
    ]


def test_epsilon_star_single_color_forms_only(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(
        ["--config", cfg, "epsilon-star", "--vector", "[3,3,2,3,2,1]",
         "--k", "2", "--method", "forms"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "k=2: forms=3"


def test_epsilon_star_forms_refuses_a_negative_entry(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, "epsilon-star", "--vector", "[-1]", "--method", "forms"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: vector has negative entries\n"


def test_epsilon_star_forms_refuses_a_provable_non_member(tmp_path, capsys):
    # outside the limit crystal (the oracle refuses it too); the starred value
    # printed for it used to depend on the closure window
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, "epsilon-star", "--vector", "[1,2,0,3]", "--method", "forms"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: vector is outside the limit crystal: "
                            "x[1,1] + x[1,3] - x[2,2] evaluates to -1\n")
    assert main(["--config", cfg, "epsilon-star", "--vector", "[1,2,0,3]",
                 "--method", "oracle"]) == 2


@pytest.mark.parametrize("family,word", [("A2", (2, 1, 3)), ("D2", (1, 2, 3))])
def test_epsilon_star_forms_answers_every_member(tmp_path, capsys, family, word):
    ctx = Context(family, 3, word)
    ops = CrystalOps(ctx, None)
    rng = random.Random(3)
    cfg = write_cfg(tmp_path, family=family, word=word)
    for _ in range(12):
        x = random_reachable(ops, rng, 8)
        vector = "[" + ",".join(map(str, x.to_tuple(max(x.max_pos(), 1)))) + "]"
        assert main(["--config", cfg, "epsilon-star", "--vector", vector,
                     "--method", "forms"]) == 0, vector
        want = [f"k={k}: forms={epsilon_star_oracle(ctx, x, k)}" for k in ctx.colors()]
        assert capsys.readouterr().out.splitlines() == want


# Fixed vectors for the query digests: across the grid each is a member in
# some cases and refused in others.
QUERY_VECTORS = ["[0,1]", "[1,1,1,2,2,1]", "[1,2,0,3]", "[3,3,2,3,2,1]"]
QUERY_COMMANDS = [["check"], ["epsilon-star", "--method", "forms"],
                  ["epsilon-star", "--method", "both"]]


def query_transcript(cfg, capsys) -> tuple[str, list[int]]:
    """Exit code, stdout and stderr of every query command on every fixed
    vector, concatenated, and the exit codes of ``check``."""
    parts, check_rcs = [], []
    for vector in QUERY_VECTORS:
        for command in QUERY_COMMANDS:
            rc = main(["--config", cfg, command[0], "--vector", vector, *command[1:]])
            captured = capsys.readouterr()
            parts.append(f"{' '.join(command)} {vector}\nrc={rc}\n{captured.out}{captured.err}")
            if command == ["check"]:
                check_rcs.append(rc)
    return "".join(parts), check_rcs


# sha256 of ``query_transcript`` for each acceptance-grid word without a
# weight and at lambda = omega_1, recorded while membership still evaluated
# every decoded form: a query must answer byte for byte as it did then.
QUERY_DIGESTS = {
    ("A1", "213", None): "c7c1a1b8c9b1844d8f6e382ca44550874e73abcce17c99a57097f18d20a25b99",
    ("A1", "213", 1): "e6da7491919d90bd3b73237a16a66a111d702f82bf1648fec7c3e14341ff7138",
    ("A1", "123", None): "732e49c806ea59793037012df692885e075b2359ddc9b8979b3c575152e73f2c",
    ("A1", "123", 1): "e47b7c89e2e5bef9793a3014e5398051489016555f42996e15a7098a58a4585d",
    ("A2", "213", None): "08bc73b7d953f686dc2bbfa25687d0d9571a55317c8090fccb638c054c2b65f7",
    ("A2", "213", 1): "affd33f7ba59402dce9e6915f8c98c76d59e09452fdf0c697a3879720ecbca9e",
    ("A2", "321", None): "93efd980f02405f7da091b31b0b89bff3d1522cbdf78004140aae6c623aef7b8",
    ("A2", "321", 1): "a3314e1505c3130572ba01aae0c0575d8701602cd3bbf49559a6a7d51d891559",
    ("C1", "123", None): "8e874c22d2ec4568aad6d4290485b39f13e8c9820fc9faa8557f29821955bf22",
    ("C1", "123", 1): "63537f77718177e93e8d7911e63b7ca57753a798f77bb78e8f46458505aa3107",
    ("C1", "321", None): "4626d9546e939a868f3ef5ec188ccd4f03abb00d45a7388c193665f024ab8971",
    ("C1", "321", 1): "88698192a3a56ca99171859909f15a7ad9f82769913d6547d4012c0235ece529",
    ("D2", "123", None): "e7f5e13c20218f6462188c91df181ccd458e0d61b702deafde0813b9cdb3a6bb",
    ("D2", "123", 1): "5f41b6f0caae6471520adb5633bf2d4b2b9caba73428db283b1e275f26de0368",
    ("D2", "213", None): "8b31e55134dd330cea5a3e74c3bae9142b8b92f70b5b1d1736cce871b93c71f3",
    ("D2", "213", 1): "8b3c6cb20844921b2bf21b0bb2ef0fa6e3061b6e71c424395002c80fea2302c4",
}


def test_check_and_epsilon_star_match_golden_digests(tmp_path, capsys):
    rcs = set()
    for (family, word, omega), want in QUERY_DIGESTS.items():
        lam = None if omega is None else {omega: 1}
        cfg = write_cfg(tmp_path, family=family, word=tuple(map(int, word)), lam=lam)
        text, check_rcs = query_transcript(cfg, capsys)
        rcs.update(check_rcs)
        got = hashlib.sha256(text.encode()).hexdigest()
        assert got == want, (family, word, lam)
    assert len(QUERY_DIGESTS) == 16 and rcs == {0, 1}  # members and non-members


def test_epsilon_star_rejects_non_member(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(
        ["--config", cfg, "epsilon-star", "--vector", "[0,0,0,1]", "--method", "oracle"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


# ----------------------------------------------------------------------------------
# crosscheck
# ----------------------------------------------------------------------------------


def test_crosscheck_reports_match(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, "crosscheck", "--depth", "2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["matched"] is True
    assert report["lambda"] is None
    assert report["closure"] == 13


def test_crosscheck_with_weight_and_window(tmp_path, capsys):
    cfg = write_cfg(tmp_path, lam={1: 1})
    rc = main(["--config", cfg, "crosscheck", "--depth", "2", "--window", "7"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["matched"] is True
    assert report["lambda"] == {"1": 1}
    assert report["window"] == 7


def test_crosscheck_makes_one_feasibility_pass_even_on_a_mismatch(tmp_path, capsys,
                                                                  monkeypatch):
    # a matrix with its rows dropped admits the whole box, so feasible_only
    # mismatches appear; no second pass is tried
    restriction, feasible_tuples = ClosureResult.restriction, oracle._feasible_tuples
    calls = []

    def no_rows(family, support):
        coeffs, consts, starts = restriction(family, support)
        return coeffs[:0], consts[:0], [0] * len(starts)

    def counted(*args):
        calls.append(args)
        return feasible_tuples(*args)

    monkeypatch.setattr(ClosureResult, "restriction", no_rows)
    monkeypatch.setattr(oracle, "_feasible_tuples", counted)
    report = crosscheck_membership(Context("A1", 3, (2, 1, 3)), {1: 1}, 2)
    assert len(calls) == 1
    assert report["matched"] is False and report["active_forms"] == 0
    assert report["feasible"] == report["candidates"] == 28 and report["closure"] == 4
    assert {m["side"] for m in report["mismatches"]} == {"feasible_only"}
    assert report["margin_periods"] == 1 and report["window_sensitive"] is False

    calls.clear()
    cfg = write_cfg(tmp_path, lam={1: 1})
    rc = main(["--config", cfg, "crosscheck", "--depth", "2"])
    assert rc == 1 and len(calls) == 1
    assert {k: v for k, v in json.loads(capsys.readouterr().out).items() if k != "seconds"} == {
        k: v for k, v in report.items() if k != "seconds"}


def test_crosscheck_node_cap_names_its_numbers(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "5")
    # the weight omega_1 keeps the operator BFS at 4 nodes, under the cap
    cfg = write_cfg(tmp_path, lam={1: 1})
    rc = main(["--config", cfg, "crosscheck", "--depth", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    # support depth * n = 6, closure bound 6 + 1 period of 3
    assert captured.err.startswith("error: inequality generation hit the node cap of 5 "
                                   "forms (support 6, closure bound 9)")


@pytest.mark.parametrize("depth", [20000, 200000])
def test_crosscheck_refuses_a_huge_box_without_counting_it(tmp_path, capsys, depth):
    # the box at depth 1 already passes the limit: refused there, before its
    # count (over 4300 digits at depth 20000) is ever built
    cfg = write_cfg(tmp_path)
    t0 = time.perf_counter()
    rc = main(["--config", cfg, "crosscheck", "--depth", str(depth)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: crosscheck needs more than 150000 candidates "
                            f"(support {3 * depth}, depth {depth})\n")
    assert elapsed < 0.5


@pytest.mark.parametrize("cap", ["abc", "1e3", "0", "-5"])
@pytest.mark.parametrize("argv", [
    ["check", "--vector", "[0, 1]"],
    ["enumerate", "--depth", "2"],
    ["gen-ineq", "--mode", "sprime", "--window", "4"],
], ids=["check", "enumerate", "gen-ineq"])
def test_node_cap_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, argv, cap):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", cap)
    cfg = write_cfg(tmp_path)
    rc = main(["--config", cfg, *argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: CRYSTAL_POLY_NODE_CAP must be a positive integer, "
                            f"got {cap!r}\n")


@pytest.mark.parametrize("family,word", [("A1", (2, 1, 3)), ("C1", (1, 2, 3)),
                                         ("A2", (2, 1, 3)), ("D2", (1, 2, 3))])
def test_crosscheck_takes_a_multiplicity_past_int64(tmp_path, capsys, family, word):
    # constants of 10**20 and 2**40 both exceed any linear part at depth 3,
    # so both weights decide every candidate alike
    reports = []
    for mult in (10 ** 20, 2 ** 40):
        cfg = write_cfg(tmp_path, family=family, word=word, lam={1: mult})
        assert main(["--config", cfg, "crosscheck", "--depth", "3"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    big, small = reports
    assert big["matched"] and big["lambda"] == {"1": 10 ** 20}
    for key in ("active_forms", "feasible", "closure", "candidates"):
        assert big[key] == small[key], key


def test_operator_bfs_node_cap_names_its_numbers(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)
    for cap, argv, msg in [
        # levels 0..7 keep 754 nodes, level 8 holds 693
        ("1000", ["enumerate", "--depth", "14"], "at level 8 of depth 14: 1000 nodes kept"),
        # levels 0 and 1 keep 4 nodes, level 2 holds 9
        ("5", ["crosscheck", "--depth", "2"], "at level 2 of depth 2: 5 nodes kept"),
    ]:
        monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", cap)
        rc = main(["--config", cfg, *argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (f"error: operator BFS hit the node cap of {cap} nodes "
                                f"(CRYSTAL_POLY_NODE_CAP) {msg}\n")


@pytest.mark.parametrize("family,word,lam", [("A1", (2, 1, 3), None), ("C1", (1, 2, 3), {1: 1})])
def test_crosscheck_at_depth_zero_scans_the_empty_box(tmp_path, capsys, family, word, lam):
    cfg = write_cfg(tmp_path, family=family, word=word, lam=lam)
    rc = main(["--config", cfg, "crosscheck", "--depth", "0"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["matched"] is True
    assert report["support_positions"] == 0
    assert report["candidates"] == report["feasible"] == report["closure"] == 1


# sha256 of the crosscheck --depth 3 report, "seconds" dropped and keys sorted,
# for each acceptance-grid word without a weight and at lambda = omega_1: it
# pins the compiled matrix through active_forms and the feasible count, not
# only the match.
CROSSCHECK_DIGESTS = {
    ("A1", "213", None): "c669e25d5af259a2c7442ef434b576381fb468b99c4e3114a035126cf6962e7b",
    ("A1", "213", 1): "346c08c59fd21bbe619f72f728143115209d4981afc75d9d558559d5ce8e567e",
    ("A1", "123", None): "353dec9456b7c0cac61ffbf1b9b103f86e0e687c6e55d04174e7d61b489c4a90",
    ("A1", "123", 1): "c90f378ddd77146913d51a13e7eec03f2fd43dc105f8321ea9d2d951dd6ac04b",
    ("A2", "213", None): "268e3d9c5cec6be186ac6ac2e38925c2fc58c24b308a09d9b12e3de54c3ac551",
    ("A2", "213", 1): "2f6d1576bb011d5fb7383fe95ae5738648b87eb79e6f193cfafb710a80aefe24",
    ("A2", "321", None): "a471d569503ea4aac4426523071ce264ac09d2d247d5cb8c49166b0e344a38a3",
    ("A2", "321", 1): "7fb4d61aac7d081bcc917cffe1f9e866bd576b1d0e5c77e270bb538004f0ce89",
    ("C1", "123", None): "6b8f6775b92e7cf57611f121c67b77340272cef964b390161a2bccc6b7b9ee04",
    ("C1", "123", 1): "385d43a2a342e10a5677689f7be6dce50658f6429a5a9cef85a4d594ec4b35cb",
    ("C1", "321", None): "e5842a672ab1d77ea52b101ee8e3b44ad38ef1f95860d2b1bbb4dcad2b7296bf",
    ("C1", "321", 1): "c82576d121dce434b6b68b892a7dbadc969087fd7a37e3e75a1a1d948e04163d",
    ("D2", "123", None): "001d45ee98f634c52963f55e4bb7d502435cb3cc2a835e122c852ed87c484c1c",
    ("D2", "123", 1): "50ffd00fe6aa748ea6b1264fce80b15de68871b56f69560a4dfee37669426975",
    ("D2", "213", None): "89d03961f7e27621b58492570b5641b0e80930697f2415045c021ec8b18fa059",
    ("D2", "213", 1): "7f2dd4f3d26201adaf75472246a3a44c9efe3dde8a77bb5f0d3a45835d2cef2e",
}


def test_crosscheck_matches_golden_digests(tmp_path, capsys):
    for (family, word, omega), want in CROSSCHECK_DIGESTS.items():
        lam = None if omega is None else {omega: 1}
        cfg = write_cfg(tmp_path, family=family, word=tuple(map(int, word)), lam=lam)
        assert main(["--config", cfg, "crosscheck", "--depth", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["seconds"]
        got = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert got == want, (family, word, lam)


# ----------------------------------------------------------------------------------
# golden gen-ineq output
# ----------------------------------------------------------------------------------

# sha256 of the gen-ineq JSON at window 4 for each acceptance-grid word: the
# limit modes without a weight, the weight modes at lambda = omega_1.  A
# refactor must keep this output byte for byte; a change that means to alter
# it re-records the digests and says why.
GEN_INEQ_DIGESTS = {
    ("A1", "213", "sprime"): "3b40890b74ef2c906b0e7d7cdc5a99115a250c2cefb3d5b93590ef1e5f90db78",
    ("A1", "213", "comb-limit"): "e44eab351838c768c729b9c51ba9dd52493a10301e69415b7cfeb3a9987984a9",
    ("A1", "213", "shat"): "6157bb370b0def17645bbd37caa020ac8e20e82aab5296a36c9494514b9399e0",
    ("A1", "213", "comb"): "e559ee8d97dee1070586ada412557252dcbfc68adf2b163abeb98221c5a2ac74",
    ("A1", "123", "sprime"): "696bac93da559901909677805914e4d59a6a6504ce7568595c5a0dedceca0afa",
    ("A1", "123", "comb-limit"): "33d90c060b34f47c02f9824f5bf234ebf037a63f856d478b916d7630bd273f32",
    ("A1", "123", "shat"): "0131140b48cc87f33ae687e9e7ab8b2d7f7072eab4409295c4e2b1e4a5646f36",
    ("A1", "123", "comb"): "2f2a8a77c6881dfcc8e862d2fe8abdc49a403bb7d25dfa9288cc8eefc0e7989c",
    ("A2", "213", "sprime"): "7a95e73053188deceb65ede6c7ce977d9ce24676ce6ef3691d036e1af878a7db",
    ("A2", "213", "comb-limit"): "cc58fb9536364c5516d2db53dbecadf504ff8c39d822db021bbf5d3d4ab1d148",
    ("A2", "213", "shat"): "6627af59d2e0925797ff5e1a303c160bd5f80661800298315f9fd1a09b94cb65",
    ("A2", "213", "comb"): "8389b11a585a83a8d202cf90cf00f06732237fb8d72e60020e3677f950393065",
    ("A2", "321", "sprime"): "c15b8c03c98492444c02a41b2d69b97a3f58e2e2d5902d61489d89fe2162994d",
    ("A2", "321", "comb-limit"): "08a827dad7acaf521acf427901ee9ec7477a77c9b8c085199de490ba262ff419",
    ("A2", "321", "shat"): "5397634dfa4ea54df9c530f2cbc2fe409979f2fb16451850503453639a7fe876",
    ("A2", "321", "comb"): "749a69eecdd65ce1d0cff458987c70c7b6c1087a914e81856b8dfe323b4bd8da",
    ("C1", "123", "sprime"): "4746ab6c1e594e4d6fc9e7f4fbe3b24a95c279b8e28a5cbb2ceccbae23ad6bf8",
    ("C1", "123", "comb-limit"): "585beecfefd26e3026d6949f41265898cd3c9090676f1e5b683c9449ec40aa53",
    ("C1", "123", "shat"): "6e77192cd6e1b406c010a06f07a54603f507e7a268bfbe978e9cf9fcd76cc94c",
    ("C1", "123", "comb"): "2a5010229a3fd250239f0edab4219e2fc6f9066568a2cb54156a6939b7da1090",
    ("C1", "321", "sprime"): "afe0c58925e87037bd7374f7f48e7d27a231cb4984ce8359a1b6af5cb2eefb29",
    ("C1", "321", "comb-limit"): "c3c12533662427d6c36d27e48dbcaae7934029769f89e98a42cf7da3f295adab",
    ("C1", "321", "shat"): "ebd7c2375be85ed5172a18167e66ee92885822df454215f9ce0c13a7794c32c5",
    ("C1", "321", "comb"): "d5539fc243cc5a386880f77c351f4efa5ffefae3aa2f9a6726e0b1d8d30674dd",
    ("D2", "123", "sprime"): "081f69c1e4b2f2a394f2cdd38d22f82e5f5bd2b5945cfec843441ea0a02b8d7c",
    ("D2", "123", "comb-limit"): "6da04fd5a17cf36531c3f2ec346622cb648b8af18ed6f0e41cd5bbc63929bfe0",
    ("D2", "123", "shat"): "99fda93d9c13709c931e23a8a5b3cd61f99c8b7e9606f81db2c0cfcabc6fca1c",
    ("D2", "123", "comb"): "1cbadfba55ccb92441ab8a6a74acc16e111ef2dcf98cc537e011eee7be142f35",
    ("D2", "213", "sprime"): "e8865f3e584949528675315248f39bbc101dca50bbc12e091c6e45bf778d8c04",
    ("D2", "213", "comb-limit"): "a78796f138de3fedebb61aea0dc521d845bd01606c520c7cea2f67c2655cac42",
    ("D2", "213", "shat"): "69fffda7be2a8bef33e46dcad8788ac684f2876d7c9b078bf100e801f1c82730",
    ("D2", "213", "comb"): "5b050cfe025b7af2ffbf15e00e11834fc5b67b156bf9485daf13c5d0b2b5ac3d",
}


def test_gen_ineq_matches_golden_digests(tmp_path, capsys):
    for (family, word, mode), want in GEN_INEQ_DIGESTS.items():
        lam = {1: 1} if mode in ("shat", "comb") else None
        cfg = write_cfg(tmp_path, family=family, word=tuple(map(int, word)), lam=lam)
        assert main(["--config", cfg, "gen-ineq", "--mode", mode, "--window", "4"]) == 0
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == want, (family, word, mode)


# ----------------------------------------------------------------------------------
# other words and one subprocess sanity run
# ----------------------------------------------------------------------------------


def test_cli_other_family(tmp_path, capsys):
    cfg = write_cfg(tmp_path, family="C1", word=(1, 2, 3), lam={2: 5})
    rc = main(["--config", cfg, "gen-ineq", "--mode", "comb", "--k", "2", "--window", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["count"] == 6
    assert "2*x[1,1] - x[1,2] + 5" in [f["text"] for f in payload["forms"]]


def test_cli_subprocess_entry_point(tmp_path):
    cfg = write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "crystal_poly.cli", "--config", cfg,
         "enumerate", "--depth", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[:2] == ["depth 0: 1", "depth 1: 3"]


# Runs the CLI on its arguments, then reports on stderr whether numpy was
# imported, the package modules loaded, and the exit code.
_IMPORT_PROBE = """
import sys
from crystal_poly.cli import main
rc = main(sys.argv[1:])
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("crystal_poly."))
print("numpy" in sys.modules, ",".join(loaded), rc, file=sys.stderr)
"""

_CLOSURES = "cartan,cli,crystal,inequalities"
_SHAPES = _CLOSURES + ",shapes"
_ORACLE = _CLOSURES + ",oracle"


@pytest.mark.parametrize("argv, loaded", [
    (["gen-ineq", "--mode", "sprime", "--window", "4"], _CLOSURES),
    (["gen-ineq", "--mode", "shat", "--window", "4"], _CLOSURES),
    (["gen-ineq", "--mode", "comb", "--k", "1", "--window", "6"], _SHAPES),
    (["gen-ineq", "--mode", "comb-limit", "--window", "6"], _SHAPES),
    (["check", "--vector", "[0, 1]"], _CLOSURES),
    (["enumerate", "--depth", "3"], _ORACLE),
    (["epsilon-star", "--vector", "[1, 1]"], _ORACLE),
    (["epsilon-star", "--vector", "[1, 1]", "--method", "oracle"], _ORACLE),
    (["epsilon-star", "--vector", "[1, 1]", "--method", "forms"], _CLOSURES),
    (["crosscheck", "--depth", "3"], _ORACLE),
], ids=["gen-ineq-sprime", "gen-ineq-shat", "gen-ineq-comb", "gen-ineq-comb-limit", "check",
        "enumerate", "epsilon-star", "epsilon-star-oracle", "epsilon-star-forms", "crosscheck"])
def test_no_cli_command_imports_numpy(tmp_path, argv, loaded):
    # each command imports the package modules it runs and no other
    cfg = write_cfg(tmp_path, lam={1: 1})
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, "--config", cfg, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == f"False {loaded} 0"


def test_no_package_module_imports_numpy():
    # any import statement, at module level or inside a function
    package = Path(oracle.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "numpy" for name in names), path.name


# ----------------------------------------------------------------------------------
# malformed input exits 2
# ----------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg_kw, argv",
    [
        ({"word": (1, 1, 3)}, ["enumerate", "--depth", "1"]),
        ({}, ["check", "--vector", "abc"]),
        ({}, ["epsilon-star", "--vector", "[0,1"]),
        ({"lam": {4: 1}}, ["check", "--vector", "[0,1]"]),
    ],
    ids=["bad-word", "vector-name", "vector-syntax", "lambda-color-outside"],
)
def test_malformed_input_exits_2(tmp_path, capsys, cfg_kw, argv):
    cfg = write_cfg(tmp_path, **cfg_kw)
    assert main(["--config", cfg, *argv]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


BASE_CFG = {"family": "A1", "n": 3, "iota_word": [2, 1, 3]}


@pytest.mark.parametrize(
    "cfg, argv, says",
    [
        (None, ["enumerate", "--depth", "1"], "cannot read config"),
        ({"family": "A1", "iota_word": [2, 1, 3]}, ["enumerate", "--depth", "1"], "lacks n"),
        ({"family": "A1", "n": 3}, ["enumerate", "--depth", "1"], "lacks iota_word"),
        (BASE_CFG, ["gen-ineq", "--k", "7", "--window", "4"], "--k 7"),
        (BASE_CFG, ["epsilon-star", "--vector", "[1]", "--k", "9"], "--k 9"),
        (BASE_CFG, ["enumerate", "--depth", "-1"], "--depth"),
        (BASE_CFG, ["crosscheck", "--depth", "-2"], "--depth"),
        (BASE_CFG, ["crosscheck", "--depth", "1", "--window", "-1"], "--window"),
        (BASE_CFG, ["crosscheck", "--depth", "7"], "more than 150000 candidates"),
        ({**BASE_CFG, "iota_word": 5}, ["enumerate", "--depth", "1"], "iota_word"),
        ({**BASE_CFG, "n": None}, ["enumerate", "--depth", "1"], "n must"),
        ({**BASE_CFG, "lambda": [1]}, ["enumerate", "--depth", "1"], "lambda"),
        ({**BASE_CFG, "lambda": {"1": None}}, ["enumerate", "--depth", "1"], "lambda"),
        (BASE_CFG, ["check", "--vector", "{(1,7): 1}"], "color 7 must lie in 1..3"),
        (BASE_CFG, ["check", "--vector", "{(1,1,1): 1}"], "got (1, 1, 1)"),
        (BASE_CFG, ["check", "--vector", "[None]"], "got None"),
        (BASE_CFG, ["check", "--vector", "[1.5]"], "got 1.5"),
        (BASE_CFG, ["check", "--vector", "{(0,1): 1}"], "occurrence 0 must be at least 1"),
        (BASE_CFG, ["check", "--vector", "{(1,1): 1, 2: 5}"], "position 2 is given twice"),
        ({**BASE_CFG, "n": True}, ["check", "--vector", "[0,1]"], "n must be an integer"),
        ({**BASE_CFG, "iota_word": [True, 2, 3]}, ["check", "--vector", "[0,1]"],
         "iota_word must be a list of integers"),
        ({**BASE_CFG, "lambda": {"1": True}}, ["check", "--vector", "[0,1]"],
         "lambda must map colors to integers"),
        ({**BASE_CFG, "lambda": {"x": 1}}, ["check", "--vector", "[0,1]"],
         "lambda key 'x' is not an integer color"),
        ({**BASE_CFG, "lambda": {"1": 1, "01": 2}}, ["check", "--vector", "[0,1]"],
         "lambda color 1 is given twice"),
        ('{"family": "A1", "n": 3, "iota_word": [2, 1, 3], "lambda": {"1": 1, "1": 2}}',
         ["gen-ineq", "--mode", "comb", "--k", "1", "--window", "3"],
         "config key '1' is given twice"),
        ('{"family": "A1", "n": 3, "n": 3, "iota_word": [2, 1, 3]}',
         ["enumerate", "--depth", "1"], "config key 'n' is given twice"),
    ],
    ids=["config-missing", "config-lacks-n", "config-lacks-word", "gen-ineq-k-outside",
         "epsilon-star-k-outside", "enumerate-negative-depth", "crosscheck-negative-depth",
         "crosscheck-negative-window", "crosscheck-over-candidate-limit",
         "config-word-not-a-list", "config-n-null", "config-lambda-not-an-object",
         "config-lambda-value-null", "vector-color-outside", "vector-key-triple",
         "vector-entry-none", "vector-entry-float", "vector-occurrence-zero",
         "vector-position-repeated", "config-n-true", "config-word-entry-true",
         "config-lambda-value-true", "config-lambda-key-not-a-color",
         "config-lambda-color-repeated", "config-lambda-key-repeated",
         "config-key-repeated"],
)
def test_unusable_input_exits_2(tmp_path, capsys, cfg, argv, says):
    path = tmp_path / "cfg.json"
    if cfg is not None:  # a string is the config's text as given
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and says in captured.err
    assert captured.out == ""
