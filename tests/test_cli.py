"""End-to-end command-line behavior (in-process, plus one subprocess run)."""

import hashlib
import json
import subprocess
import sys

import pytest

from crystal_poly.cli import main


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


@pytest.mark.parametrize("family,word,lam", [("A1", (2, 1, 3), None), ("C1", (1, 2, 3), {1: 1})])
def test_crosscheck_at_depth_zero_scans_the_empty_box(tmp_path, capsys, family, word, lam):
    cfg = write_cfg(tmp_path, family=family, word=word, lam=lam)
    rc = main(["--config", cfg, "crosscheck", "--depth", "0"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["matched"] is True
    assert report["support_positions"] == 0
    assert report["candidates"] == report["feasible"] == report["closure"] == 1


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
        (BASE_CFG, ["crosscheck", "--depth", "7"], "1184040 candidates"),
    ],
    ids=["config-missing", "config-lacks-n", "config-lacks-word", "gen-ineq-k-outside",
         "epsilon-star-k-outside", "enumerate-negative-depth", "crosscheck-negative-depth",
         "crosscheck-negative-window", "crosscheck-over-candidate-limit"],
)
def test_unusable_input_exits_2(tmp_path, capsys, cfg, argv, says):
    path = tmp_path / "cfg.json"
    if cfg is not None:
        path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and says in captured.err
    assert captured.out == ""
