import hashlib
import io
import json
import math
import time

import pytest

from oracles import families_from_json
from flatiso import bieberbach, search
from flatiso.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_tables_id_1():
    code, out, err = invoke("tables", "--id", "1")
    assert code == 0 and not err
    assert "n = 7" in out
    assert "[3,1,1,1,0,1,0]  P4=3" in out


def test_enumerate_json_round_trip():
    code, out, err = invoke("enumerate", "--k", "3", "--n", "8", "--format", "json")
    assert code == 0 and not err
    fams = families_from_json(out)
    cfg = search.SearchConfig(k=3, n=8)
    assert fams == search.enumerate_families(cfg)
    payload = json.loads(out)
    assert payload["filters"]["require_q0_zero"] is True


# sha256 of stdout: these outputs must stay byte for byte as they are
ENUMERATE_DIGESTS = [
    (("--k", "3", "--n", "9", "--n-max", "11", "--format", "json"),
     "076f54018c640b728d2ad1d3de396b50a8e3a6ccd7c7ee023c3fc634494864b3"),
    (("--k", "3", "--n", "9", "--n-max", "11", "--format", "csv"),
     "49077d5082623e910f4907d4ad166db185159de2f1fddcc34089238e0c0861a3"),
    (("--k", "4", "--n", "8", "--format", "json"),
     "deb9300e0293a79f4500d63d0cd994a7a2d8140409edbf0ce5773a9d6b29c1ff"),
]


@pytest.mark.parametrize("args, digest", ENUMERATE_DIGESTS,
                         ids=["k3-json", "k3-csv", "k4-json"])
def test_enumerate_output_bytes(args, digest):
    code, out, err = invoke("enumerate", *args)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_csv():
    code, out, _ = invoke("enumerate", "--k", "3", "--n", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,n,family,q,P2,P3,P4,betti"


def test_analyze():
    code, out, _ = invoke("analyze", "--k", "3", "--rep", "2,2,2,0,0,2,0")
    assert code == 0
    assert "pattern: 0,0,3,0,3,0,1,0,1" in out
    assert "betti: 1,0,4,8,6,8,4,0,1" in out
    assert "kahler class: kahler" in out
    assert "minimal generators: 13" in out


def test_analyze_large_rank_singletons():
    # one Walsh-Hadamard transform per invariant, not one character sum per element
    k = 14
    start = time.perf_counter()
    code, out, err = invoke("analyze", "--k", str(k), "--rep",
                            ",".join(["1"] * k + ["0"] * ((1 << k) - 1 - k)))
    assert time.perf_counter() - start < 10
    assert code == 0 and not err
    lines = out.splitlines()
    # f fixes the k - |f| singletons outside it, so c_s = binomial(k, s)
    assert lines[2] == "pattern: " + ",".join(str(math.comb(k, s)) for s in range(k + 1))
    assert lines[3] == "betti: 1" + ",0" * k
    assert lines[4] == "prim: 1" + ",0" * k
    assert "minimal generators: 1" in lines


def test_flip_applicable():
    code, out, _ = invoke("flip", "--k", "3", "--rep", "2,2,2,0,0,2,0")
    assert code == 0
    assert "u = 1" in out and "flipped: [3,1,2,0,1,1,0]" in out


def test_flip_inapplicable_message():
    code, out, _ = invoke("flip", "--k", "3", "--rep", "3,1,1,1,0,1,0")
    assert code == 0
    assert out.strip() == "inapplicable: u = -1/2"


def test_flip_custom_pair():
    code, out, _ = invoke("flip", "--k", "3", "--rep", "3,1,1,1,0,1,0", "--pair", "1,3")
    assert code == 0
    assert "u = -1" in out


def test_build_main_and_verify(tmp_path):
    prefix = str(tmp_path / "pair")
    code, out, _ = invoke("build-main", "--k", "3", "--n", "8", "--out", prefix)
    assert code == 0
    code, out, _ = invoke("verify", "--a", f"{prefix}-gamma.bgf",
                          "--b", f"{prefix}-gammaprime.bgf")
    assert code == 0
    assert "Sunada isospectral: True" in out
    assert "not isomorphic (ΣP differs: 13 vs 16)" in out
    assert "torsion-free" in out


def test_build_24_round_trip(tmp_path):
    path = str(tmp_path / "g5.bgf")
    code, out, _ = invoke("build-24", "--j", "5", "--out", path)
    assert code == 0
    group = bieberbach.read_bgf(path)
    assert group == bieberbach.construct_family24(5)


NONE_FOUND = "no torsion-free translation assignment found"


def test_find_translations_cli(tmp_path):
    path = str(tmp_path / "found.bgf")
    code, out, _ = invoke("find-translations", "--k", "3",
                          "--rep", "2,2,2,0,0,2,0", "--out", path)
    assert code == 0 and "wrote" in out
    assert bieberbach.is_torsion_free(bieberbach.read_bgf(path)).ok
    code, out, _ = invoke("find-translations", "--k", "1", "--rep", "2",
                          "--out", str(tmp_path / "none.bgf"))
    assert code == 0
    assert NONE_FOUND in out
    assert not (tmp_path / "none.bgf").exists()


def test_find_translations_cli_minus_identity(tmp_path):
    # k=1, 2 chi_1: the generator acts as -Id, which no search can mend
    code, out, _ = invoke("find-translations", "--k", "1", "--rep", "2",
                          "--out", str(tmp_path / "none.bgf"))
    assert code == 0
    assert out == (NONE_FOUND + ": some nonzero element acts as -Id, "
                   "so no Bieberbach group has this holonomy\n")


def test_find_translations_cli_wide_search(tmp_path):
    # chi_1 + chi_2 + chi_12: no element acts as -Id, and no assignment is torsion-free
    code, out, _ = invoke("find-translations", "--k", "3", "--rep", "1,1,0,1,0,0,0",
                          "--out", str(tmp_path / "none.bgf"))
    assert code == 0
    assert out == NONE_FOUND + "\n"
    assert not (tmp_path / "none.bgf").exists()


def test_compare_rings_verdicts():
    code, out, _ = invoke("compare-rings", "--k", "3",
                          "--rep-a", "2,2,2,0,0,2,0", "--rep-b", "3,1,2,0,1,1,0")
    assert code == 0
    assert out.splitlines()[-1] == "rings: not isomorphic (ΣP differs: 13 vs 16)"
    code, out, _ = invoke("compare-rings", "--k", "3",
                          "--rep-a", "2,2,2,0,0,2,0", "--rep-b", "2,2,2,0,0,2,0")
    assert code == 0
    assert "indistinguishable by P-counts" in out.splitlines()[-1]
    code, out, _ = invoke("compare-rings", "--k", "3",
                          "--rep-a", "0,0,0,0,1,2,4", "--rep-b", "0,0,0,1,1,1,4")
    assert code == 0
    assert out.splitlines()[-1] == (
        "rings: not isomorphic as graded algebras (P_2 differs: 7 vs 6); "
        "indistinguishable by total P-count (8)")


def test_error_paths_single_line():
    code, out, err = invoke("analyze", "--k", "3", "--rep", "banana")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")

    code, out, err = invoke("analyze", "--k", "3", "--rep", "1,2")
    assert code == 1 and out == ""

    code, out, err = invoke("verify", "--a", "/nonexistent.bgf", "--b", "/nonexistent.bgf")
    assert code == 1 and out == ""

    code, out, err = invoke("enumerate", "--k", "3", "--n", "9", "--bogus-flag")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_exit_zero_means_no_diagnostics():
    code, out, err = invoke("analyze", "--k", "3", "--rep", "3,1,1,1,0,1,0")
    assert code == 0 and err == ""


@pytest.mark.parametrize("rep, count", [("0,0,0,0,0,0,0", 7), ("1,0,0,0,0,0,0,0,0", 9)])
def test_with_q0_count_error_counts_q0(tmp_path, rep, count):
    code, out, err = invoke("find-translations", "--k", "3", "--rep", rep, "--with-q0",
                            "--out", str(tmp_path / "x.bgf"))
    assert code == 1 and out == ""
    assert err == f"error: expected 8 multiplicities (q_0 first) for k=3, got {count}\n"


def test_flip_pair_non_ascii_digit():
    # "²" is a digit to str.isdigit but not to int()
    code, out, err = invoke("flip", "--k", "3", "--rep", "2,2,2,0,0,2,0", "--pair", "²,1")
    assert code == 1 and out == ""
    assert err == "error: malformed group element '²': expected digit string like 13\n"


@pytest.mark.parametrize("argv", [("tables", "--id", "1"), ("enumerate", "--k", "3", "--n", "7")],
                         ids=["tables", "enumerate"])
def test_workers_option_is_gone(argv):
    code, out, err = invoke(*argv, "--workers", "2")
    assert code == 2 and out == ""
    assert err == "error: unrecognized arguments: --workers 2\n"
