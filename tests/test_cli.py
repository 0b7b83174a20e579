import hashlib
import json
import pathlib
import random
import shlex
import sys

import numpy as np
import pytest

from mti import bqf, cli, csw, weight1
from mti.census import CSV_HEADER, census
from mti.cli import run
from mti.intmat import IntMatrix
from mti.sl2 import SL2_S, SL2_T, Sl2Matrix
from oracles import is_symplectic_by_j, random_symplectic, store_columns


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_snf_subtract_identity(capsys):
    code, out = _capture(capsys, ["snf", "--matrix", '[["10","3"],["3","1"]]', "--subtract-identity"])
    assert code == 0
    assert "[3, 3]" in out


def test_snf_json_round_trip(capsys):
    code, out = _capture(
        capsys, ["snf", "--matrix", '[["10","3"],["3","1"]]', "--subtract-identity", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["diag"] == ["3", "3"]
    assert json.loads(json.dumps(doc)) == doc


def _seeded_snf_matrices():
    # 200 matrices, every shape up to 5 x 5 among them, many entries zero
    rng = random.Random(20240811)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = [rng.choice([0, rng.randint(-30, 30), rng.randint(-3, 3)]) for _ in range(rows * cols)]
        yield [[str(x) for x in entries[i : i + cols]] for i in range(0, rows * cols, cols)]


# SHA-256 of the `snf --json` stdout of the seeded matrices, one run each,
# joined; recorded while the certificates were built beside the matrix
SNF_JSON_SHA256 = "ea6d9234b40a3d41d5cdb51f3e17aaa53980a010e90de7ac32c8add397ebe13a"


def test_snf_json_bytes_pinned(capsys):
    outs = [_capture(capsys, ["snf", "--matrix", json.dumps(m), "--json"]) for m in _seeded_snf_matrices()]
    assert {code for code, _ in outs} == {0}
    assert _sha256("".join(out for _, out in outs)) == SNF_JSON_SHA256


def test_dw(capsys):
    code, out = _capture(capsys, ["dw", "--matrix", '[["4","3"],["5","4"]]', "--prime", "3"])
    assert code == 0
    assert out.strip() == "3"


def test_dw_genus2(capsys):
    m = '[["1","0","1","0"],["0","1","0","0"],["0","0","1","0"],["0","-2","0","1"]]'
    code, out = _capture(capsys, ["dw", "--matrix", m, "--prime", "2"])
    assert code == 0
    assert out.strip() == "8"


def test_classify(capsys):
    code, out = _capture(capsys, ["classify", "--matrix", '[["1","1"],["0","1"]]', "--prime", "5"])
    assert code == 0
    assert out.strip() == "C3"
    code, out = _capture(capsys, ["classify", "--matrix", '[["1","1"],["0","1"]]', "--prime", "2"])
    assert code == 0
    assert out.strip() == "C2"


# 40 seeded words of up to six letters in S, T and T^-1, and their
# negatives: every kind of class mod 2, 3, 5 and 7 (mod 3 has no C7)
def _classify_words():
    rng = random.Random(7)
    for _ in range(40):
        a = Sl2Matrix(1, 0, 0, 1)
        for g in rng.choices([SL2_S, SL2_T, SL2_T.inverse()], k=rng.randint(0, 6)):
            a = a * g
        for b in (a, -a):
            yield [[b.a, b.b], [b.c, b.d]]


# SHA-256 of the `classify --json` stdout of the words at p = 2, 3, 5, 7,
# one run each, joined; recorded while the document was written key by key
CLASSIFY_JSON_SHA256 = "a78b52e428c920e4700392fcdeef050792f699544c280ae36cf015fcca0e5050"


def test_classify_json_bytes_pinned(capsys):
    argvs = [["--matrix", json.dumps(a), "--prime", str(p)] for a in _classify_words() for p in (2, 3, 5, 7)]
    outs = [_capture(capsys, ["classify", *argv, "--json"]) for argv in argvs]
    assert {code for code, _ in outs} == {0}
    assert {json.loads(out)["kind"] for _, out in outs} == {f"C{i}" for i in range(1, 9)}
    assert _sha256("".join(out for _, out in outs)) == CLASSIFY_JSON_SHA256


def test_homology(capsys):
    code, out = _capture(capsys, ["homology", "--matrix", '[["4","3"],["5","4"]]'])
    assert code == 0
    assert out.strip() == "Z + Z/6"


def _seeded_genus_g_matrices():
    # 4x4 and 6x6 products of transvections, each followed by a copy with one
    # entry moved by 1 that the J-product oracle finds not symplectic
    rng = random.Random(20261022)
    for g in (2, 3):
        for _ in range(10):
            m = random_symplectic(rng, g, rng.randint(2, 7))
            yield m, True
            bent = m
            while is_symplectic_by_j(bent, g):
                entries = list(m.entries)
                entries[rng.randrange(len(entries))] += rng.choice([-1, 1])
                bent = IntMatrix(m.rows, m.cols, entries)
            yield bent, False


# SHA-256 of the stdout of `dw --prime p --json` (p = 2, 3, 5) and of
# `homology --json` over the seeded matrices, each run checked and with
# --no-check, joined; recorded while is_symplectic took the products M^T J M
GENUS_G_JSON_SHA256 = {
    "dw": "a4c2f6cb9ab402eb7c0a0ef3adec0409806d0c452922da074796ad30a4335919",
    "homology": "2b0ad7918e339702dd908967f0879b6b033d79ee87380d6e86132c56c82dc62a",
}


@pytest.mark.parametrize("cmd", list(GENUS_G_JSON_SHA256))
def test_genus_g_json_bytes_pinned(cmd, capsys):
    primes = [["--prime", str(p)] for p in (2, 3, 5)] if cmd == "dw" else [[]]
    codes, outs = set(), []
    for m, symplectic in _seeded_genus_g_matrices():
        for prime in primes:
            for check in ([], ["--no-check"]):
                code, out = _capture(capsys, [cmd, "--matrix", json.dumps(m.to_rows()), *prime, "--json", *check])
                codes.add((code, symplectic or bool(check)))
                outs.append(out)
    # a refused matrix exits 1 with empty stdout; every other run exits 0
    assert codes == {(0, True), (1, False)}
    assert _sha256("".join(outs)) == GENUS_G_JSON_SHA256[cmd]


@pytest.mark.parametrize(
    "cmd, extra, want", [("homology", [], "Z^2"), ("dw", ["--prime", "3"], "3")], ids=["homology", "dw"]
)
def test_no_check_admits_a_2x2_matrix_outside_sl2(cmd, extra, want, capsys):
    # as for a 4x4 matrix: H1 = Z + coker(A - Id), and Z is p to the number
    # of SNF entries of A - Id divisible by p, zeros included
    code, out = _capture(capsys, [cmd, "--matrix", '[["2","0"],["0","1"]]', *extra, "--no-check"])
    assert (code, out) == (0, want + "\n")


def test_classes_trace(capsys):
    code, out = _capture(capsys, ["classes", "--trace", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["classes"]) == 1


# SHA-256 of stdout, recorded while each class was listed from one object;
# trace 11 holds the content-3 class (-3, 9, 3), and trace -11 lists the
# same forms with signed matrices such as [[-10, 3], [3, -1]]
CLASSES_TRACE_SHA256 = {
    "3": "8262c8c2f3e5ee27fe1aee603eed05f94f52bd4d1d4664a9f42e82bd51ff84ac",
    "3 --json": "3e9f83d352a4bc31e8a1c63cae049812a41b17db44989841270a80655612de8c",
    "4": "9d4a7a016d345764d9c0f8c93fa81ca23920484de8947a9fd749a253bd2339c6",
    "4 --json": "8fc63fa753f7e99c0cd284dfc37def5c5eb3166dc0e92b75ee9ac34b3146bb91",
    "-4": "69061b15d6caadd86ca7773d4d8b8c099b3e0b9fc299f138010ccd60594290d9",
    "-4 --json": "464ccbd11917f4e82d11b8f95ac688c618893d1ceb58fa03a38a4a7120178bfd",
    "11": "0285665b6e77ea760547e1f2b596cfe53af0b7416c05a86c652d4d76a265b202",
    "11 --json": "47671bb36d3f65521924ae617fb395d34db3be0e1c7d7c751e7e8f9a94d8c1d0",
    "-11": "d829822c230a6277f122e82627a332d3606a988b7ece07b8e1911d5d0b22df06",
    "-11 --json": "909faf6ec53547029a6ab25eee26b9cd6d960148d79313dc695f7dd2c30ee8e8",
    "2010": "bc51b0403ac5f813e0cea94607cf11d4fac007de4ec3de626b125586c55b8114",
    "2010 --json": "02e17197b47c2692718ec8f6352b202abb215dbf72ec61550301ff21bc016c37",
}


@pytest.mark.parametrize("args", list(CLASSES_TRACE_SHA256))
def test_classes_trace_bytes_pinned(args, capsys):
    code, out = _capture(capsys, ["classes", "--trace", *args.split()])
    assert code == 0
    assert _sha256(out) == CLASSES_TRACE_SHA256[args]


def test_classes_count_only(capsys):
    code, out = _capture(capsys, ["classes", "--tmax", "6", "--count-only"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "3 1"
    assert lines[1] == "4 2"
    assert lines[2] == "5 2"  # disc 21 splits into two cycles (no norm -1 unit)


def test_classes_tmax_lists_both_signs_of_each_trace(capsys):
    # one cycle at disc 5 and two at disc 12, each listed as trace s and -s
    three = "3 (-1, 1, 1) content=1\n-3 (-1, 1, 1) content=1\n"
    four = "4 (-2, 2, 1) content=1\n4 (-1, 2, 2) content=1\n-4 (-2, 2, 1) content=1\n-4 (-1, 2, 2) content=1\n"
    assert _capture(capsys, ["classes", "--tmax", "4"]) == (0, three)
    assert _capture(capsys, ["classes", "--tmax", "5"]) == (0, three + four)


# SHA-256 of stdout, recorded before the listing and the counts were read
# from the class store, and the total while it was the length of the listing;
# the T = 500 listing while it was printed from one object per class
CLASSES_SHA256 = {
    ("classes", "--tmax", "60"): "bad786ca9e638f60262f9c149bbe9a9806ffe0513605526d52ea6a8535a7a651",
    ("classes", "--tmax", "60", "--count-only", "--json"): (
        "46f6c776dbc655598c150124f5c38f4ca3e3106029294edc258a24eb994fc2b4"
    ),
    ("classes", "--tmax", "60", "--json"): "3e05f0cf3db077f35a136519d10378c18f28a300d3f675049e39c1791a4aa5d0",
    ("classes", "--tmax", "500"): "a9b80ad61f5bbd37b4b029c2779fe5aabad418194b8451eec02e98781f55d5b7",
}


@pytest.mark.parametrize("argv", list(CLASSES_SHA256), ids=["listing", "counts-json", "total-json", "listing-500"])
def test_classes_tmax_bytes_pinned(argv, capsys):
    code, out = _capture(capsys, list(argv))
    assert code == 0
    assert _sha256(out) == CLASSES_SHA256[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--trace", "3", "--tmax", "10", "--count-only"],
        ["classes", "--trace", "3", "--tmax", "10"],
        ["classes", "--trace", "3", "--count-only", "--json"],
    ],
    ids=["both", "tmax", "count-only"],
)
def test_classes_refuses_trace_with_tmax_or_count_only(argv, capsys):
    # --trace used to win silently and print the trace-3 listing
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace lists one trace: give no --tmax or --count-only\n"


@pytest.mark.parametrize(
    "extra, walks", [((), 1), (("--json",), 0), (("--count-only",), 0), (("--count-only", "--json"), 0)]
)
def test_classes_tmax_walks_the_listing_at_most_once(extra, walks, monkeypatch, capsys):
    # the counts and the total sum one bincount per chunk of one walk; only
    # the text listing walks for the canonical forms, and then it is the one
    # walk of the word tree (it used to walk a second time for a total it
    # never printed)
    calls, listings = [], []
    pieces, columns = bqf._word_pieces, bqf._class_columns

    def counted(T):
        calls.append(T)
        return pieces(T)

    def listed(T):
        listings.append(T)
        return columns(T)

    bqf._walked_rows.cache_clear()
    monkeypatch.setattr(bqf, "_word_pieces", counted)
    monkeypatch.setattr(bqf, "_class_columns", listed)
    monkeypatch.setattr(cli, "_class_columns", listed)
    assert _capture(capsys, ["classes", "--tmax", "60", *extra])[0] == 0
    assert calls == [60]
    assert listings == [60] * walks


@pytest.mark.parametrize("T", [4, 60, 500, 2010])
def test_classes_counts_and_total_need_no_row_store(T, monkeypatch, capsys):
    # the census's rows, read before the store is shut off, are the oracle
    # of the counts and the total, which the CLI reads off the walk
    bqf._walked_rows.cache_clear()
    t = store_columns(T)[0]
    counts = list(enumerate(np.bincount(t, minlength=T)[3:].tolist(), 3))
    want = {
        ("--count-only",): "".join(f"{s} {c}\n" for s, c in counts),
        ("--count-only", "--json"): json.dumps(
            {"schema": 1, "tmax": T, "counts": [{"t": s, "classes_per_sign": c} for s, c in counts]}, sort_keys=True
        )
        + "\n",
        ("--json",): json.dumps({"schema": 1, "tmax": T, "total": 2 * len(t)}, sort_keys=True) + "\n",
    }

    def shut(T):
        raise AssertionError("read the census's row store")

    monkeypatch.setattr(bqf, "_walked_rows", shut)
    for flags, out in want.items():
        assert _capture(capsys, ["classes", "--tmax", str(T), *flags]) == (0, out), flags


def test_census_csv_stdout(capsys):
    code, out = _capture(capsys, ["census", "--prime", "3", "--tmax", "20", "--csv", "-"])
    assert code == 0
    assert out.startswith("T,total,c1,c2,unipotent,rest,dw_sum,snf_id,snf_unip,snf_rest,li_T2")


def test_census_csv_stdout_is_only_csv(capsys):
    code, out = _capture(capsys, ["census", "--prime", "3", "--tmax", "40", "--csv", "-"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert all(len(line.split(",")) == 11 for line in lines)
    # the JSON document cannot share stdout with the CSV
    assert run(["census", "--prime", "3", "--tmax", "40", "--csv", "-", "--json"]) == 1
    assert capsys.readouterr().out == ""


def test_census_tmax_range_is_the_library_range(capsys):
    code, out = _capture(capsys, ["census", "--prime", "3", "--tmax", "8", "--csv", "-"])
    assert code == 0
    assert out == census(3, 8).to_csv()


def test_census_refuses_tmax_past_max_rows_t(monkeypatch, capsys):
    def no_walk(*args):
        raise AssertionError("walked the word tree")

    monkeypatch.setattr(bqf, "_word_pieces", no_walk)
    assert run(["census", "--prime", "3", "--tmax", "2097152"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: T must be at most 30000: larger bounds were not run\n"


def test_census_files(tmp_path, capsys):
    csv = tmp_path / "a.csv"
    jsn = tmp_path / "a.json"
    code, _ = _capture(capsys, ["census", "--prime", "3", "--tmax", "40", "--csv", str(csv), "--json-out", str(jsn)])
    assert code == 0
    assert csv.read_text().startswith("T,total,c1,c2")
    doc = json.loads(jsn.read_text())
    assert doc["schema"] == 1
    assert doc["total"] == 476


# SHA-256 of `census --prime p --tmax 200 --json` stdout, recorded while the
# document was still assembled field by field (p = 2, 3), and while the report
# copied its tallies from its last checkpoint (p = 1000003, above every trace,
# so every class is C7 or C8)
CENSUS_JSON_SHA256 = {
    2: "10b5d841c0ce5e141765be77f87918057c564d5cfb24af688ef4155ffc0dd731",
    3: "93847302b8fbee151635748ae436a10d53fb0f3d4f2f95dba28e2c1552d535f5",
    1000003: "2c8e64ee824799f1705ed427eec51f283d756ea841adaa7a8925f6a0441dbb28",
}


@pytest.mark.parametrize("p", list(CENSUS_JSON_SHA256))
def test_census_json_bytes_pinned(p, capsys):
    code, out = _capture(capsys, ["census", "--prime", str(p), "--tmax", "200", "--json"])
    assert code == 0
    assert _sha256(out) == CENSUS_JSON_SHA256[p]


# SHA-256 of `census --prime p --tmax 60` stdout, recorded when
# scripts/density_experiment.py printed the same report (p = 3, 5), and while
# the report copied its tallies from its last checkpoint (p = 2)
CENSUS_TEXT_SHA256 = {
    2: "6b29c131f7d7e2252154b247e54118e28510d00ac7f789b8a8afbc5ef187d247",
    3: "686e52666d010d8a811dedf995656cec250205815203f164aada255e4367ef23",
    5: "a0d91fcb06b4ca7d12f3de294b9179bdbf356acc20d3fa9e8c815dca00df37ff",
}


def test_census_several_primes(tmp_path, capsys):
    outdir = tmp_path / "results" / "run"
    code, out = _capture(capsys, ["census", "--prime", "3", "5", "--tmax", "60", "--outdir", str(outdir)])
    assert code == 0
    single = {p: _capture(capsys, ["census", "--prime", str(p), "--tmax", "60"])[1] for p in CENSUS_TEXT_SHA256}
    assert {p: _sha256(text) for p, text in single.items()} == CENSUS_TEXT_SHA256
    assert "class-size-derived 2.0000" in single[3]
    # one process, the single-prime reports in the order given
    assert out == single[3] + single[5]
    assert sorted(f.name for f in outdir.iterdir()) == ["census_p3_T60.csv", "census_p5_T60.csv"]
    for p in (3, 5):
        assert (outdir / f"census_p{p}_T60.csv").read_text() == census(p, 60).to_csv()


@pytest.mark.parametrize(
    "argv",
    [
        ["--prime", "3", "5", "--csv", "-"],
        ["--prime", "3", "5", "--csv", "a.csv"],
        ["--prime", "3", "5", "--json"],
        ["--prime", "3", "5", "--json-out", "a.json"],
        ["--prime", "3", "4"],  # every census runs before anything is written
    ],
    ids=["csv-stdout", "csv", "json", "json-out", "not-prime"],
)
def test_census_several_primes_write_nothing_on_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["census", *argv, "--tmax", "60", "--outdir", "out"]) == 1
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_lambda_check(capsys):
    code, out = _capture(capsys, ["lambda-check"])
    assert code == 0
    assert "True" in out and "FLAG" in out


# SHA-256 of `lambda-check` stdout, text and --json, recorded while the log
# formula evaluated lambda once per log branch and once more per coset
LAMBDA_CHECK_SHA256 = {
    (): "d1ffdb2381f1507f8cd99a1a04977e97d7285a24a92e90856d21389749a0f88a",
    ("--json",): "14a829c7013f80508b8fedbe510dc7180e64bb80c54a16ea3d9a36890fed2a77",
}


@pytest.mark.parametrize("flags", list(LAMBDA_CHECK_SHA256), ids=["text", "json"])
def test_lambda_check_bytes_pinned(flags, capsys):
    code, out = _capture(capsys, ["lambda-check", *flags])
    assert code == 0
    assert _sha256(out) == LAMBDA_CHECK_SHA256[flags]


def test_csw_oracle(capsys):
    code, out = _capture(capsys, ["csw", "--matrix", '[["2","1"],["1","1"]]', "--level", "1", "--oracle"])
    assert code == 0
    assert "gauss sum" in out and "rep trace" in out


@pytest.mark.parametrize(
    "matrix, level, text",
    [
        ('[["2","1"],["1","1"]]', 3, "-0.6180339887+0.0000000000j"),
        ('[["3","1"],["2","1"]]', 2, "0.7071067812+0.7071067812j"),
        ('[["3","1"],["2","1"]]', 3, "0.0000000000+0.0000000000j"),
    ],
)
def test_csw_gauss_sum_alone(matrix, level, text, capsys):
    # without --oracle, csw prints the Gauss sum alone, to ten places
    code, out = _capture(capsys, ["csw", "--matrix", matrix, "--level", str(level)])
    assert (code, out) == (0, text + "\n")
    code, out = _capture(capsys, ["csw", "--matrix", matrix, "--level", str(level), "--json"])
    doc = json.loads(out)
    assert code == 0 and sorted(doc) == ["gauss_sum", "level", "schema"]
    assert (doc["schema"], doc["level"]) == (1, level)
    assert complex(*doc["gauss_sum"]) == pytest.approx(complex(text), abs=1e-10)


def test_csw_rejects_trace_beyond_the_bound(capsys):
    matrix = f'[["{2**500}","1"],["-1","0"]]'
    assert run(["csw", "--matrix", matrix, "--level", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: requires |trace| < 2^500\n"


def test_csw_sweep(capsys):
    code, out = _capture(capsys, ["csw-sweep", "--samples", "15", "--kmax", "4", "--tmax", "25"])
    assert code == 0
    # the lines scripts/gauss_sum_sweep.py printed for these arguments (its whole
    # stdout hashed to 32c1b48e...6c65), seed 0; the worst difference is not pinned
    lines = out.splitlines()
    head, worst = lines[1].split(": ")
    assert head == "worst |gauss sum| vs |trace| difference"
    assert float(worst) < 1e-8
    assert lines[:1] + lines[2:] == [
        "15 samples, k <= 4, |Tr| <= 25",
        "vanishing values (phase undefined): 7",
        "framing phase distribution (eighths of a turn):",
        "  2/8 turn: 4",
        "  3/8 turn: 3",
        "  5/8 turn: 1",
    ]
    code, out = _capture(capsys, ["csw-sweep", "--samples", "15", "--kmax", "4", "--tmax", "25", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vanishing"] == 7
    assert doc["phase_eighths"] == [0, 0, 4, 3, 0, 1, 0, 0]
    assert doc["worst_modulus_difference"] < 1e-8


def test_csw_sweep_refuses_tmax_past_the_trace_range(monkeypatch, capsys):
    # the sweep draws |t| up to --tmax and classes_with_trace refuses
    # |t| >= 2^21, so such a --tmax is refused before the first sample
    def no_sample(t):
        raise AssertionError(f"sampled trace {t}")

    monkeypatch.setattr(cli, "classes_with_trace", no_sample)
    for tmax in (2**21, 3 * 10**6):
        assert run(["csw-sweep", "--tmax", str(tmax), "--samples", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need --kmax >= 1, 3 <= --tmax < 2^21 and --samples >= 0\n"
    assert run(["csw-sweep", "--tmax", str(2**21 - 1), "--samples", "0"]) == 0


def test_csw_sweep_refuses_kmax_past_the_level_bound(monkeypatch, capsys):
    # rep_trace refuses levels above csw.MAX_LEVEL, so such a --kmax is
    # refused before the first sample
    def no_sample(t):
        raise AssertionError(f"sampled trace {t}")

    monkeypatch.setattr(cli, "classes_with_trace", no_sample)
    assert run(["csw-sweep", "--kmax", str(csw.MAX_LEVEL + 1), "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --kmax must be at most 1000: the rep-trace oracle refuses larger levels\n"
    assert run(["csw-sweep", "--kmax", str(csw.MAX_LEVEL), "--samples", "0"]) == 0


def test_modform(capsys):
    code, out = _capture(capsys, ["modform", "--pmax", "100"])
    assert code == 0
    assert "mismatches: none" in out


def test_modform_past_the_lmfdb_window(capsys):
    code, out = _capture(capsys, ["modform", "--pmax", "1000"])
    assert code == 0
    assert out.splitlines()[-1] == "mismatches: none"


# SHA-256 of `modform --pmax 1000 --json` stdout, recorded while the
# document was written key by key
MODFORM_JSON_SHA256 = "4f4baf98b27fd74920aa199f6754e2b12e7f6b6cd6c563f0df884a643ec05ff1"


def test_modform_json_bytes_pinned(capsys):
    code, out = _capture(capsys, ["modform", "--pmax", "1000", "--json"])
    assert code == 0
    assert _sha256(out) == MODFORM_JSON_SHA256


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('[["10","3"],["3","1"]]')
    code, out = _capture(capsys, ["snf", "--matrix", str(path), "--subtract-identity"])
    assert code == 0
    assert "[3, 3]" in out


def test_matrix_entries_may_be_json_integers(capsys):
    # a JSON integer reads as its decimal string does, however large
    big = 10**30 + 1
    for m in (f'[["{big}", "3"], ["-3", "1"]]', f"[[{big}, 3], [-3, 1]]"):
        assert _capture(capsys, ["snf", "--matrix", m]) == (0, f"diag [1, {big + 9}]\n")


def test_console_entry_exits_with_the_run_code(capsys, monkeypatch):
    # `mti` is cli.main: the README's dw example, then a domain error
    monkeypatch.setattr(sys, "argv", ["mti", "dw", "--matrix", '[["4","3"],["5","4"]]', "--prime", "3"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 0 and capsys.readouterr().out == "3\n"
    monkeypatch.setattr(sys, "argv", ["mti", "dw", "--matrix", '[["4","3"],["5","4"]]', "--prime", "4"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    captured = capsys.readouterr()
    assert exit_.value.code == 1 and captured.out == "" and captured.err == "error: 4 is not prime\n"


def test_domain_error_exit_code(capsys):
    assert run(["dw", "--matrix", '[["1","0"],["0","1"]]', "--prime", "4"]) == 1
    assert run(["classes", "--trace", "2"]) == 1
    assert run(["census", "--prime", "3", "--tmax", "3"]) == 1
    assert run(["csw", "--matrix", '[["1","1"],["0","1"]]', "--level", "1"]) == 1
    assert run(["csw-sweep", "--tmax", "2"]) == 1


_NOT_SYMPLECTIC = '[["1","1","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]'
_IDENTITY_4 = '[["1","0","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]'


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["dw", "--matrix", '[["2","1"],["1","2"]]', "--prime", "3"],
            "determinant is not 1: Sl2Matrix(a=2, b=1, c=1, d=2)",
        ),
        (["dw", "--matrix", _IDENTITY_4, "--prime", "4"], "4 is not prime"),
        (["classify", "--matrix", '[["2","1"],["1","1"]]', "--prime", "9"], "9 is not prime"),
        (["homology", "--matrix", _NOT_SYMPLECTIC], "matrix is not symplectic"),
        (["classes", "--trace", "2"], "requires |t| > 2"),
        (["classes", "--trace", "1000000000000"], "|t| must be below 2^21"),
        (["classes", "--tmax", "3"], "T must be at least 4"),
        (["census", "--prime", "3", "--tmax", "30001"], "T must be at most 30000: larger bounds were not run"),
        (["classes", "--tmax", "20001"], "T must be at most 20000: larger bounds were not run"),
        (["csw", "--matrix", '[["1","1"],["0","1"]]', "--level", "1"], "requires |trace| > 2"),
        (["csw", "--matrix", '[["2","1"],["1","1"]]', "--level", "0"], "level must be a positive integer"),
        (["modform", "--pmax", "1000001"], "pmax must be at most 1000000: the reference was checked only below it"),
        (
            ["csw", "--matrix", '[["2","1"],["1","1"]]', "--level", "1001", "--oracle"],
            "level must be at most 1000 for the modular data",
        ),
    ],
    ids=[
        "determinant",
        "dw-prime",
        "classify-prime",
        "symplectic",
        "classes-trace",
        "classes-trace-huge",
        "classes-tmax",
        "census-tmax-rows",
        "classes-tmax-listing",
        "csw-trace",
        "csw-level",
        "modform-pmax",
        "csw-oracle-level",
    ],
)
def test_library_value_errors_exit_1_with_their_message(argv, err, capsys, monkeypatch):
    # the library's ValueError reaches run() unwrapped and prints as is; the
    # work past a refused bound fails at once, so a missing refusal cannot run
    def refused(*args):
        raise AssertionError("ran past a refused bound")

    monkeypatch.setattr(weight1, "eta_product_coefficients", refused)
    monkeypatch.setattr(csw, "ModularData", refused)
    monkeypatch.setattr(bqf, "_word_pieces", refused)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["classes"], "need --trace or --tmax"),
        (["classes", "--json"], "need --trace or --tmax"),
        (
            ["snf", "--matrix", '[["1","2","3"],["4","5","6"]]', "--subtract-identity"],
            "--subtract-identity needs a square matrix",
        ),
        (["snf", "--matrix", '[["1","x"]]'], "bad matrix JSON: invalid literal for int() with base 10: 'x'"),
        (["snf", "--matrix", '[["1","2"],'], "bad matrix JSON: Expecting value: line 1 column 12 (char 11)"),
        (["classify", "--matrix", _IDENTITY_4, "--prime", "3"], "expected a 2x2 matrix"),
        # entries used to pass through int(): 1.5 read as 1, 2.9 as 2, true as 1
        (
            ["snf", "--matrix", "[[1.5, 0], [0, 1]]"],
            "bad matrix JSON: entry 1.5 is not an integer or a decimal integer string",
        ),
        (
            ["classify", "--matrix", "[[2.9, 1], [1, 1]]", "--prime", "2"],
            "bad matrix JSON: entry 2.9 is not an integer or a decimal integer string",
        ),
        (
            ["snf", "--matrix", '[[true, "1"], ["0", "1"]]'],
            "bad matrix JSON: entry true is not an integer or a decimal integer string",
        ),
        # a row that is not an array used to escape run() as a TypeError
        (["snf", "--matrix", "[1, 2]"], "bad matrix JSON: expected an array of arrays"),
        (["snf", "--matrix", '[["1"], ["2", "3"]]'], "bad matrix JSON: ragged rows"),
        (["snf", "--matrix", "[]"], "bad matrix JSON: empty matrix"),
    ],
    ids=[
        "classes-no-bound",
        "classes-no-bound-json",
        "snf-not-square",
        "matrix-entry",
        "matrix-json",
        "not-2x2",
        "matrix-float",
        "matrix-float-classify",
        "matrix-bool",
        "matrix-flat",
        "matrix-ragged",
        "matrix-empty",
    ],
)
def test_cli_domain_errors_exit_1_with_their_message(argv, err, capsys):
    # the refusals cli.py makes itself, before any library call
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


def test_psi12_is_not_taken_for_a_prime(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37
    for cmd in ("dw", "classify"):
        assert run([cmd, "--matrix", '[["2","1"],["1","1"]]', "--prime", "318665857834031151167461"]) == 1
    assert "cannot decide" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run(["nonsense"]) == 2
    assert run(["dw", "--matrix", "[[1]]"]) == 2  # missing --prime
    assert run(["modform", "--d", "3"]) == 2  # the form is the one of d = 2
    assert capsys.readouterr().out == ""


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    blocks = [text.split(f"\n## {heading}\n")[1].split("```")[1] for heading in ("CLI", "Experiments")]
    commands = [[line for line in block.splitlines() if line.startswith("mti ")] for block in blocks]
    assert all(commands)
    monkeypatch.chdir(tmp_path)
    # beside snf, dw, classify and homology the comment is the printed
    # result, up to any parenthetical note
    failed, printed = [], {}
    for line in (line for block in commands for line in block):
        argv = shlex.split(line, comments=True)[1:]
        if run(argv) != 0:
            failed.append(line)
        out = capsys.readouterr().out
        if argv[0] in ("snf", "dw", "classify", "homology"):
            printed[line] = out
    assert failed == []
    assert len(printed) == 5
    assert printed == {line: line.split("# ", 1)[1].split(" (")[0] + "\n" for line in printed}
