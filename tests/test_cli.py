import hashlib
import json

import pytest

from mti.census import CSV_HEADER, census
from mti.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


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


def test_homology(capsys):
    code, out = _capture(capsys, ["homology", "--matrix", '[["4","3"],["5","4"]]'])
    assert code == 0
    assert out.strip() == "Z + Z/6"


def test_classes_trace(capsys):
    code, out = _capture(capsys, ["classes", "--trace", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["classes"]) == 1


def test_classes_count_only(capsys):
    code, out = _capture(capsys, ["classes", "--tmax", "6", "--count-only"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "3 1"
    assert lines[1] == "4 2"
    assert lines[2] == "5 2"  # disc 21 splits into two cycles (no norm -1 unit)


# SHA-256 of stdout, recorded before the listing and the counts were read
# from the class store
CLASSES_SHA256 = {
    ("classes", "--tmax", "60"): "bad786ca9e638f60262f9c149bbe9a9806ffe0513605526d52ea6a8535a7a651",
    ("classes", "--tmax", "60", "--count-only", "--json"): (
        "46f6c776dbc655598c150124f5c38f4ca3e3106029294edc258a24eb994fc2b4"
    ),
}


@pytest.mark.parametrize("argv", list(CLASSES_SHA256), ids=["listing", "counts-json"])
def test_classes_tmax_bytes_pinned(argv, capsys):
    code, out = _capture(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSES_SHA256[argv]


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


def test_census_files(tmp_path, capsys):
    csv = tmp_path / "a.csv"
    jsn = tmp_path / "a.json"
    code, _ = _capture(capsys, ["census", "--prime", "3", "--tmax", "40", "--csv", str(csv), "--json-out", str(jsn)])
    assert code == 0
    assert csv.read_text().startswith("T,total,c1,c2")
    doc = json.loads(jsn.read_text())
    assert doc["schema"] == 1
    assert doc["total"] == 476


def test_lambda_check(capsys):
    code, out = _capture(capsys, ["lambda-check"])
    assert code == 0
    assert "True" in out and "FLAG" in out


def test_csw_oracle(capsys):
    code, out = _capture(capsys, ["csw", "--matrix", '[["2","1"],["1","1"]]', "--level", "1", "--oracle"])
    assert code == 0
    assert "gauss sum" in out and "rep trace" in out


def test_modform(capsys):
    code, out = _capture(capsys, ["modform", "--d", "2", "--pmax", "100"])
    assert code == 0
    assert "mismatches: none" in out


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('[["10","3"],["3","1"]]')
    code, out = _capture(capsys, ["snf", "--matrix", str(path), "--subtract-identity"])
    assert code == 0
    assert "[3, 3]" in out


def test_domain_error_exit_code(capsys):
    assert run(["dw", "--matrix", '[["1","0"],["0","1"]]', "--prime", "4"]) == 1
    assert run(["classes", "--trace", "2"]) == 1
    assert run(["census", "--prime", "3", "--tmax", "3"]) == 1
    assert run(["csw", "--matrix", '[["1","1"],["0","1"]]', "--level", "1"]) == 1


def test_usage_error_exit_code(capsys):
    assert run(["nonsense"]) == 2
    assert run(["dw", "--matrix", "[[1]]"]) == 2  # missing --prime
