import json

import jsonschema
import numpy as np
import pytest

from permll import EmpiricalData
from permll.cli import main, parse_counts, write_counts
from permll.errors import ParseError, ValidationError

SCHEMA_PATH = "src/permll/schemas/report.schema.json"


@pytest.fixture(scope="module")
def schema():
    from importlib import resources

    text = resources.files("permll").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def mbt_spec(tmp_path):
    path = tmp_path / "mbt.json"
    path.write_text(
        json.dumps({"kind": "mbt", "n": 4, "params": {"alpha": [0.4, 0.3, 0.2, 0.1]}})
    )
    return str(path)


@pytest.fixture()
def counts_file(tmp_path, mbt_spec):
    from permll import classic_distribution, sample, spec_from_json

    spec, n = spec_from_json(mbt_spec)
    data = sample(classic_distribution(spec, n), 800, seed=3)
    out = tmp_path / "mbt.counts"
    write_counts(data, str(out))
    return str(out)


class TestCountsFile:
    def test_parse_trivial(self, tmp_path):
        path = tmp_path / "a.counts"
        path.write_text("n=2\n1 2,3\n2 1,1\n")
        data = parse_counts(str(path))
        assert data.m == 4
        assert data.counts.tolist() == [3, 1]

    def test_duplicates_merge(self, tmp_path):
        path = tmp_path / "a.counts"
        path.write_text("n=2\n1 2,1\n1 2,1\n")
        assert parse_counts(str(path)).counts.tolist() == [2, 0]

    def test_non_bijection_rejected(self, tmp_path):
        path = tmp_path / "a.counts"
        path.write_text("n=2\n1 1,5\n")
        with pytest.raises(ValidationError, match=":2"):
            parse_counts(str(path))

    def test_malformed_line_has_line_number(self, tmp_path):
        path = tmp_path / "a.counts"
        path.write_text("n=2\n1 2,3\nbogus\n")
        with pytest.raises(ParseError, match=":3"):
            parse_counts(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "a.counts"
        path.write_text("m=2\n1 2,3\n")
        with pytest.raises(ParseError, match=":1"):
            parse_counts(str(path))

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = EmpiricalData(4, rng.multinomial(300, np.full(24, 1 / 24)))
        path = tmp_path / "rt.counts"
        write_counts(data, str(path))
        back = parse_counts(str(path))
        assert back.n == data.n
        assert (back.counts == data.counts).all()


class TestCommands:
    def test_dims_json_validates(self, capsys, schema):
        assert main(["dims", "--family", "bi", "--n", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)
        assert doc["free_parameters"] == 30

    def test_check_spec_json_validates(self, capsys, schema, mbt_spec):
        assert main(["check", "--spec", mbt_spec, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)
        assert doc["families"]["bi"]["verdict"] is True

    def test_fit_json_validates(self, capsys, schema, counts_file):
        assert main(
            ["fit", "--family", "l", "--data", counts_file, "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)
        assert doc["converged"] is True
        assert doc["df"] == 23 - 17

    def test_gof_command(self, capsys, counts_file, mbt_spec):
        assert main(
            ["gof", "--family", "bi", "--data", counts_file, "--spec", mbt_spec]
        ) == 0
        out = capsys.readouterr().out
        assert "GOF" in out and "df: 9" in out

    def test_search_labels_json_validates(self, capsys, schema, counts_file):
        assert main(
            ["search-labels", "--family", "l", "--data", counts_file,
             "--side", "right", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)
        assert "relabelling" in doc

    def test_bases_command(self, capsys):
        assert main(["bases", "--k", "2", "--ell", "2", "--n", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mu_pairwise_orthogonal"] is True
        assert len(doc["nontrivial_rho"]) == 7

    def test_sample_deterministic(self, tmp_path, mbt_spec):
        a, b = tmp_path / "a.counts", tmp_path / "b.counts"
        main(["sample", "--spec", mbt_spec, "--m", "100", "--seed", "9", "--out", str(a)])
        main(["sample", "--spec", mbt_spec, "--m", "100", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_as_inverse_flag(self, capsys, tmp_path):
        path = tmp_path / "a.counts"
        path.write_text("n=3\n2 3 1,6\n1 2 3,2\n")
        assert main(["fit", "--family", "saturated", "--data", str(path),
                     "--as-inverse", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True

    def test_as_inverse_is_exact(self, tmp_path):
        # inverting on ingest equals reading the inverted permutations, even
        # for counts beyond the 53-bit float mantissa
        from argparse import Namespace

        from permll.cli import _read_data

        a, b = tmp_path / "a.counts", tmp_path / "b.counts"
        a.write_text("n=3\n2 3 1,100000000000000001\n1 3 2,2\n3 1 2,5\n")
        b.write_text("n=3\n3 1 2,100000000000000001\n1 3 2,2\n2 3 1,5\n")
        data = _read_data(Namespace(data=str(a), as_inverse=True))
        assert data.counts.tolist() == parse_counts(str(b)).counts.tolist()


class TestExitCodes:
    def test_missing_file_is_one(self, capsys):
        assert main(["fit", "--family", "l", "--data", "/nonexistent.counts"]) == 1
        assert "error" in capsys.readouterr().err

    def test_validation_error_is_one(self, capsys, tmp_path):
        path = tmp_path / "bad.counts"
        path.write_text("n=2\n1 1,5\n")
        assert main(["check", "--data", str(path)]) == 1

    def test_unknown_family_is_one(self, capsys):
        assert main(["dims", "--family", "nope", "--n", "4"]) == 1


MBT4 = json.dumps({"kind": "mbt", "n": 4, "params": {"alpha": [0.4, 0.3, 0.2, 0.1]}})
COUNTS2 = "n=2\n1 2,3\n2 1,1\n"


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"s.json": "{not json"}, ["check", "--spec", "@s.json"]),
        ({"s.json": b"\xff\xfe"}, ["check", "--spec", "@s.json"]),
        ({"s.json": "[1, 2]"}, ["check", "--spec", "@s.json"]),
        ({"s.json": MBT4.replace("[0.4, 0.3, 0.2, 0.1]", '"abc"')}, ["check", "--spec", "@s.json"]),
        ({"s.json": MBT4.replace("[0.4, 0.3, 0.2, 0.1]", "[[1], [2, 3]]")}, ["check", "--spec", "@s.json"]),
        ({"s.json": '{"kind": "multistage", "n": 3, "params": {"theta": 5}}'},
         ["check", "--spec", "@s.json"]),
        ({"s.json": MBT4.replace('"n": 4', '"n": 4.7')}, ["check", "--spec", "@s.json"]),
        ({"s.json": '{"kind": "mbt", "n": true, "params": {"alpha": [1.0]}}'}, ["check", "--spec", "@s.json"]),
        ({"s.json": MBT4}, ["sample", "--spec", "@s.json", "--m", "5", "--seed", "-1"]),
        ({"s.json": MBT4}, ["check", "--spec", "@s.json", "--tol", "nan", "--json"]),
        ({"s.json": MBT4}, ["check", "--spec", "@s.json", "--tol", "inf"]),
        ({"a.counts": COUNTS2}, ["fit", "--family", "l", "--data", "@a.counts", "--tol", "nan"]),
        ({"a.counts": COUNTS2}, ["fit", "--family", "l", "--data", "@a.counts", "--tol", "inf"]),
    ],
    ids=["not-json", "not-utf8", "not-an-object", "alpha-abc", "ragged-alpha", "theta-scalar",
         "n-float", "n-bool", "negative-seed", "check-tol-nan", "check-tol-inf", "fit-tol-nan", "fit-tol-inf"],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, files, argv):
    for name, body in files.items():
        path = tmp_path / name
        path.write_bytes(body) if isinstance(body, bytes) else path.write_text(body)
    code = main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in out + err and "NaN" not in out
