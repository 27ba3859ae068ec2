import contextlib
import io
import json
import re

import jsonschema
import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from permll import EmpiricalData, FamilyKind, formula_dimension
from permll.cli import _plain_records, main, parse_counts, write_counts
from permll.errors import ParseError, PermllError, ValidationError
from permll.fit import INT64_MAX

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

    def test_counts_beyond_int64(self, tmp_path):
        path = tmp_path / "a.counts"
        path.write_text("n=2\n2 1,1\n1 2,99999999999999999999\n")
        with pytest.raises(ParseError, match=r"a\.counts:3: count too large$"):
            parse_counts(str(path))
        for body in (f"1 2,{2**62}\n1 2,{2**62}\n", f"1 2,{2**62 + 2**61}\n2 1,{2**62 + 2**61}\n"):
            path.write_text("n=2\n" + body)
            with pytest.raises(ValidationError, match=r"a\.counts: total count too large$"):
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
    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda kind: kind.value)
    def test_dims_of_every_family_at_n_1(self, capsys, schema, kind):
        # the one-cell table of S_1 leaves no free parameter, whatever the generators
        assert main(["dims", "--family", kind.value, "--n", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["  free parameters: 0", "  rank check:      0"]
        assert main(["dims", "--family", kind.value, "--n", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)
        assert (doc["formula_dim"], doc["rank_dim"], doc["free_parameters"]) == (0, 0, 0)

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda kind: kind.value)
    def test_dims_no_rank_reports_the_closed_form(self, capsys, schema, kind):
        assert main(["dims", "--family", kind.value, "--n", "5", "--no-rank", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)
        assert doc["rank_dim"] is None
        assert doc["free_parameters"] == doc["formula_dim"] == formula_dimension(kind, 5)

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

    def test_low_count_warning_is_one_line(self, capsys, tmp_path):
        # the library's UserWarning reaches stderr as one line, without the
        # source file and line that Python's warning format adds
        path = tmp_path / "sparse.counts"
        path.write_text("n=4\n1 2 3 4,3\n2 1 3 4,1\n")
        assert main(["fit", "--family", "bi", "--data", str(path), "--json"]) == 0
        err = capsys.readouterr().err
        assert err == "warning: 2 cells have expected count below 5; the nominal df may be optimistic\n"


MBT4 = json.dumps({"kind": "mbt", "n": 4, "params": {"alpha": [0.4, 0.3, 0.2, 0.1]}})
COUNTS2 = "n=2\n1 2,3\n2 1,1\n"


@pytest.mark.parametrize(
    "files, argv, says",
    [
        ({"s.json": "{not json"}, ["check", "--spec", "@s.json"], "s.json: not a JSON spec file"),
        ({"s.json": b"\xff\xfe"}, ["check", "--spec", "@s.json"], "s.json: not a JSON spec file"),
        ({"s.json": "[1, 2]"}, ["check", "--spec", "@s.json"], "bad classic spec file"),
        ({"s.json": MBT4.replace("[0.4, 0.3, 0.2, 0.1]", '"abc"')}, ["check", "--spec", "@s.json"],
         "bad mbt parameter 'alpha'"),
        ({"s.json": MBT4.replace("[0.4, 0.3, 0.2, 0.1]", "[[1], [2, 3]]")}, ["check", "--spec", "@s.json"],
         "bad mbt parameter 'alpha'"),
        ({"s.json": '{"kind": "multistage", "n": 3, "params": {"theta": 5}}'},
         ["check", "--spec", "@s.json"], "bad multistage parameter 'theta'"),
        ({"s.json": MBT4.replace('"n": 4', '"n": 4.7')}, ["check", "--spec", "@s.json"],
         "n must be an integer, got 4.7"),
        ({"s.json": '{"kind": "mbt", "n": true, "params": {"alpha": [1.0]}}'}, ["check", "--spec", "@s.json"],
         "n must be an integer, got True"),
        ({"s.json": MBT4}, ["sample", "--spec", "@s.json", "--m", "5", "--seed", "-1"],
         "seed must be non-negative"),
        ({"s.json": MBT4}, ["check", "--spec", "@s.json", "--tol", "nan", "--json"],
         "error: tol must be finite"),
        ({"s.json": MBT4}, ["check", "--spec", "@s.json", "--tol", "inf"], "error: tol must be finite"),
        ({"a.counts": COUNTS2}, ["fit", "--family", "l", "--data", "@a.counts", "--tol", "nan"],
         "marginal_tol must be finite"),
        ({"a.counts": COUNTS2}, ["fit", "--family", "l", "--data", "@a.counts", "--tol", "inf"],
         "marginal_tol must be finite"),
        ({"a.counts": "n=2\n1 2,99999999999999999999\n"}, ["fit", "--family", "l", "--data", "@a.counts"],
         "a.counts:2: count too large"),
        ({"a.counts": f"n=2\n1 2,{2**62 + 2**61}\n2 1,{2**62 + 2**61}\n"},
         ["fit", "--family", "l", "--data", "@a.counts"], "a.counts: total count too large"),
        ({"a.counts": f"n=2\n1 2,{2**62}\n1 2,{2**62}\n"}, ["fit", "--family", "l", "--data", "@a.counts"],
         "a.counts: total count too large"),
        ({"a.counts": b"\xff\xfen=2\n1 2,3\n"}, ["fit", "--family", "l", "--data", "@a.counts"],
         "a.counts: not a UTF-8 counts file"),
        ({"a.counts": COUNTS2}, ["fit", "--family", "nope", "--data", "@a.counts"], "unknown family 'nope'"),
        ({}, ["dims", "--family", "l", "--n", "10"], "board size 10 outside 1..9"),
        ({}, ["dims", "--family", "l", "--n", "0"], "board size 0 outside 1..9"),
        # the draw array would exceed the address space, so numpy refuses it without allocating
        ({"s.json": MBT4}, ["sample", "--spec", "@s.json", "--m", "1000000000000000"], "Unable to allocate"),
    ],
    ids=["not-json", "not-utf8", "not-an-object", "alpha-abc", "ragged-alpha", "theta-scalar",
         "n-float", "n-bool", "negative-seed", "check-tol-nan", "check-tol-inf", "fit-tol-nan", "fit-tol-inf",
         "count-beyond-int64", "total-beyond-int64", "merged-count-beyond-int64", "counts-not-utf8",
         "unknown-family", "board-size-10", "board-size-0", "m-beyond-memory"],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, files, argv, says):
    for name, body in files.items():
        path = tmp_path / name
        path.write_bytes(body) if isinstance(body, bytes) else path.write_text(body)
    code = main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert says in err
    assert "Traceback" not in out + err and "NaN" not in out


# Pieces a mutation inserts or writes over one character: separators and
# whitespace the plain form excludes, signs, digit group marks, a non-ASCII
# digit, and numbers beyond int64.
PIECES = ["0", "1", "2", "3", "4", "9", " ", "  ", "\t", ",", "\r", "\n", "\r\n", "\n\n", "+", "-", "_",
          "٣", "\x0b", "\x85", "12345678901234567890", "99999999999999999999",
          "4611686018427387904"]
HEADERS = ["n=0", "n=1", "n=2", "n=3", "n=10", "n= 3", "n=+3", "n=3 ", "n=٣", "n=²", "m=3", "n=", "n=x", ""]


@st.composite
def counts_texts(draw):
    """A valid counts file in plain form at n <= 4, with duplicate records and
    with or without its final newline."""
    n = draw(st.integers(1, 4))
    records = draw(st.lists(
        st.tuples(st.permutations(range(1, n + 1)), st.integers(1, 5000)), min_size=1, max_size=4,
    ))
    lines = [f"n={n}"] + [f"{' '.join(map(str, pi))},{c}" for pi, c in records]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


EDITS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 10**4),
                  st.sampled_from(PIECES)),
        st.tuples(st.just("header"), st.just(0), st.sampled_from(HEADERS)),
    ),
    max_size=3,
)


# What write_counts writes, up to the number of images per line.
PLAIN = re.compile(r"n=[1-9]\n(?:[0-9]{1,18}(?: [0-9]{1,18})*,[0-9]{1,18}\n)+")


def _mutate(text: str, edits) -> str:
    for kind, pos, piece in edits:
        pos %= len(text) + 1
        if kind == "insert":
            text = text[:pos] + piece + text[pos:]
        elif kind == "replace":
            text = text[:pos] + piece + text[pos + 1 :]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1 :]
        else:
            text = piece + text[text.index("\n") :] if "\n" in text else piece
    return text


def _count_total(text: str) -> int:
    """Sum of the positive count fields of the records, read as the reference loop reads them."""
    total = 0
    for line in text.splitlines()[1:]:
        try:
            total += max(0, int(line.rpartition(",")[2]))
        except ValueError:
            pass
    return total


def _outcome(parse, path, errors=Exception):
    """(n, counts) of the file, or (exception class, message) for the errors caught."""
    try:
        data = parse(path)
    except errors as exc:
        return type(exc), str(exc)
    return data.n, data.counts.tolist()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "f.counts")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(counts_texts(), EDITS)
@example("n=2\n12345678901234567890 1,3\n", [])
@example("n=2\n1 2,99999999999999999999\n", [])
@example("n=2\n1 2,1_0\n", [])
@example("n=2\n2 1,+3\n", [])
@example("n=2\n1 2,٣\n", [])
@example("n=2\n2 1,3\n1 2,0\n", [])
@example("n=2\n1 ,3\n", [])
@example("n=2\n2-1,3\n", [])
def test_parse_counts_matches_the_line_loop(fuzz_path, text, edits):
    # the array parse gives the reference loop's counts, or its exception class
    # and message; the one difference is a count or a total beyond int64, which
    # the loop does not check (it crashes or wraps)
    text = _mutate(text, edits)
    with open(fuzz_path, "wb") as fh:
        fh.write(text.encode())
    got = _outcome(parse_counts, fuzz_path, PermllError)
    if "too large" in str(got[1]):
        assert _count_total(text) > INT64_MAX
        return
    assert got == _outcome(oracles.parse_counts, fuzz_path)
    if isinstance(got[0], int) and PLAIN.fullmatch(text if text.endswith("\n") else text + "\n"):
        records = _plain_records(text)  # a valid file in plain form takes the array path
        assert records is not None
        n, rows = records
        assert EmpiricalData.from_records(n, rows[:, :-1], rows[:, -1]).counts.tolist() == got[1]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(counts_texts(), EDITS)
def test_cli_on_mutated_counts_is_one_error_line(fuzz_path, text, edits):
    with open(fuzz_path, "wb") as fh:
        fh.write(_mutate(text, edits).encode())
    for argv in (["fit", "--family", "l", "--data", fuzz_path], ["check", "--data", fuzz_path]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith(("error:", "internal error:"))
            assert err.getvalue().count("\n") == 1
        assert "Traceback" not in out.getvalue() + err.getvalue()
