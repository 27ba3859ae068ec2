"""Write the golden-output corpus: seeded inputs and the CLI's output on them.

    PYTHONPATH=src python tests/golden/make_corpus.py

Inputs (``inputs/``) are drawn by this file's own numpy code, never by
``permll.sample``: one parameter file per classic model at n = 4..6, and per
n a dense and a sparse counts file drawn from a Mallows law.  ``expected.json``
lists every case as its argv (input paths relative to this directory) and the
stdout of ``permll.cli.main`` on it, parsed when the command prints JSON.
``tests/test_golden.py`` reruns the cases and compares.  Rerun this script
only when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
NS = (4, 5, 6)
FAMILIES = ("l", "l'", "l_s", "l_s'", "bi", "bi_s", "qi", "saturated", "uniform")
KINDS = ("luce", "babington-smith", "mbt", "multistage", "repeated-insertion", "quasi-independence")


def _params(kind: str, n: int, rng: np.random.Generator) -> dict:
    if kind == "luce":
        return {"theta": rng.dirichlet(np.ones(n)).tolist()}
    if kind == "babington-smith":
        upper = np.triu(rng.uniform(0.1, 0.9, (n, n)), 1)
        return {"theta": (upper + np.tril(1.0 - upper.T, -1)).tolist()}
    if kind == "mbt":
        return {"alpha": rng.uniform(0.5, 2.0, n).tolist()}
    if kind == "multistage":
        return {"theta": [rng.dirichlet(np.ones(n - k)).tolist() for k in range(n)]}
    if kind == "repeated-insertion":
        return {"theta": [rng.dirichlet(np.ones(k)).tolist() for k in range(1, n + 1)]}
    # half uniform, half a random mixture of three permutation matrices
    mix = sum(w * np.eye(n)[rng.permutation(n)] for w in rng.dirichlet(np.ones(3)))
    return {"theta": (0.5 / n + 0.5 * mix).tolist()}


def _mallows(n: int, phi: float) -> np.ndarray:
    """phi ** inversions over the lexicographic enumeration, normalized."""
    perms = np.array(list(itertools.permutations(range(n))))
    inv = sum((perms[:, i, None] > perms[:, i + 1 :]).sum(axis=1) for i in range(n - 1))
    w = phi ** inv.astype(float)
    return w / w.sum()


def _counts_text(n: int, counts: np.ndarray) -> str:
    lines = [f"n={n}"]
    for pi, c in zip(itertools.permutations(range(1, n + 1)), counts):
        if c:
            lines.append(f"{' '.join(map(str, pi))},{c}")
    return "\n".join(lines) + "\n"


def write_inputs() -> None:
    rng = np.random.default_rng(20070401)
    out = HERE / "inputs"
    out.mkdir(exist_ok=True)
    for n in NS:
        for kind in KINDS:
            doc = {"kind": kind, "n": n, "params": _params(kind, n, rng)}
            (out / f"n{n}_{kind}.json").write_text(json.dumps(doc) + "\n")
        law = _mallows(n, 0.6)
        for name, m in (("dense", 20 * math.factorial(n)), ("sparse", math.factorial(n) // 6)):
            counts = rng.multinomial(m, law)
            (out / f"n{n}_{name}.counts").write_text(_counts_text(n, counts))


def cases() -> list[list[str]]:
    out = []
    for n in NS:
        spec = {kind: f"inputs/n{n}_{kind}.json" for kind in KINDS}
        data = [f"inputs/n{n}_{name}.counts" for name in ("dense", "sparse")]
        out += [["dims", "--family", fam, "--n", str(n), "--json"] for fam in FAMILIES]
        out += [["check", "--spec", spec[kind], "--json"] for kind in KINDS]
        out += [["check", "--data", d, "--json"] for d in data]
        out.append(["check", "--spec", spec["luce"], "--as-inverse", "--json"])
        out += [
            ["fit", "--family", fam, "--data", d, "--max-cycles", "400", "--json"]
            for d in data
            for fam in FAMILIES
        ]
        out.append(["fit", "--family", "l'", "--data", data[0], "--as-inverse", "--json"])
        out.append(["gof", "--family", "bi", "--data", data[0], "--spec", spec["mbt"], "--json"])
        out.append(["gof", "--family", "l", "--data", data[1], "--spec", spec["luce"], "--json"])
        out.append(["sample", "--spec", spec["multistage"], "--m", "40", "--seed", str(n)])
        out.append(["bases", "--k", "2", "--ell", str(n - 1), "--n", str(n), "--json"])
    out.append(["search-labels", "--family", "l", "--data", "inputs/n4_dense.counts",
                "--side", "right", "--json"])
    out.append(["search-labels", "--family", "l", "--data", "inputs/n5_sparse.counts",
                "--side", "left", "--json"])
    out.append(["search-labels", "--family", "qi", "--data", "inputs/n4_sparse.counts",
                "--side", "both", "--json"])
    out.append(["search-labels", "--family", "bi", "--data", "inputs/n4_dense.counts",
                "--side", "right", "--json"])
    out.append(["search-labels", "--family", "l_s'", "--data", "inputs/n5_dense.counts",
                "--side", "left", "--json"])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the CLI, input paths taken relative to this directory."""
    from permll.cli import main

    args = [str(HERE / a) if a.startswith("inputs/") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def main() -> None:
    write_inputs()
    entries = []
    for argv in cases():
        code, text = run(argv)
        if code != 0:
            sys.exit(f"{argv}: exit {code}")
        out = json.loads(text) if "--json" in argv else text.splitlines()
        entries.append({"argv": argv, "stdout": out})
    (HERE / "expected.json").write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
