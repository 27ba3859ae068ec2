"""Run one permll CLI operation with a span around every call to each layer's
public functions, then write the spans to a JSON file.

    python3 perfbench/tracer.py SPANS_JSON OP_ID -- <permll CLI arguments>

Standard output and the exit code are those of ``python3 -m permll.cli``.
Each function named in TRACED is replaced, in every ``permll`` module that
binds it (``permll.subspaces.atom_labels`` and ``permll.fit.atom_labels``
alike), by a wrapper that records name, start, end, parent span and operation
id.  A listed function that is missing, or a reference to one that the
wrapping could not reach, stops the run.  Per-permutation helpers
(``perm_index``, ``compose``, ``marginal``, ``stats_aq``) are not wrapped.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

TRACED = {
    "perms": ["enumerate_permutations"],
    "subspaces": ["generators", "atom_labels", "rank_dimension"],
    "exactrank": ["exact_rank"],
    "fit": ["ipfp_fit", "explicit_L_mle", "gof_report", "fit_family", "search_relabelling"],
    "decompose": [
        "canonical_lambda",
        "distribution_from_lambda",
        "inverse_distribution",
        "is_decomposable",
    ],
    "classic": ["classic_distribution"],
    "cli": ["parse_counts", "main"],
}


def _cells(args, kwargs, result):
    shape = getattr(args[0] if args else kwargs["mat"], "shape", ())
    return {"cells": int(shape[0] * shape[1]) if len(shape) == 2 else 0}


def _cycles(args, kwargs, result):
    return {"cycles": int(result.cycles_used)}


def _table_digest(args, kwargs, result):
    table = args[0] if args else kwargs["p"]
    return {"table": hashlib.blake2b(table.probs.tobytes(), digest_size=16).hexdigest()}


# Per-call counters recorded beside the span, after the call returns.
EXTRAS = {
    "exactrank.exact_rank": _cells,
    "fit.ipfp_fit": _cycles,
    "decompose.canonical_lambda": _table_digest,
}


class Tracer:
    """In-memory span list for one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        spans, stack, op_id = self.spans, self._stack, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": op_id, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if extra is not None:
                span.update(extra(args, kwargs, result))
            return result

        return traced


def _holds(value, fn) -> bool:
    if value is fn:
        return True
    if isinstance(value, dict):
        return any(v is fn for v in value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(v is fn for v in value)
    return False


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every binding of every TRACED function; return the bindings wrapped."""
    modules = [importlib.import_module("permll")]
    modules += [importlib.import_module(f"permll.{m}") for m in TRACED]
    modules += [m for name, m in sys.modules.items() if name.startswith("permll.") and m not in modules]
    bindings = {}
    for home, names in TRACED.items():
        home_mod = importlib.import_module(f"permll.{home}")
        for fname in names:
            name = f"{home}.{fname}"
            fn = getattr(home_mod, fname, None)
            if not callable(fn):
                raise SystemExit(f"tracer: permll.{name} is missing")
            wrapper = tracer.wrap(name, fn)
            bindings[name] = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        bindings[name].append(f"{mod.__name__}.{attr}")
            for mod in modules:
                for attr, value in vars(mod).items():
                    if _holds(value, fn):
                        raise SystemExit(
                            f"tracer: {mod.__name__}.{attr} still refers to the unwrapped {name}"
                        )
    return bindings


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON OP_ID -- <permll CLI arguments>")
    spans_path, op_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(op_id)
    bindings = install(tracer)
    cli = sys.modules["permll.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "bindings": bindings, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
