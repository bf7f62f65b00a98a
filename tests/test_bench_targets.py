"""The traced benchmark (bench/spans.py) wraps package functions by the
names their callers look up.  Renaming or dropping one of them must fail the
test suite, not only the traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.resolve_targets()  # SystemExit naming a missing target
    assert len(targets) == len(spans.TARGETS)
