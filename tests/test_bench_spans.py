"""The benchmark's span table must name functions that exist: `Tracer.install`
looks each one up with `getattr`, so a renamed or deleted function would
break traced benchmark runs without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for table in (spans.TRACED, spans.COUNTED)
        for layer, names in table.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"anglecover.{layer}"), name, None)
        )
    ]
    assert missing == []
