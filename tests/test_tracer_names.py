"""The benchmark's tracer wraps entnet callables by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import entnet.cli
import entnet.herald
from entnet.interferometers import beam_splitter

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_and_restores_every_name():
    tracing = _load_tracer()
    targets = [(importlib.import_module(f"entnet.{module}"), attr)
               for _, module, attr, _ in tracing.LAYERS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(targets, originals))
        entnet.herald.run_gbsa(entnet.herald.prepare_swap_input(2), beam_splitter())
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    assert {name for _, _, name, _, _ in tracer.spans} >= {"herald.prepare", "herald.assemble"}


def test_cli_table_walk_is_booked_inside_state_class(monkeypatch, tmp_path):
    """A CLI swap table is labelled in one walk, under the ``states.classify`` span."""
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    walk = entnet.herald.entanglement_classes_csr
    booked = []

    def innermost_span(*args):
        # spans close last-in first-out, so the last one still open is the innermost
        booked.append(next((name for _, _, name, _, end in reversed(tracer.spans)
                            if end is None), None))
        return walk(*args)

    monkeypatch.setattr(entnet.herald, "entanglement_classes_csr", innermost_span)
    tracing.instrument(tracer)
    try:
        assert entnet.cli.main(["swap-table", "--n", "4", "--output",
                                str(tmp_path / "table.csv")]) == 0
    finally:
        tracer.restore()
    assert booked == ["states.classify"]
