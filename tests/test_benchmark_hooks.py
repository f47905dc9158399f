"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions
by module and name.  A target that is renamed away would crash its
``install``, and a call routed past the module-global name would leave its
per-layer metric at 0; both fail here first."""

import importlib
import importlib.util
from pathlib import Path

from jacograph import BraidedString, IncidencePolynomial, build, chroma, cli, realize, underlying_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for name, (module_name, attr) in targets.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_chroma_report_calls_min_sum_colouring_by_its_module_name(monkeypatch):
    calls = []
    original = chroma.min_sum_colouring

    def counting(graph):
        calls.append(graph.order)
        return original(graph)

    monkeypatch.setattr(chroma, "min_sum_colouring", counting)
    chroma.chroma_report(underlying_graph(build(IncidencePolynomial(1, 0, 0), 30)))
    assert calls == [30]


def test_table3_colours_through_min_sum_colouring_by_its_module_name(monkeypatch, capsys):
    calls = []
    original = chroma.min_sum_colouring

    def counting(graph):
        calls.append(graph.order)
        return original(graph)

    monkeypatch.setattr(chroma, "min_sum_colouring", counting)
    assert cli.main(["table3", "--f", "x^2", "--n", "30"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 30
    assert calls == [30]


def test_graphs_are_made_through_from_intervals(monkeypatch):
    # the tracer's chroma.from_intervals span and its edge count see only
    # graphs made through the class method; a direct constructor call would
    # leave them at 0
    calls = []
    original = chroma.SimpleGraph.from_intervals.__func__

    def counting(cls, caps):
        graph = original(cls, caps)
        calls.append(graph.order)
        return graph

    monkeypatch.setattr(chroma.SimpleGraph, "from_intervals", classmethod(counting))
    underlying_graph(build(IncidencePolynomial(1, 0, 0), 30))
    realize(BraidedString((7, 5), (3,)))
    chroma.SimpleGraph.complete(5)
    assert calls == [30, 9, 5]
