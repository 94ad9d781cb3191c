"""The bench's tracer, installed on the package and taken off again.

bench/spans.py wraps functions and methods from outside the package: it reads each method
from its class's own namespace (``cls.__dict__[attr]``), so a method that moved to a base
class would make every traced bench run fail. This test loads that file as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def namespaces() -> dict:
    """Every liecurv module namespace and the namespace of each class it defines."""
    spaces = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "liecurv" or key.startswith("liecurv.")):
            continue
        spaces[key] = vars(module)
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == key:
                spaces[f"{key}.{name}"] = value.__dict__
    return spaces


def test_the_bench_tracer_installs_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, _ in spans.TARGETS:
        importlib.import_module(f"liecurv.{module}")
    from liecurv import riemann
    from liecurv.algebra import LieAlgebra, MetricTensor, Vector

    before = {key: dict(space) for key, space in namespaces().items()}
    inner, sectional = MetricTensor.__dict__["inner"], riemann.sectional
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert MetricTensor.__dict__["inner"] is not inner
        assert riemann.sectional is not sectional
        assert not {"algebra.MetricTensor.inner", "riemann.sectional"} & set(tracer.missing)
        metric = MetricTensor.identity(2)
        conn = riemann.levi_civita(LieAlgebra.from_brackets(2, {(0, 1): [0, 1]}), metric)
        tracer.begin_op(0)
        riemann.sectional(riemann.riemann_tensor(conn), metric, Vector([1.0, 0]), [0, 1])
        metric.inner(Vector([1.0, 0]), [0, 1])  # sectional reads g through inner_read
        tracer.end_op()
        assert tracer.calls["riemann.sectional"] == 1
        assert tracer.calls["algebra.MetricTensor.inner"] >= 1
    finally:
        tracer.uninstall()
    after = namespaces()
    assert MetricTensor.__dict__["inner"] is inner and riemann.sectional is sectional
    for key, space in before.items():
        changed = [name for name, value in space.items() if after[key].get(name) is not value]
        assert not changed, (key, changed)
