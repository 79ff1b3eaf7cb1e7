"""Tests of the span tracer on one small certificate.

    python3 -m pytest bench
"""

import io
import math
from contextlib import redirect_stdout

import run
import tracing


def test_tracer_wraps_imported_names_and_partitions_the_call(tmp_path):
    cli = run.load_program()
    import codecert.proof as proof
    import codecert.tree as tree

    original = tree.tree_source
    src = tmp_path / "source.txt"
    src.write_text("a 1/2\nb 1/4\nc 1/4\n")
    code = tmp_path / "code.txt"
    code.write_text("radix 2\na 0\nb 10\nc 11\n")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert proof.tree_source is tree.tree_source is not original
        with redirect_stdout(io.StringIO()):
            assert cli.main(["certify", str(src), str(code), "--machine"]) == 0
    finally:
        tracer.uninstall()
    assert proof.tree_source is tree.tree_source is original

    calls, self_s = tracer.summary()
    assert calls["cli.main"] == 1
    assert calls["proof.reduction_step"] == 2  # one merge per internal node
    roots = [i for i in range(len(tracer.name)) if tracer.parent[i] == -1]
    assert len(roots) == 1
    # self times partition the root span
    whole = tracer.end[roots[0]] - tracer.start[roots[0]]
    assert math.isclose(sum(self_s.values()), whole, rel_tol=1e-9)

    metrics = tracing.layer_metrics(calls, self_s)
    assert metrics["source.validations_per_merge"] == calls["source.Source.validate"] / 2
    assert math.isclose(sum(metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS), whole, rel_tol=1e-9)
