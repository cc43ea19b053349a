"""Input generators of the workloads agree with the user-facing paths."""

from repro import european_nren_model, run_experiment
from repro.liveupdate import apply_edits, diff_rendered, parse_edits

from perfbench.workloads import cost_change_plan


def test_cost_change_plan_equals_the_design_level_cost_edit(tmp_path):
    graph = european_nren_model(scale=0.05)
    base = run_experiment(graph, output_dir=str(tmp_path / "base"))
    left, right = sorted(graph.edges())[3]
    edits = parse_edits([{"kind": "cost", "link": [left, right], "value": 55}])
    target = run_experiment(
        apply_edits(graph, edits), output_dir=str(tmp_path / "target"), deploy=False,
    )
    rendered = diff_rendered(base.render_result.lab_dir, target.render_result.lab_dir)
    built = cost_change_plan(base.lab, left, right, 55)
    assert len(built) == len(rendered) > 0
    assert [op.op_hash() for op in built.operations] == [
        op.op_hash() for op in rendered.operations
    ]
