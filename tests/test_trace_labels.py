"""The benchmark's traced pass (`perfbench/run.py --trace 1`) wraps package
functions that `perfbench/spans.py` names by label in `FULL`.  A label whose
function is renamed or deleted breaks that pass, so each must resolve."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("label", spans.FULL)
def test_traced_label_resolves_to_a_callable(label):
    _, _, fn, _ = spans._resolve(label)
    assert callable(fn)


def test_package_root_binds_the_timed_setup():
    # perfbench/run.py times `import ftsmfc; ftsmfc.SimConfig.from_yaml(...)` as setup_s
    import ftsmfc

    assert callable(ftsmfc.SimConfig.from_yaml)



# The labels each run reaches, as the traced pass records them.  The suites and
# the Lyapunov tools live in ftsmfc.verify and call through fts_core and the
# other modules, so a wrapper put there must see the calls of every suite.
KERNEL = {"fts_core.holder_gain", "output_filter.filter_update", "plant_models.noise_sample",
          "ulm_observer.compute_F", "ulm_observer.first_order_update",
          "tracking_control.control_law_fts", "tracking_control.solve_input"}
REACHED = {
    # simulate streams its rows to the CSV writer and the metrics as the loop runs,
    # so it reaches neither SimLog.to_csv nor compute_metrics
    "simulate": KERNEL | {"cli.main", "sim_harness.SimConfig.from_yaml",
                          "sim_harness.run_closed_loop", "plant_models.SyntheticUlmPlant.step"},
    # the generator binds the pendulum's physics once and steps it itself, so it
    # reaches neither PendulumPlant.step nor pendulum_step
    "generate-trajectory": {"cli.main", "sim_harness.SimConfig.from_yaml",
                            "plant_models.generate_desired_trajectory"},
    "control": {"sim_harness.verify_suite", "fts_core.holder_gain",
                "plant_models.SyntheticUlmPlant.step", "tracking_control.control_law_basic",
                "tracking_control.control_law_fts", "tracking_control.solve_input"},
    "lemma1": {"sim_harness.verify_suite", "fts_core.fts_recursion",
               "fts_core.verify_fts_condition"},
    "holder": {"sim_harness.verify_suite", "fts_core.fts_recursion",
               "fts_core.verify_holder_continuity"},
    "gamma": {"sim_harness.verify_suite", "fts_core.gamma_of_V", "fts_core.holder_gain"},
}


@pytest.mark.parametrize("run", sorted(REACHED))
def test_traced_pass_reaches_every_label(tmp_path, run):
    import contextlib
    import io

    import yaml

    from ftsmfc import cli, sim_harness

    def short(name, **changes):
        configs = Path(__file__).resolve().parents[1] / "configs"
        doc = yaml.safe_load((configs / name).read_text())
        doc.update(changes)
        path = tmp_path / name
        path.write_text(yaml.safe_dump(doc))
        return str(path)

    tracer = spans.Tracer()
    with spans.installed(tracer, spans.FULL), contextlib.redirect_stdout(io.StringIO()):
        if run == "simulate":
            config = short("synthetic_constant.yaml", T=1.0, metrics={"settle_time": 0.5})
            assert cli.main(["simulate", "--config", config,
                             "--out", str(tmp_path / "run.csv")]) == 0
        elif run == "generate-trajectory":
            config = short("paper_experiment.yaml", T=1.0)
            assert cli.main(["generate-trajectory", "--config", config,
                             "--out", str(tmp_path / "traj.csv")]) == 0
        else:
            assert sim_harness.verify_suite(run).passed
    assert {tracer.labels[i] for i in tracer.name} == REACHED[run]

def test_suite_names_are_the_suite_table():
    # the CLI's --suite choices, a plain tuple so that argparse needs no NumPy
    from ftsmfc import sim_harness, verify

    assert sim_harness.SUITE_NAMES == tuple(sorted(verify._SUITES))
