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
