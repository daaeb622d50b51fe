"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py

They need no program source: the probes are exercised on a stand-in
module registered in ``sys.modules``.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import probes  # noqa: E402

MOD = "perfbench_fake_layer"


@pytest.fixture
def fake_module():
    mod = types.ModuleType(MOD)

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Store:
        def save(self, x):
            return x

    mod.inner, mod.outer, mod.Store = inner, outer, Store
    sys.modules[MOD] = mod
    yield mod
    del sys.modules[MOD]


def layers(*targets, expect=("w",)):
    return tuple(
        probes.Layer(name, ((MOD, attr),), expect)
        for name, attr in targets
    )


def test_missing_name_fails_loudly_and_wraps_nothing(fake_module):
    originals = (fake_module.inner, fake_module.outer)
    bad = layers(("inner", "inner"), ("gone", "renamed_away"))
    with pytest.raises(probes.ProbeError, match="renamed_away"):
        with probes.installed(probes.Recorder(), bad):
            pass
    assert (fake_module.inner, fake_module.outer) == originals


def test_missing_method_and_module_fail_loudly(fake_module):
    with pytest.raises(probes.ProbeError, match="Store.load"):
        with probes.installed(probes.Recorder(), layers(("s", "Store.load"))):
            pass
    gone = (probes.Layer("x", (("perfbench_no_such_module", "f"),), ()),)
    with pytest.raises(probes.ProbeError, match="perfbench_no_such_module"):
        with probes.installed(probes.Recorder(), gone):
            pass


def test_zero_calls_on_the_meant_workload_fail(fake_module):
    rec = probes.Recorder()
    spec = layers(("inner", "inner"), ("outer", "outer"))
    with probes.installed(rec, spec):
        fake_module.inner(1)
    with pytest.raises(probes.ProbeError, match="outer"):
        probes.check_exercised(rec, "w", spec)
    probes.check_exercised(rec, "another-workload", spec)


def test_every_attribute_is_restored_even_on_error(fake_module):
    before = dict(vars(fake_module))
    save = fake_module.Store.__dict__["save"]
    spec = layers(("inner", "inner"), ("outer", "outer"), ("save", "Store.save"))
    with pytest.raises(ZeroDivisionError):
        with probes.installed(probes.Recorder(), spec):
            assert fake_module.inner is not before["inner"]
            1 / 0
    assert dict(vars(fake_module)) == before
    assert fake_module.Store.__dict__["save"] is save


def test_self_time_excludes_probed_children(fake_module):
    rec = probes.Recorder()
    with probes.installed(rec, layers(("inner", "inner"), ("outer", "outer"))):
        assert fake_module.outer(1) == 4
        assert fake_module.Store().save(3) == 3
    outer, inner = rec.layer("outer"), rec.layer("inner")
    assert (outer.calls, inner.calls) == (1, 1)
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)


def test_importtime_parse():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       289 |       5726 |         scipy",
        "import time:        50 |         60 |           scipy.optimize",
        "import time:       517 |     442774 |   repro",
        "import time:      4616 |     447390 | repro.cli",
    ])
    got = probes.import_metrics(probes.parse_importtime(stderr))
    assert got == {
        "import.repro_s": 0.442774,
        "import.cli_s": 0.44739,
        "import.scipy_s": pytest.approx(0.000339),
        "import.scipy_loaded": 1.0,
    }


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    value, pct, n = checks.tail(samples)
    assert n == 40 and sum(s > value for s in samples) == 10 and pct == 75.0


def test_paper_table_round_trip():
    out = "\n".join([
        "table3 (normalized fuel)",
        "DPM policy | measured (% of Conv-DPM) | paper (%)",
        "-----------+--------------------------+----------",
        "conv-dpm   | 100.0                    | 100.0    ",
        "asap-dpm   | 43.6                     | 49.1     ",
        "fc-dpm     | 39.2                     | 41.5     ",
        "FC-DPM saves 10.1% fuel vs ASAP-DPM (lifetime x1.11)",
    ])
    parsed = checks.parse_table(out)
    assert parsed["rows"]["asap-dpm"] == ("43.6", "49.1")
    assert parsed["saving"].startswith("FC-DPM saves 10.1%")
    assert checks.paper_err_pp([parsed]) == 5.5
