"""The golden dump of tests/golden/: the calibration fits, the identification
Jacobian, the poses, Jacobians, finite-difference errors and sweeps at eight
configurations, and the outputs of the README commands must rebuild to the
recorded bytes.

On the numpy version and platform the dump was recorded on, every array must
equal its record bit for bit and the whole dump must hash to the recorded
SHA-256.  Elsewhere float results may differ in the last digits, so each
array is compared at 1e-12 relative to its largest entry; the test id says
which comparison ran.  The README commands' stdout and CSVs are text, recorded
only as hashes, so they are compared on the recorded platform alone.
"""
import json

import numpy as np
import pytest

from golden.dump import GOLDEN, build, diff, digest, main, platform_name, readme_outputs

RECORD = json.loads(GOLDEN.read_text(encoding="utf-8"))
SAME_PLATFORM = (RECORD["numpy"], RECORD["platform"]) == (np.__version__, platform_name())
MODE = ("bitwise" if SAME_PLATFORM else
        f"rtol-1e-12-recorded-on-numpy-{RECORD['numpy']}-{RECORD['platform']}")
REL_TOL = 1e-12


def test_record_hashes_to_its_sha256():
    arrays = {name: np.array(a, dtype=float) for name, a in RECORD["arrays"].items()}
    assert digest(arrays) == RECORD["sha256"]


@pytest.mark.parametrize("mode", [MODE])
def test_golden_dump_rebuilds(mode):
    arrays = build()
    assert list(arrays) == list(RECORD["arrays"])
    for name, got in arrays.items():
        ref = np.array(RECORD["arrays"][name], dtype=float)
        assert got.shape == ref.shape, name
        if mode == "bitwise":
            assert got.tobytes() == ref.tobytes(), name
        else:
            assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref)), name
    if mode == "bitwise":
        assert digest(arrays) == RECORD["sha256"]


@pytest.mark.skipif(not SAME_PLATFORM, reason="README outputs are recorded as hashes of "
                    f"text written on numpy {RECORD['numpy']} {RECORD['platform']}")
def test_readme_command_outputs_rebuild():
    assert readme_outputs() == RECORD["readme"]


@pytest.mark.skipif(not SAME_PLATFORM, reason="the record's bytes and hashes are those of "
                    f"numpy {RECORD['numpy']} {RECORD['platform']}")
def test_diff_reports_nothing_moved(capsys):
    before = GOLDEN.read_bytes()
    assert main(["--diff"]) == 0
    assert capsys.readouterr().out == "nothing moved\n"
    assert GOLDEN.read_bytes() == before


def test_diff_names_each_moved_array_and_hash():
    arrays = {name: np.array(a, dtype=float) for name, a in RECORD["arrays"].items()}
    readme = dict(RECORD["readme"])
    name, other, zero = "exact.k_star", "noisy.k_star", "exact.eta"
    arrays[name] = arrays[name] + [0.0, 1e-12, 0.0]
    arrays[other] = arrays[other][:2]
    assert arrays[zero][1] == 0.0  # eta_flagged, 0 on the noiseless fit
    arrays[zero][1] = -0.0
    readme["fd.csv"] = "0" * 64
    scale = np.max(np.abs(RECORD["arrays"][name]))
    assert diff(arrays, readme, RECORD) == [
        f"{name}: shape (3,), max abs diff {1e-12:.3g}, max rel diff {1e-12 / scale:.3g}",
        f"{zero}: shape (3,), max abs diff 0, max rel diff 0",
        f"{other}: shape (2,), recorded (3,)",
        "README output moved: fd.csv",
    ]
