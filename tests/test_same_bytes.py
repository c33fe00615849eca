"""The case list and the file comparison of tests/same_bytes.py; no scenario
runs here."""

import pytest

from wakesim.config import SCENARIOS

import same_bytes


def test_every_scenario_has_a_case():
    assert set(SCENARIOS) <= {case.args[0] for case in same_bytes.CASES}


def test_cases_are_named_once():
    names = [case.name for case in same_bytes.CASES]
    assert len(set(names)) == len(names)


@pytest.fixture
def twins(tmp_path):
    """Two output directories with the same three files."""
    dirs = tmp_path / "a", tmp_path / "b"
    for d in dirs:
        d.mkdir()
        (d / "frame_error.csv").write_bytes(b"length_us,rx_power_dbm\n720,-92\n")
        (d / "summary.txt").write_bytes(b"scenario=rx_power_sweep\n")
        (d / "wakeup.csv").write_bytes(b"")
    return dirs


def test_same_files_have_no_difference(twins):
    assert same_bytes.differences(*twins) == []


def test_one_changed_byte_names_the_file(twins):
    a, b = twins
    data = bytearray((b / "summary.txt").read_bytes())
    data[-2] ^= 1
    (b / "summary.txt").write_bytes(bytes(data))
    [diff] = same_bytes.differences(a, b)
    assert diff.startswith("summary.txt differs")
    [diff] = same_bytes.differences(b, a)
    assert diff.startswith("summary.txt differs")


@pytest.mark.parametrize("side", [0, 1])
def test_a_missing_file_is_named(twins, side):
    (twins[side] / "frame_error.csv").unlink()
    diff = same_bytes.differences(*twins)
    assert diff == [f"frame_error.csv is in {twins[1 - side]} "
                    f"but not in {twins[side]}"]


def test_every_differing_case_is_listed(tmp_path, monkeypatch, capsys):
    # every case writes one file; two cases differ from the revision, and
    # one of them also between its unpinned and pinned runs
    moved = {"calibrate": ("parent",), "cof0_sweep": ("pinned", "parent")}

    def run_case(case, checkout, out, tmp, pinned):
        run = "parent" if checkout != same_bytes.ROOT else (
            "pinned" if pinned else "unpinned")
        out.mkdir()
        data = b"moved" if run in moved.get(case.name, ()) else b"same"
        (out / "summary.txt").write_bytes(data)

    monkeypatch.setattr(same_bytes, "run_case", run_case)
    monkeypatch.setattr(same_bytes, "_child", lambda *args: None)
    (tmp_path / "work").mkdir()
    found = same_bytes.check(tmp_path / "work", tmp_path / "parent")
    assert [line.split(":")[0] for line in found] == [
        "calibrate", "cof0_sweep", "cof0_sweep"]
    out = capsys.readouterr().out
    assert "differs: calibrate (unpinned = pinned != parent" in out
    assert "differs: cof0_sweep (unpinned != pinned != parent" in out
    assert "same bytes: cc2420_histogram (unpinned = pinned = parent" in out
