"""Output checks and the reference comparison, on hand-written outputs."""
import struct

import numpy as np

import workloads
from workloads import CSV_HEADER, Grid, check_maps, check_sweep, mismatch

GRID = Grid(("classical_fc", "qunn"), ("zz_full",), ("pgd",), "surrogate")


def write_csv(path, rows):
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n")


def good_rows(acc="0.5"):
    return [f"mnist,{arch},{ansatz},pgd,surrogate,{eps!r},0,{acc}"
            for arch, ansatz in (("classical_fc", "-"), ("qunn", "zz_full"))
            for eps in workloads.EPSILONS]


def test_check_sweep_accepts_a_complete_output(tmp_path):
    write_csv(tmp_path / "results.csv", good_rows())
    out = check_sweep(GRID, str(tmp_path), 0)
    assert (out.attempted, out.failed, len(out.digests)) == (2, 0, 20)


def test_check_sweep_fails_the_cell_trial_with_a_bad_row(tmp_path):
    rows = good_rows()
    rows[3] = rows[3].replace(",0.5", ",nan")       # classical_fc: non-finite
    del rows[15]                                     # qunn: missing row
    write_csv(tmp_path / "results.csv", rows)
    assert check_sweep(GRID, str(tmp_path), 0).failed == 2
    rows = good_rows()
    rows[0] = rows[0].replace(",0.5", ",1.5")        # outside [0, 1]
    write_csv(tmp_path / "results.csv", rows)
    assert check_sweep(GRID, str(tmp_path), 0).failed == 1


def test_check_sweep_fails_everything_on_a_failed_command(tmp_path):
    write_csv(tmp_path / "results.csv", good_rows())
    assert check_sweep(GRID, str(tmp_path), 1).failed == 2


def write_qnvf(path, maps, count=None):
    header = struct.pack("<4sIIIIIQ", b"QNVF", 1, count or len(maps), 14, 14, 4, 0)
    path.write_bytes(header + np.asarray(maps, dtype="<f4").tobytes())


def test_check_maps(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "QUANVOLVE_TRAIN", 3)
    monkeypatch.setattr(workloads, "QUANVOLVE_TEST", 1)
    maps = np.zeros((4, 14, 14, 4))
    maps[1, 0, 0, 0] = np.nan
    maps[2, 0, 0, 0] = 1.5
    write_qnvf(tmp_path / "maps.qnvf", maps)
    out = check_maps(str(tmp_path), 0)
    assert (out.attempted, out.failed, len(out.digests)) == (4, 2, 4)
    write_qnvf(tmp_path / "maps.qnvf", maps[:3])      # one map missing
    assert check_maps(str(tmp_path), 0).failed == 3
    (tmp_path / "maps.qnvf").write_bytes(b"QNVF")      # truncated header
    assert check_maps(str(tmp_path), 0).failed == 4


def test_mismatch_is_the_share_of_reference_rows_not_reproduced(tmp_path):
    wl = workloads.Workload("w", "", GRID)
    write_csv(tmp_path / "results.csv", good_rows())
    ref_out = check_sweep(GRID, str(tmp_path), 0)
    reference = {"w": {"0": workloads.reference_entry(ref_out, wl)}}
    assert mismatch(ref_out, wl, workloads.INPUT_SETS, reference) == 0.0
    rows = good_rows()
    rows[0] = rows[0].replace(",0.5", ",0.6")
    write_csv(tmp_path / "results.csv", rows)
    assert mismatch(check_sweep(GRID, str(tmp_path), 0), wl, 0, reference) == 1 / 20
