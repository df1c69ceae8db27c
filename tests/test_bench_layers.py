"""Smoke test of scripts/bench_layers.py: one toy row per layer."""

import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import bench_layers  # noqa: E402

TIMES = {"certify": ("engine", "build_soe"),
         "tables": ("conv_table", "lag_weights"),
         "system": ("factor", "system", "solve", "solve_3rhs"),
         "per_mesh": ("assembly", "ritz", "loads", "error"),
         "fast_loop": ("wall_history", "wall_solve", "wall_total"),
         "direct_loop": ("wall_history", "wall_solve", "wall_total")}


def test_every_layer_gives_its_times_and_counters(monkeypatch):
    monkeypatch.setattr(bench_layers, "SAMPLE_S", 1e-3)
    toy = {case.layer: case._replace(n=case.n and 4, n_steps=8, eps=None)
           for case in bench_layers.CASES}
    assert toy.keys() == TIMES.keys()
    record = bench_layers.layer_record(ROOT / "src", tuple(toy.values()))
    from reference import REF_S  # perfbench's, on the path layer_record set
    assert record["commit"] is None or re.fullmatch(
        r"[0-9a-f]{40}(\+dirty)?", record["commit"])
    assert [row["layer"] for row in record["rows"]] == list(TIMES)
    for row in record["rows"]:
        for name in TIMES[row["layer"]]:
            samples = row[name + "_samples_s"]
            assert len(samples) == bench_layers.REPEATS[row["layer"]]
            assert row[name + "_s"] == statistics.median(samples) > 0
            refs = row["reference_samples_s"]
            assert len(refs) == len(samples) + 1
            assert row["reference_s"] == statistics.median(refs)
            # each sample scaled by the reference runs next to it
            assert row[name + "_ref_s"] == statistics.median(
                x * REF_S * 2 / (r0 + r1)
                for x, r0, r1 in zip(samples, refs, refs[1:]))
        assert set(bench_layers.COUNTERS) <= row.keys()
        on_mesh = row["mesh"] is not None
        # quad n = 4: 3 x 3 interior vertices, two components each
        assert row["n_dofs"] == (18 if on_mesh else None)
        assert row["half_bandwidth"] == (9 if on_mesh else None)
        assert row["factor_entries"] == (10 * 18 if on_mesh else None)
        assert (row["n_exp"] is None) == (row["layer"] in (
            "tables", "system", "per_mesh"))
    assert record["rows"][-1]["n_exp"] == 0 < record["rows"][-2]["n_exp"]
