"""Time-series (SCRIMP) workload and the Fig. 10 microbenchmarks."""

import math

import pytest

from repro.workloads.base import run_workload
from repro.workloads.microbench import PRIMITIVES, PrimitiveMicrobench
from repro.workloads.timeseries import (
    DATASETS,
    TimeSeriesWorkload,
    generate_series,
    matrix_profile_reference,
    pair_distances,
)

from repro.testing import build_system


class TestSeriesGeneration:
    def test_deterministic(self):
        assert generate_series("air", 64) == generate_series("air", 64)

    def test_datasets_differ(self):
        assert generate_series("air", 64) != generate_series("pow", 64)

    def test_planted_motif_has_close_match(self):
        series = generate_series("air", 120)
        profile = matrix_profile_reference(series, window=8)
        # the planted motif repeats, so some profile entry is near zero.
        assert min(profile) < 0.2


class TestBruteForceProfile:
    def test_exclusion_zone_respected(self):
        series = [float(i % 5) for i in range(40)]
        profile = matrix_profile_reference(series, window=8)
        # trivial self-matches excluded -> no exact zeros from |i-j| < window
        assert len(profile) == 40 - 8 + 1

    def test_profile_symmetric_in_pairs(self):
        series = generate_series("pow", 60)
        profile = matrix_profile_reference(series, window=8)
        assert all(p >= 0 for p in profile)


class TestTimeSeriesWorkload:
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_matches_brute_force(self, tiny_config, dataset):
        workload = TimeSeriesWorkload(dataset, length=48)
        metrics = run_workload(lambda: workload, tiny_config, "syncron")
        assert metrics.operations == workload._steps
        # verify() already compared to brute force; spot-check one entry.
        reference = matrix_profile_reference(
            generate_series(dataset, 48), workload.window)
        assert math.isclose(workload.profile[0], reference[0], rel_tol=1e-9)

    @pytest.mark.parametrize("mechanism", ("central", "hier", "ideal"))
    def test_all_mechanisms_agree_functionally(self, tiny_config, mechanism):
        workload = TimeSeriesWorkload("air", length=40)
        run_workload(lambda: workload, tiny_config, mechanism)

    def test_high_sync_intensity(self, tiny_config):
        """ts must exercise many lock operations (its defining property)."""
        workload = TimeSeriesWorkload("air", length=48)
        metrics = run_workload(lambda: workload, tiny_config, "syncron")
        assert metrics.sync_requests > 50

    def test_bad_dataset_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesWorkload("nope")


class TestDistanceCache:
    """The per-process pair-distance table and memoized reference."""

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_every_read_distance_equals_per_pair_sum(self, dataset):
        for seed in (0, 5):
            series = generate_series(dataset, 48, seed)
            window = 8
            profile_len = len(series) - window + 1
            table = pair_distances(dataset, 48, seed, window)
            assert table[:window] == (None,) * window
            for k in range(window, profile_len):
                assert len(table[k]) == profile_len - k
                for i in range(profile_len - k):
                    j = i + k
                    assert table[k][i] == sum(
                        (series[i + t] - series[j + t]) ** 2
                        for t in range(window))
            with pytest.raises(TypeError):  # shared: read-only
                table[window][0] = 0.0

    def test_rerun_after_another_seed_is_identical(self, tiny_config):
        assert generate_series("air", 48, 3) != generate_series("air", 48, 4)
        runs = []
        for seed in (3, 4, 3):
            workload = TimeSeriesWorkload("air", length=48, seed=seed)
            metrics = run_workload(lambda: workload, tiny_config, "syncron")
            # each run's profile is its own series' brute-force profile,
            # computed here without either memo.
            assert workload.profile == matrix_profile_reference(
                generate_series("air", 48, seed), workload.window)
            runs.append(metrics.as_dict())
        assert runs[0] == runs[2]
        assert runs[0] != runs[1]

    def test_verify_rejects_a_changed_profile_entry(self, tiny_config):
        system = build_system(tiny_config)
        workload = TimeSeriesWorkload("pow", length=40)
        workload.run(system)
        workload.verify(system)  # the memoized reference again
        workload.profile[3] += 1.0
        with pytest.raises(AssertionError):
            workload.verify(system)


class TestMicrobench:
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_each_primitive_completes(self, tiny_config, primitive):
        metrics = run_workload(
            lambda: PrimitiveMicrobench(primitive, interval=100, rounds=4),
            tiny_config, "syncron",
        )
        assert metrics.operations > 0

    def test_interval_dilutes_sync_cost(self, tiny_config):
        """As the interval grows, cycles grow but sync share shrinks —
        mechanisms converge (the Fig. 10 trend)."""
        gaps = {}
        for interval in (20, 2000):
            cyc = {}
            for mech in ("central", "syncron"):
                metrics = run_workload(
                    lambda: PrimitiveMicrobench("lock", interval, rounds=5),
                    tiny_config, mech,
                )
                cyc[mech] = metrics.cycles
            gaps[interval] = cyc["central"] / cyc["syncron"]
        assert gaps[20] > gaps[2000]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PrimitiveMicrobench("mutex", 100)
        with pytest.raises(ValueError):
            PrimitiveMicrobench("lock", -5)
        with pytest.raises(ValueError):
            PrimitiveMicrobench("lock", 100, rounds=0)

    def test_verify_counts_rounds(self, tiny_config):
        system = build_system(tiny_config)
        bench = PrimitiveMicrobench("barrier", interval=10, rounds=3)
        bench.run(system)  # raises if any round was lost
