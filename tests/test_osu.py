"""Tests for the OSU benchmark implementations (paper-shape invariants)."""

import pytest

from repro.apps.osu import (
    MODELS,
    OSU_SIZES,
    inter_node_pair,
    intra_node_pair,
    run_bandwidth,
    run_latency,
)
from repro.config import KB, MachineConfig, MB


class TestRunners:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("gpu_aware", [True, False])
    def test_latency_point_runs(self, model, gpu_aware):
        lat = run_latency(model, 1024, "intra", gpu_aware, iters=5, skip=1)
        assert 0 < lat < 1e-3

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("gpu_aware", [True, False])
    def test_bandwidth_point_runs(self, model, gpu_aware):
        bw = run_bandwidth(model, 64 * KB, "inter", gpu_aware, loops=2, skip=1,
                           window=16)
        assert 1e6 < bw < 1e12

    @pytest.mark.parametrize("model", MODELS)
    def test_points_free_their_buffers(self, model):
        # a finished point must not leave its payloads to the collector
        import repro.api as api

        for run in (lambda s: run_latency(model, 64 * KB, "intra", session=s,
                                          iters=2, skip=1),
                    lambda s: run_bandwidth(model, 64 * KB, "inter", session=s,
                                            loops=1, skip=1, window=4)):
            sess = api.session(MachineConfig.summit(nodes=2)).model(model).build()
            run(sess)
            allocators = sess.machine.allocators.values()
            assert sum(a.live_buffers for a in allocators) == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            run_latency("mpich", 8)
        with pytest.raises(ValueError):
            run_bandwidth("mpich", 8)

    def test_size_ladder_spans_1B_to_4MB(self):
        assert OSU_SIZES[0] == 1 and OSU_SIZES[-1] == 4 * MB
        assert all(b == 2 * a for a, b in zip(OSU_SIZES, OSU_SIZES[1:]))

    def test_gpu_pairs(self):
        cfg = MachineConfig.summit(nodes=2)
        a, b = intra_node_pair(cfg)
        assert a // 6 == b // 6
        a, b = inter_node_pair(cfg)
        assert a // 6 != b // 6


class TestPaperShapes:
    """The qualitative results of Figs. 10-13 as assertions."""

    @pytest.mark.parametrize("model", MODELS)
    def test_gpu_aware_beats_host_staging_small(self, model):
        d = run_latency(model, 8, "intra", True, iters=5, skip=1)
        h = run_latency(model, 8, "intra", False, iters=5, skip=1)
        assert h > d

    @pytest.mark.parametrize("model", MODELS)
    def test_gpu_aware_beats_host_staging_large(self, model):
        d = run_latency(model, 4 * MB, "intra", True, iters=5, skip=1)
        h = run_latency(model, 4 * MB, "intra", False, iters=5, skip=1)
        assert h / d > 4  # paper: 9.1x-17.4x at 4 MB

    def test_latency_monotone_in_size(self):
        lats = [run_latency("charm", s, "intra", True, iters=5, skip=1)
                for s in (8, 4 * KB, 256 * KB, 4 * MB)]
        assert lats == sorted(lats)

    def test_inter_node_slower_than_intra(self):
        intra = run_latency("charm", 1 * MB, "intra", True, iters=5, skip=1)
        inter = run_latency("charm", 1 * MB, "inter", True, iters=5, skip=1)
        assert inter > intra

    def test_bandwidth_grows_with_size(self):
        bws = [run_bandwidth("charm", s, "intra", True, loops=2, skip=1, window=16)
               for s in (1 * KB, 64 * KB, 4 * MB)]
        assert bws == sorted(bws)

    def test_peak_bandwidths_match_paper(self):
        """SIV-B2: Charm++ ~44.7 GB/s intra, ~10 GB/s inter; Charm4py lower."""
        charm_intra = run_bandwidth("charm", 4 * MB, "intra", True, loops=3, skip=1)
        charm_inter = run_bandwidth("charm", 4 * MB, "inter", True, loops=3, skip=1)
        c4p_intra = run_bandwidth("charm4py", 4 * MB, "intra", True, loops=3, skip=1)
        assert charm_intra / 1e9 == pytest.approx(44.7, rel=0.1)
        assert charm_inter / 1e9 == pytest.approx(10.0, rel=0.1)
        assert c4p_intra / 1e9 == pytest.approx(35.5, rel=0.15)
        assert c4p_intra < charm_intra

    def test_openmpi_latency_close_to_raw_ucx(self):
        """SIV-B1: OpenMPI-D small-message latency ~2 us."""
        lat = run_latency("openmpi", 8, "intra", True, iters=10, skip=2)
        assert lat < 4e-6

    def test_ampi_h_dip_at_128k(self):
        """SIV-B2: AMPI-H bandwidth degrades at 128 KB."""
        bw64 = run_bandwidth("ampi", 64 * KB, "intra", False, loops=2, skip=1, window=32)
        bw128 = run_bandwidth("ampi", 128 * KB, "intra", False, loops=2, skip=1, window=32)
        # bytes doubled but bandwidth does not follow the trend at the dip
        assert bw128 < 1.5 * bw64

    def test_eager_rndv_crossover_visible(self):
        """Latency jumps where the device path switches to rendezvous."""
        below = run_latency("charm", 2 * KB, "intra", True, iters=5, skip=1)
        above = run_latency("charm", 8 * KB, "intra", True, iters=5, skip=1)
        assert above > below
