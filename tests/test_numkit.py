import numpy as np
import pytest

from localsgd.numkit import RngStream, draw_indices


class TestRngStream:
    def test_n_one_always_zero(self):
        rng = RngStream(seed=5)
        assert all(draw_indices(rng, 1, 1)[0] == 0 for _ in range(20))

    def test_same_state_same_draw(self):
        # The key (seed, stream_id) is the whole state of a fresh stream.
        a = draw_indices(RngStream(seed=9, stream_id=3), 1000, (4, 5))
        b = draw_indices(RngStream(seed=9, stream_id=3), 1000, (4, 5))
        assert np.array_equal(a, b)

    def test_restart_mid_stream(self):
        # A stream drawn in pieces continues where the last piece ended.
        rng = RngStream(seed=42, stream_id=7)
        pieces = np.concatenate([draw_indices(rng, 1_000_000, 20),
                                 draw_indices(rng, 1_000_000, 30)])
        whole = draw_indices(RngStream(seed=42, stream_id=7), 1_000_000, 50)
        assert np.array_equal(pieces, whole)

    def test_pinned_values(self):
        # A change in how a stream is keyed or consumed shows here.
        idx = draw_indices(RngStream(seed=12345, stream_id=3), 1000, 8)
        assert idx.tolist() == [545, 972, 825, 977, 715, 341, 708, 682]
        gen = RngStream(seed=7, stream_id=(1 << 63) | 2).generator()
        assert gen.standard_normal(4).tolist() == [
            0.2262854557043512, 0.952951706532269, 0.3285322000807758, -0.7964367967462451]

    def test_streams_differ(self):
        a = draw_indices(RngStream(seed=3, stream_id=0), 10**9, 100)
        b = draw_indices(RngStream(seed=3, stream_id=1), 10**9, 100)
        assert not np.array_equal(a, b)

    def test_uniformity_chi_square(self):
        # n=4, 10^6 draws: every bucket within 0.25 +- 0.005, and the
        # chi-square statistic below the 99.9% quantile for 3 dof (16.27).
        draws = draw_indices(RngStream(seed=2024), 4, 10**6)
        counts = np.bincount(draws, minlength=4)
        freqs = counts / 1e6
        assert np.all(np.abs(freqs - 0.25) <= 0.005)
        expected = 1e6 / 4
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 16.27

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            draw_indices(RngStream(seed=0), 0, 1)
