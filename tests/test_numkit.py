import numpy as np
import pytest

from localsgd.numkit import RngStream, draw_indices


class TestRngStream:
    def test_n_one_always_zero(self):
        rng = RngStream(seed=5)
        assert all(draw_indices(rng, 1, 1)[0] == 0 for _ in range(20))

    def test_same_state_same_draw(self):
        a = draw_indices(RngStream(seed=9, stream_id=3, counter=17), 1000, 1)[0]
        b = draw_indices(RngStream(seed=9, stream_id=3, counter=17), 1000, 1)[0]
        assert a == b

    def test_counter_advances_by_draw_count(self):
        rng = RngStream(seed=1)
        draw_indices(rng, 10, 1)
        assert rng.counter == 1
        draw_indices(rng, 10, (3, 4))
        assert rng.counter == 13

    def test_restart_mid_stream(self):
        rng = RngStream(seed=42, stream_id=7)
        full = draw_indices(rng, 1_000_000, 50)
        resumed = draw_indices(RngStream(seed=42, stream_id=7, counter=20), 1_000_000, 30)
        assert np.array_equal(full[20:], resumed)

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

    def test_generator_requires_block_alignment(self):
        rng = RngStream(seed=0, counter=2)
        with pytest.raises(ValueError):
            rng.generator()
