"""Splittable Philox streams: determinism, the documented transforms, and
seed derivation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastridge.exceptions import DataError
from fastridge.rng import RandomStream, derive_seed


class TestDeriveSeed:
    def test_known_vector(self):
        """With no path the fold is one splitmix64 step, whose output for
        state 0 is the published reference value."""
        assert derive_seed(0) == 0xE220A8397B1DCDAF

    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_distinct_inputs_give_distinct_outputs(self):
        seen = {
            derive_seed(0),
            derive_seed(1),
            derive_seed(0, 1),
            derive_seed(0, 2),
            derive_seed(0, 1, 2),
            derive_seed(0, 2, 1),
        }
        assert len(seen) == 6

    def test_range(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(seed, 5) < 2**64

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(-1)
        with pytest.raises(ValueError):
            derive_seed(1, -2)

    def test_seed_and_path_components_stop_at_64_bits(self):
        """2^64 - 1 is the largest seed and path component; 2^64 would draw
        what 0 draws, so it is refused, naming the argument and the bound."""
        top = 2**64 - 1
        assert derive_seed(top, 1) != derive_seed(0, 1)
        assert derive_seed(1, top) != derive_seed(1, 0)
        assert not np.array_equal(RandomStream(top).raw(2), RandomStream(0).raw(2))
        for call in (derive_seed, RandomStream):
            with pytest.raises(DataError, match=f"^seed must be at most {top}$"):
                call(2**64, 1)
            with pytest.raises(DataError, match=f"^path component must be at most {top}$"):
                call(1, 2, 2**64)

    def test_numpy_integers_are_seeds(self):
        assert derive_seed(np.int64(5), np.uint64(2)) == derive_seed(5, 2)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_rejects_a_seed_or_path_component_that_is_not_a_count(self, value):
        """A float or a bool is no seed: data.count's rule, never TypeError
        from the sponge's bit operations or a silent 1."""
        with pytest.raises(DataError, match=f"^seed must be an integer, not {value!r}$"):
            derive_seed(value, 1)
        with pytest.raises(DataError, match=f"^seed must be an integer, not {value!r}$"):
            RandomStream(value)
        with pytest.raises(DataError, match=f"^path component must be an integer, not {value!r}$"):
            derive_seed(1, value)
        with pytest.raises(DataError, match=f"^path component must be an integer, not {value!r}$"):
            RandomStream(7, 1, value)


class TestRandomStream:
    def test_reconstruction_replays_the_sequence(self):
        a = RandomStream(7, 1, 2)
        b = RandomStream(7, 1, 2)
        assert np.array_equal(a.raw(16), b.raw(16))

    def test_consumption_is_ordered(self):
        a = RandomStream(7)
        first, second = a.raw(4), a.raw(4)
        b = RandomStream(7)
        assert np.array_equal(np.concatenate([first, second]), b.raw(8))

    def test_different_paths_decorrelate(self):
        x = RandomStream(7, 1).raw(8)
        y = RandomStream(7, 2).raw(8)
        z = RandomStream(8, 1).raw(8)
        assert not np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_path_order_matters(self):
        assert not np.array_equal(
            RandomStream(7, 1, 2).raw(8), RandomStream(7, 2, 1).raw(8)
        )

    def test_rejects_negative_path(self):
        with pytest.raises(ValueError):
            RandomStream(7, -1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RandomStream(-1)

    def test_known_words(self):
        """The key schedule is part of the reproducibility contract: these
        words were recorded before RandomStream shared derive_seed's sponge."""
        assert RandomStream(7, 1, 2).raw(4).tolist() == [
            0x78E8AC833ABDAF27,
            0xBEC66EBE7EAA5C9B,
            0xD513A1867EA250FE,
            0xB07352CB2B81C68E,
        ]

    def test_uniforms_are_top_53_bits(self):
        u = RandomStream(3).uniforms(64)
        w = RandomStream(3).raw(64)
        assert np.array_equal(u, (w >> np.uint64(11)) * 2.0**-53)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_uniform_moments(self):
        u = RandomStream(11).uniforms(100000)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.01

    def test_normals_block_layout(self):
        """An odd-length request consumes the same whole Box-Muller block
        as the next even length, then trims."""
        a = RandomStream(7, 1, 2).normals(3)
        b = RandomStream(7, 1, 2).normals(4)
        assert np.array_equal(a, b[:3])

    def test_normals_transform_definition(self):
        u = RandomStream(9).uniforms(8)
        r = np.sqrt(-2.0 * np.log1p(-u[:4]))
        theta = 2.0 * np.pi * u[4:]
        expected = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        assert np.array_equal(RandomStream(9).normals(8), expected)

    def test_normals_moments(self):
        z = RandomStream(13).normals(200001)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normals_empty(self):
        assert RandomStream(1).normals(0).shape == (0,)

    def test_bernoulli_values_and_rate(self):
        draws = RandomStream(17).bernoulli(0.01, 1000000)
        assert draws.dtype == np.float64
        assert set(np.unique(draws)) <= {0.0, 1.0}
        # 3 sigma for a million draws at rate 0.01 is about 0.0003
        assert abs(draws.mean() - 0.01) < 0.0005

    def test_bernoulli_is_threshold_on_uniforms(self):
        u = RandomStream(19).uniforms(32)
        expected = (u < 0.3).astype(float)
        assert np.array_equal(RandomStream(19).bernoulli(0.3, 32), expected)

    def test_bernoulli_rejects_degenerate_prob(self):
        s = RandomStream(1)
        with pytest.raises(ValueError):
            s.bernoulli(0.0, 4)
        with pytest.raises(ValueError):
            s.bernoulli(1.0, 4)

    def test_chi_square_is_sum_of_squared_normals(self):
        a = RandomStream(23).chi_square(5)
        z = RandomStream(23).normals(5)
        assert a == float(z @ z)

    def test_chi_square_moments(self):
        s = RandomStream(29)
        draws = np.array([s.chi_square(4) for _ in range(4000)])
        assert_allclose(draws.mean(), 4.0, atol=0.3)
        assert_allclose(draws.var(), 8.0, rtol=0.15)

    def test_chi_square_rejects_bad_df(self):
        with pytest.raises(ValueError):
            RandomStream(1).chi_square(0)

    @pytest.mark.parametrize(
        "df, message",
        [(2.5, "must be an integer, not 2.5"), (True, "must be an integer, not True"), (0, "must be at least 1")],
    )
    def test_chi_square_df_is_a_count(self, df, message):
        with pytest.raises(DataError, match=f"^df {message}$"):
            RandomStream(1).chi_square(df)

    @pytest.mark.parametrize(
        "m, message",
        [(2.5, "must be an integer, not 2.5"), (True, "must be an integer, not True"), (-1, "must be at least 0")],
    )
    @pytest.mark.parametrize("draw", ["raw", "normals", "bernoulli"])
    def test_draw_count_is_a_count(self, draw, m, message):
        """m is checked before any word is drawn, never by numpy."""
        s = RandomStream(1)
        with pytest.raises(DataError, match=f"^m {message}$"):
            s.bernoulli(0.5, m) if draw == "bernoulli" else getattr(s, draw)(m)

    def test_bernoulli_prob_below_one(self):
        with pytest.raises(DataError, match="^prob must lie strictly between 0 and 1$"):
            RandomStream(1).bernoulli(1.0, 4)
        with pytest.raises(DataError, match="^prob must be positive$"):
            RandomStream(1).bernoulli(0.0, 4)
