"""Splittable Philox streams: determinism, the documented transforms, and
seed derivation."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastridge.exceptions import DataError
from fastridge.rng import _BLOCK, RandomStream, derive_seed

# Draw sizes on and either side of a block edge, and an odd size several
# blocks long whose last block is short.
_EDGE_SIZES = [2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 7 * _BLOCK + 247]


def _uniforms(words):
    """The documented uniforms of raw words, computed out of place."""
    return (words >> np.uint64(11)) * 2.0**-53


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

    @pytest.mark.parametrize("m", [64, *_EDGE_SIZES])
    def test_uniforms_are_top_53_bits(self, m):
        s = RandomStream(3, m)
        u = s.uniforms(m)
        w = RandomStream(3, m).raw(m + 4)
        assert np.array_equal(u, _uniforms(w[:m]))
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.array_equal(s.raw(4), w[m:])

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

    @pytest.mark.parametrize("m", [8, *_EDGE_SIZES])
    def test_normals_transform_definition(self, m):
        """The documented transform of the same words, computed out of
        place, and the draw consumes 2 ceil(m/2) words."""
        k = (m + 1) // 2
        w = RandomStream(9, m).raw(2 * k + 4)
        u = _uniforms(w[: 2 * k])
        r = np.sqrt(-2.0 * np.log1p(-u[:k]))
        theta = 2.0 * np.pi * u[k:]
        expected = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:m]
        s = RandomStream(9, m)
        assert np.array_equal(s.normals(m), expected)
        assert np.array_equal(s.raw(4), w[2 * k :])

    def test_normals_moments(self):
        z = RandomStream(13).normals(200001)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_tiny_normals_consume_whole_pairs(self, m):
        """normals(m) consumes 2 ceil(m/2) words, none for m = 0."""
        s = RandomStream(1)
        assert s.normals(m).shape == (m,)
        used = 2 * ((m + 1) // 2)
        assert np.array_equal(s.raw(2), RandomStream(1).raw(used + 2)[used:])

    def test_bernoulli_values_and_rate(self):
        draws = RandomStream(17).bernoulli(0.01, 1000000)
        assert draws.dtype == np.float64
        assert set(np.unique(draws)) <= {0.0, 1.0}
        # 3 sigma for a million draws at rate 0.01 is about 0.0003
        assert abs(draws.mean() - 0.01) < 0.0005

    @pytest.mark.parametrize("m", [32, *_EDGE_SIZES])
    def test_bernoulli_is_threshold_on_uniforms(self, m):
        expected = (_uniforms(RandomStream(19, m).raw(m)) < 0.3).astype(float)
        assert np.array_equal(RandomStream(19, m).bernoulli(0.3, m), expected)

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


class TestBlocks:
    """Each draw is transformed in place, block by block (the transforms
    themselves are checked across block edges above)."""

    def test_block_is_a_power_of_two(self):
        assert _BLOCK >= 1 and _BLOCK & (_BLOCK - 1) == 0

    @pytest.mark.parametrize(
        "draw",
        [lambda s, m: s.normals(m), lambda s, m: s.uniforms(m), lambda s, m: s.bernoulli(0.3, m)],
        ids=["normals", "uniforms", "bernoulli"],
    )
    def test_peak_memory_is_the_output(self, draw):
        """At m = 10^6 a draw allocates at most its 8 m output bytes and
        1 MiB of block temporaries."""
        m = 10**6
        s = RandomStream(47)
        tracemalloc.start()
        try:
            draw(s, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m + 2**20
