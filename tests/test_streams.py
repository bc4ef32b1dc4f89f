"""Raw PCG64 words of SeedSequence-keyed streams, computed without a Generator."""

import numpy as np
import pytest

from qsteal.streams import key_words, raw_words
from qsteal.training import spsa_signs

#: one to seven key words after the seed's, so pool rounds past the fourth word run
_KEYS = [[3], [3, 1], [9, 0, 2], [1, 2, 3, 4], [5, 0, 0, 7, 1], [2**32 - 1] * 6, list(range(7))]


class TestRawWords:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3], ids=["0", "2^32-1", "2^32", "2^64+3"])
    @pytest.mark.parametrize("count", [1, 2, 16, 501])
    def test_words_equal_pcg64_random_raw(self, seed, count):
        # the seed's words shared by both rows, the rest each row's own
        for tail in _KEYS:
            rows = (key_words(seed) + tail, key_words(seed) + tail[::-1])
            got = raw_words(key_words(seed) + [np.array(pair, np.uint32) for pair in zip(tail, tail[::-1])], count)
            assert got.dtype == np.uint64 and got.shape == (2, count)
            for row, words in zip(got, rows):
                want = np.random.PCG64(np.random.SeedSequence(words)).random_raw(count)
                assert row.tobytes() == want.tobytes()


class TestKeyWords:
    @pytest.mark.parametrize("n", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100])
    def test_words_key_the_stream_the_int_keys(self, n):
        words = key_words(n)
        assert all(0 <= w < 2**32 for w in words) and (len(words) == 1 or words[-1])
        want = np.random.SeedSequence(n).generate_state(4)
        assert np.random.SeedSequence(words).generate_state(4).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [-1, -(2**40)])
    def test_negative_ints_are_refused(self, n):
        with pytest.raises(ValueError, match=f"got {n}"):
            key_words(n)

    def test_a_negative_seed_never_reaches_the_sign_draw(self):
        with pytest.raises(ValueError, match="got -1"):
            spsa_signs(-1, 0, 2, 4, 8)
        with pytest.raises(ValueError, match="got -3"):
            spsa_signs(0, -3, 2, 4, 8)
