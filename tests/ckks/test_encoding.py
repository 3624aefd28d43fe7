"""Canonical-embedding encoder: round trips, slots, Galois action."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.ckks import encoding, reference

N = 32
SLOTS = N // 2
SCALE = float(2 ** 28)


class TestRoundTrip:
    def test_real_vector(self, rng):
        msg = rng.uniform(-3, 3, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        back = encoding.decode_from_coeffs(coeffs, N, SCALE)
        assert np.max(np.abs(back - msg)) < 1e-6

    def test_complex_vector(self, rng):
        msg = rng.uniform(-1, 1, SLOTS) + 1j * rng.uniform(-1, 1, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        back = encoding.decode_from_coeffs(coeffs, N, SCALE)
        assert np.max(np.abs(back - msg)) < 1e-6

    def test_short_vector_tiles(self, rng):
        msg = np.array([1.0, -2.0, 0.5, 4.0])
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        back = encoding.decode_from_coeffs(coeffs, N, SCALE)
        assert np.max(np.abs(back - np.tile(msg, SLOTS // 4))) < 1e-6

    def test_coefficients_exact_on_both_paths(self, rng):
        """int64 below 2^62, Python ints above; values exact on both."""
        # int64 path: re-encoding the slots of a known integer
        # polynomial gives that polynomial back, digit for digit.
        poly = rng.integers(-1000, 1000, N)
        slots = reference.decode_vandermonde(poly, N, SCALE)
        coeffs = encoding.encode_to_coeffs(slots, N, SCALE)
        assert coeffs.dtype == np.int64
        np.testing.assert_array_equal(coeffs, poly)
        # object path: 2^70 * 3 exceeds int64; the constant polynomial
        # is exact, every entry a Python int.
        big = float(2 ** 70)
        coeffs = encoding.encode_to_coeffs([-3.0], N, big)
        assert coeffs.dtype == object
        assert all(type(c) is int for c in coeffs)
        assert list(coeffs) == [-3 * 2 ** 70] + [0] * (N - 1)
        msg = rng.uniform(-1, 1, SLOTS) + 1j * rng.uniform(-1, 1, SLOTS)
        back = encoding.decode_from_coeffs(
            encoding.encode_to_coeffs(msg, N, big), N, big)
        assert np.max(np.abs(back - msg)) < 1e-9

    def test_scaling_factor_applied(self):
        coeffs = encoding.encode_to_coeffs([1.0], N, SCALE)
        # constant vector 1.0 encodes to constant polynomial Delta
        assert abs(int(coeffs[0]) - SCALE) <= 1
        assert all(abs(int(c)) <= 1 for c in coeffs[1:])

    def test_precision_improves_with_scale(self, rng):
        msg = rng.uniform(-1, 1, SLOTS)
        errs = []
        for bits in (12, 20, 28):
            scale = float(2 ** bits)
            coeffs = encoding.encode_to_coeffs(msg, N, scale)
            back = encoding.decode_from_coeffs(coeffs, N, scale)
            errs.append(np.max(np.abs(back - msg)))
        assert errs[0] > errs[1] > errs[2]


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encoding.encode_to_coeffs([], N, SCALE)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            encoding.encode_to_coeffs(np.ones(SLOTS + 1), N, SCALE)

    def test_non_divisor_length_rejected(self):
        with pytest.raises(ValueError):
            encoding.encode_to_coeffs(np.ones(3), N, SCALE)


class TestGaloisElements:
    def test_rotation_element_is_power_of_5(self):
        assert encoding.rotation_galois_element(N, 1) == 5
        assert encoding.rotation_galois_element(N, 2) == 25 % (2 * N)

    def test_rotation_element_wraps_at_slot_count(self):
        assert encoding.rotation_galois_element(N, SLOTS) == \
            encoding.rotation_galois_element(N, 0)

    def test_conjugation_element(self):
        assert encoding.conjugation_galois_element(N) == 2 * N - 1

    def test_rotation_moves_slots_left(self, rng):
        """Slot semantics via raw coefficients: encode, apply the
        Galois map to the coefficients, decode, compare to roll."""
        from repro.ckks import rns, primes
        msg = rng.uniform(-1, 1, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        moduli = primes.ntt_primes(2, 28, N)
        poly = rns.from_big_ints(list(coeffs), moduli, N)
        g = encoding.rotation_galois_element(N, 3)
        rotated = rns.compose_crt(poly.automorphism(g))
        back = encoding.decode_from_coeffs(rotated, N, SCALE)
        assert np.max(np.abs(back - np.roll(msg, -3))) < 1e-5

    def test_conjugation_conjugates_slots(self, rng):
        from repro.ckks import rns, primes
        msg = rng.uniform(-1, 1, SLOTS) + 1j * rng.uniform(-1, 1, SLOTS)
        coeffs = encoding.encode_to_coeffs(msg, N, SCALE)
        moduli = primes.ntt_primes(2, 28, N)
        poly = rns.from_big_ints(list(coeffs), moduli, N)
        g = encoding.conjugation_galois_element(N)
        conj = rns.compose_crt(poly.automorphism(g))
        back = encoding.decode_from_coeffs(conj, N, SCALE)
        assert np.max(np.abs(back - np.conj(msg))) < 1e-5


class TestHomomorphicStructure:
    def test_encoding_is_additive(self, rng):
        a = rng.uniform(-1, 1, SLOTS)
        b = rng.uniform(-1, 1, SLOTS)
        ca = encoding.encode_to_coeffs(a, N, SCALE)
        cb = encoding.encode_to_coeffs(b, N, SCALE)
        summed = np.array([int(x) + int(y) for x, y in zip(ca, cb)],
                          dtype=object)
        back = encoding.decode_from_coeffs(summed, N, SCALE)
        assert np.max(np.abs(back - (a + b))) < 1e-5

    def test_negacyclic_product_multiplies_slots(self, rng):
        a = rng.uniform(-1, 1, SLOTS)
        b = rng.uniform(-1, 1, SLOTS)
        ca = encoding.encode_to_coeffs(a, N, SCALE)
        cb = encoding.encode_to_coeffs(b, N, SCALE)
        prod = [0] * N
        for i in range(N):
            for j in range(N):
                k, sgn = (i + j, 1) if i + j < N else (i + j - N, -1)
                prod[k] += sgn * int(ca[i]) * int(cb[j])
        back = encoding.decode_from_coeffs(
            np.array(prod, dtype=object), N, SCALE * SCALE)
        assert np.max(np.abs(back - a * b)) < 1e-4


@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 32, 128]))
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_any_ring(seed, n):
    rng = np.random.default_rng(seed)
    msg = rng.uniform(-2, 2, n // 2)
    coeffs = encoding.encode_to_coeffs(msg, n, SCALE)
    back = encoding.decode_from_coeffs(coeffs, n, SCALE)
    assert np.max(np.abs(back - msg)) < 1e-5


class TestPathCounters:
    @pytest.mark.parametrize("bits, fired, silent", [
        (28, "encoding.encode.int64", "encoding.encode.object"),
        (70, "encoding.encode.object", "encoding.encode.int64"),
    ])
    def test_counter_names_the_path(self, bits, fired, silent):
        obs.configure(enabled=True, reset=True)
        try:
            encoding.encode_to_coeffs([0.5, -0.25], N, float(2 ** bits))
            counters = obs.get_tracer().metrics.counters()
            assert counters.get(fired) == 1
            assert silent not in counters
        finally:
            obs.configure(enabled=False, reset=True)


# -- special FFT against the dense Vandermonde oracle -----------------------

ORACLE_SCALE = float(2 ** 36)


def _apply_galois(coeffs, g, n):
    """``c(X) -> c(X^g)`` on a plain integer coefficient vector."""
    out = np.zeros(n, dtype=np.int64)
    idx = (np.arange(n) * g) % (2 * n)
    wrapped = idx >= n
    out[idx % n] = np.where(wrapped, -coeffs, coeffs)
    return out


@st.composite
def _oracle_case(draw):
    n = draw(st.sampled_from([2 ** k for k in range(4, 13)]))
    slots = n // 2
    length = slots >> draw(st.integers(0, slots.bit_length() - 1))
    kind = draw(st.sampled_from(["real", "complex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    msg = rng.uniform(-2, 2, length)
    if kind == "complex":
        msg = msg + 1j * rng.uniform(-2, 2, length)
    return n, msg


@given(_oracle_case())
@settings(max_examples=30, deadline=None)
def test_fft_matches_vandermonde_oracle(case):
    n, msg = case
    fast = encoding.encode_to_coeffs(msg, n, ORACLE_SCALE)
    slow = reference.encode_vandermonde(msg, n, ORACLE_SCALE)
    assert fast.dtype == np.int64
    assert np.max(np.abs(fast - slow.astype(np.int64))) <= 1
    got = encoding.decode_from_coeffs(fast, n, ORACLE_SCALE)
    want = reference.decode_vandermonde(fast, n, ORACLE_SCALE)
    assert np.max(np.abs(got - want)) < 1e-9
    # the Galois elements still rotate and conjugate the slots
    full = np.tile(msg, (n // 2) // len(msg))
    steps = len(msg) // 2 + 1
    rotated = _apply_galois(
        fast, encoding.rotation_galois_element(n, steps), n)
    back = encoding.decode_from_coeffs(rotated, n, ORACLE_SCALE)
    assert np.max(np.abs(back - np.roll(full, -steps))) < 1e-6
    conj = _apply_galois(fast, encoding.conjugation_galois_element(n), n)
    back = encoding.decode_from_coeffs(conj, n, ORACLE_SCALE)
    assert np.max(np.abs(back - np.conj(full))) < 1e-6


def test_top_rung_ring_degree_round_trips_in_bounded_memory():
    """N = 2^16 (Table 2): the dense embedding would be 32 GiB."""
    import tracemalloc
    n = 2 ** 16
    rng = np.random.default_rng(16)
    msg = rng.uniform(-1, 1, n // 2) + 1j * rng.uniform(-1, 1, n // 2)
    tracemalloc.start()
    try:
        coeffs = encoding.encode_to_coeffs(msg, n, ORACLE_SCALE)
        back = encoding.decode_from_coeffs(coeffs, n, ORACLE_SCALE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coeffs.dtype == np.int64
    assert np.max(np.abs(back - msg)) < 1e-6
    assert peak < 64 * 2 ** 20
