"""Canonical-embedding encoding between complex vectors and plaintexts.

CKKS packs a vector of ``n <= N/2`` complex numbers into one plaintext
polynomial by inverting the canonical embedding: slot ``j`` is the
polynomial's value at ``zeta^{5^j}`` where ``zeta = exp(i*pi/N)`` is a
primitive 2N-th root of unity.  The ``5^j`` ordering makes the Galois
automorphism ``X -> X^5`` act as a cyclic rotation of the slots, which
is what gives **HRot** its meaning.

The encoder is HEAAN's special FFT, O(N log N).  The odd powers
``zeta^{2t+1}`` are ``zeta * omega^t`` with ``omega = zeta^2`` a
primitive N-th root, so evaluating ``m(X)`` at all 2N-th roots is one
length-N DFT of the twisted coefficients ``c_k zeta^k``.  Slot ``j``
sits at DFT index ``(5^j - 1)/2`` and its conjugate at
``(2N - 5^j - 1)/2``; the two index sets cover every odd root, so

* decode: ``z = N * ifft(c * twist)[pos] / Delta``;
* encode: scatter ``z`` and ``conj(z)`` to those indices, then
  ``c = Re(conj(twist) * fft(v)) * Delta / N``.

The only cached state is the O(N) index and twist tables.  Rounded
coefficients come back as an ``int64`` array while they fit below
``2^62`` (the RNS split reduces that vectorised); only larger scales
fall back to an object array of Python ints.  The dense Vandermonde
form survives as :func:`_embedding_matrix` (uncached), which
bootstrapping's linear transforms and the test oracle in
:mod:`repro.ckks.reference` build on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.obs import get_tracer

# Rounded coefficients at or above this magnitude leave the int64 path.
INT64_LIMIT = 2.0 ** 62


def _slot_exponents(ring_degree: int, num_slots: int) -> np.ndarray:
    """Exponents ``5^j mod 2N`` addressing each slot's root."""
    two_n = 2 * ring_degree
    exps = np.empty(num_slots, dtype=np.int64)
    e = 1
    for j in range(num_slots):
        exps[j] = e
        e = (e * 5) % two_n
    return exps


def _embedding_matrix(ring_degree: int, num_slots: int) -> np.ndarray:
    """Matrix E with ``E[j, k] = zeta^{e_j * k}`` (slot j, coefficient k).

    Dense N/2 x N and deliberately uncached: only bootstrapping's
    precomputation and the test oracle need it.
    """
    exponent = np.outer(_slot_exponents(ring_degree, num_slots),
                        np.arange(ring_degree))
    exponent %= 2 * ring_degree
    emb = exponent * (1j * np.pi / ring_degree)
    return np.exp(emb, out=emb)


@lru_cache(maxsize=8)
def _fft_tables(ring_degree: int) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """``(slot positions, conjugate positions, twist)`` for ring ``N``."""
    exps = _slot_exponents(ring_degree, ring_degree // 2)
    pos = (exps - 1) // 2
    conj_pos = (2 * ring_degree - exps - 1) // 2
    twist = np.exp((1j * np.pi / ring_degree) * np.arange(ring_degree))
    for table in (pos, conj_pos, twist):
        table.flags.writeable = False
    return pos, conj_pos, twist


def encode_to_coeffs(message, ring_degree: int, scale: float) -> np.ndarray:
    """Encode complex slots into integer polynomial coefficients.

    ``message`` may have any length up to ``N/2``; shorter vectors are
    *repeated* to fill all slots (matching the usual sparse-packing
    convention, and keeping rotations meaningful).  Returns an
    ``int64`` array when every rounded coefficient is below ``2^62``
    in magnitude, otherwise an object array of Python ints.
    """
    n_slots = ring_degree // 2
    msg = np.asarray(message, dtype=np.complex128).ravel()
    if len(msg) == 0 or len(msg) > n_slots:
        raise ValueError(f"message length must be in [1, {n_slots}]")
    if n_slots % len(msg) != 0:
        raise ValueError("message length must divide the slot count")
    full = np.tile(msg, n_slots // len(msg))
    pos, conj_pos, twist = _fft_tables(ring_degree)
    spectrum = np.empty(ring_degree, dtype=np.complex128)
    spectrum[pos] = full
    spectrum[conj_pos] = np.conj(full)
    values = np.fft.fft(spectrum)
    values *= np.conj(twist)
    coeffs = np.rint(values.real * (scale / ring_degree))
    if np.max(np.abs(coeffs)) < INT64_LIMIT:
        get_tracer().count("encoding.encode.int64")
        return coeffs.astype(np.int64)
    get_tracer().count("encoding.encode.object")
    boxed = np.empty(ring_degree, dtype=object)
    boxed[:] = [int(v) for v in coeffs]
    return boxed


def decode_from_coeffs(coeffs, ring_degree: int, scale: float,
                       num_slots: int | None = None) -> np.ndarray:
    """Evaluate integer coefficients at the slot roots and unscale.

    ``coeffs`` may be an int64/float array, an object array or a list
    of Python ints; each converts to float64 in one bulk cast.
    """
    n_slots = ring_degree // 2
    if num_slots is None:
        num_slots = n_slots
    pos, _, twist = _fft_tables(ring_degree)
    real = np.asarray(coeffs).astype(np.float64)
    values = np.fft.ifft(real * twist, norm="forward")
    return values[pos[:num_slots]] / scale


def rotation_galois_element(ring_degree: int, steps: int) -> int:
    """Galois element ``5^steps mod 2N`` rotating slots left by ``steps``."""
    two_n = 2 * ring_degree
    return pow(5, steps % (ring_degree // 2), two_n)


def conjugation_galois_element(ring_degree: int) -> int:
    """Galois element ``-1 mod 2N`` conjugating every slot."""
    return 2 * ring_degree - 1
