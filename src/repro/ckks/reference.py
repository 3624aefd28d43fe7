"""Slow, obviously-correct oracles that the fast paths are tested against.

Imported only by tests.  Each oracle is the textbook form of a kernel
whose production version is optimised; a differential test runs both
and compares.

* :func:`encode_vandermonde` / :func:`decode_vandermonde` — the dense
  canonical-embedding product that :mod:`repro.ckks.encoding`'s
  special FFT replaces.  They build the N/2 x N matrix on every call
  (128 MiB at N=4096), so keep them to small rings.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.encoding import _embedding_matrix


def encode_vandermonde(message, ring_degree: int,
                       scale: float) -> np.ndarray:
    """``c_k = rint((2 Delta / N) Re(sum_j z_j conj(zeta^{5^j k})))``.

    Same tiling rule as the fast encoder; returns an object array of
    Python ints.
    """
    n_slots = ring_degree // 2
    msg = np.asarray(message, dtype=np.complex128).ravel()
    full = np.tile(msg, n_slots // len(msg))
    emb = _embedding_matrix(ring_degree, n_slots)
    # Re(z . conj(E)) == Re(conj(z) . E), without an N/2 x N conj copy
    coeffs = (2.0 * scale / ring_degree) * np.real(np.conj(full) @ emb)
    return np.array([int(v) for v in np.rint(coeffs)], dtype=object)


def decode_vandermonde(coeffs, ring_degree: int, scale: float) -> np.ndarray:
    """All ``N/2`` slots ``E c / Delta`` by the dense embedding."""
    emb = _embedding_matrix(ring_degree, ring_degree // 2)
    return emb @ np.asarray([float(c) for c in coeffs]) / scale
