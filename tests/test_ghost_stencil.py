"""The padded ghost-layer kernel against the whole-field roll reference.

Every ghost layer `ghost_pad` builds must equal the shifted field of
`roll_reference` at each offset, for endomorphism and connection data: bit
for bit at ranks 1 and 2 (the gather reproduces the dense products there),
within 1e-15 relative elsewhere (the dense products at rank >= 3 round
differently).  A connection is central, so its scalar rule
`connection_seam` is checked against the dense rule applied to a Id.

`padded_stencil`, one weighted sum of slices of the whole padded field, is
the oracle `d4` must match bit for bit, signs of zero included.
"""

import numpy as np
import pytest

import roll_reference as ref
from fareyflow.torus_he import EndoField, TorusGrid, TwistData
from fareyflow.torus_he.twist import connection_seam, d4, endo_seam, ghost_pad

DEGREES = (-5, -1, 0, 1, 3)
SEAM_CONST = 0.7 - 1.3j
W = 3


def _rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _agree(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert _rel(got, want) <= 1e-15


def _offsets(P, axis, N):
    """{s: padded array read s steps away} for |s| <= W."""
    Pa = np.moveaxis(P, axis, 0)
    return {s: np.moveaxis(Pa[W + s:W + s + N], 0, axis) for s in range(-W, W + 1)}


def _random(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def padded_stencil(F, axis, weights, seam):
    """sum_s weights[s] F(node + s) along `axis`, as a Python sum (from 0) of
    the weighted slices of F padded once with ghosts on both sides."""
    w, N = max(abs(s) for s in weights), F.shape[axis]
    P = np.moveaxis(ghost_pad(F, axis, w, seam), axis, 0)
    return sum(c * np.moveaxis(P[w + s:w + s + N], 0, axis) for s, c in weights.items())


def _with_zeros(rng, F):
    """F with a fifth of its real and imaginary parts set to +0 or -0, and
    one whole row of nodes -0."""
    F = F.copy()
    for part in (F.real, F.imag):
        hit = rng.random(part.shape) < 0.2
        part[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    F[3] = -0.0
    return F


@pytest.mark.parametrize("rank", (1, 2, 3, 5))
def test_d4_matches_padded_stencil_bitwise(rank):
    """d4 accumulates its four rows in place and pads only the edge rows;
    the whole-field padded sum divided by 12 h is its oracle, byte for byte,
    on fields with signed zeros, on views that are not C-contiguous and on
    scalar connection components (real ones take complex ghosts across the
    y-seam)."""
    rng = np.random.default_rng(500 + rank)
    weights = {-2: 1, -1: -8, 1: 8, 2: -1}
    for N in (16, 32, 64):
        h = 1.0 / N
        for degree in DEGREES:
            F = _with_zeros(rng, _random(rng, (N, N, rank, rank)))
            seam = endo_seam(TwistData(rank, degree))
            for G in (F, np.swapaxes(F, 0, 1), np.broadcast_to(F[0, 0], F.shape)):
                for axis in (0, 1):
                    want = padded_stencil(G, axis, weights, seam) / (12 * h)
                    assert d4(G, axis, h, seam).tobytes() == want.tobytes()
        a = _with_zeros(rng, _random(rng, (N, N)))
        seam = connection_seam(SEAM_CONST)
        for G in (a, a.real.copy(), a.T):
            for axis in (0, 1):
                want = padded_stencil(G, axis, weights, seam) / (12 * h)
                assert d4(G, axis, h, seam).tobytes() == want.tobytes()


@pytest.mark.parametrize("rank", (1, 2, 3, 5))
def test_single_wirtinger_derivatives_match_the_pair(rank):
    """d_z and d_zbar form one combination each; both equal the matching
    half of `wirtinger` byte for byte."""
    rng = np.random.default_rng(600 + rank)
    for N, tau in ((16, 0.3 + 1.1j), (32, 1j)):
        g = TorusGrid(tau, N)
        for degree in DEGREES:
            f = EndoField(g, TwistData(rank, degree), _random(rng, (N, N, rank, rank)))
            dz, dzb = f.wirtinger()
            assert f.d_z().tobytes() == dz.tobytes()
            assert f.d_zbar().tobytes() == dzb.tobytes()


@pytest.mark.parametrize("rank", range(1, 9))
def test_ghost_layers_match_roll_reference(rank):
    rng = np.random.default_rng(100 + rank)
    for N in (16, 64):
        g = TorusGrid(0.3 + 1.1j, N)
        for degree in DEGREES:
            tw = TwistData(rank, degree)
            F = _random(rng, (N, N, rank, rank))
            seam = endo_seam(tw)
            for axis in (0, 1):
                got = _offsets(ghost_pad(F, axis, W, seam), axis, N)
                for s in range(-W, W + 1):
                    _agree(got[s], ref.shift_endo(F, tw, axis, s), rank <= 2)
                _agree(d4(F, axis, g.h, seam),
                       ref.d4(lambda s: ref.shift_endo(F, tw, axis, s), g.h), rank <= 2)


@pytest.mark.parametrize("rank", range(1, 9))
def test_connection_seam_matches_roll_reference(rank):
    """Ghost layers of a scalar component a, times Id, equal the dense
    conjugation rule plus the y-seam constant applied to a Id."""
    rng = np.random.default_rng(300 + rank)
    eye = np.eye(rank)
    for N in (16, 64):
        g = TorusGrid(0.3 + 1.1j, N)
        for degree in DEGREES:
            tw = TwistData(rank, degree)
            a = _random(rng, (N, N))
            A = a[..., None, None] * eye
            for jump in (2j * np.pi * degree / rank, SEAM_CONST):
                seam = connection_seam(jump)
                for axis in (0, 1):
                    got = _offsets(ghost_pad(a, axis, W, seam), axis, N)
                    for s in range(-W, W + 1):
                        want = ref.shift_connection(A, tw, axis, s, jump)
                        _agree(got[s][..., None, None] * eye, want, rank <= 2)
                    want = ref.d4(lambda s: ref.shift_connection(A, tw, axis, s, jump), g.h)
                    _agree(d4(a, axis, g.h, seam)[..., None, None] * eye, want, rank <= 2)


@pytest.mark.parametrize("rank", range(1, 9))
def test_seam_probes_match_roll_reference(rank):
    """The 6-point interpolation probe as one padded sum, and the up-and-back
    crossing as two nested `ghost_pad`s, against their roll forms."""
    rng = np.random.default_rng(200 + rank)
    N = 16
    for degree in DEGREES:
        tw = TwistData(rank, degree)
        F = _random(rng, (N, N, rank, rank))
        seam = endo_seam(tw)
        jump = max(float(np.abs(padded_stencil(F, axis, ref.PROBE, seam) - F).max())
                   for axis in (0, 1))
        trip = max(float(np.abs(np.take(ghost_pad(ghost_pad(F, axis, 1, seam), axis, 1, seam),
                                        0, axis) - np.take(F, 0, axis)).max())
                   for axis in (0, 1))
        want_jump, want_trip = ref.endo_seam_jump(F, tw), ref.endo_seam_roundtrip(F, tw)
        if rank <= 2:
            assert jump == want_jump and trip == want_trip
        else:
            assert abs(jump - want_jump) <= 1e-15 * want_jump
            assert abs(trip - want_trip) <= 1e-15 * np.abs(F).max()
