"""The row-blocked kernels against their one-block form, byte for byte.

`fiber.mm` at rank 2, `fiber.centred_sum` (so `twist.d4` and
`coulomb.diff4`), the d_x/d_y combination of `EndoField` and the trace of
`hermitian._form_norm_sq` fill their output one block of leading rows at a
time.  Raising `fiber._BLOCK_BYTES` past every field's size turns each into
its one-block form, the single whole-field pass it replaces; lowering it
makes a small field span many blocks.  Shapes span several blocks and end in
a partial one; fields carry signed zeros, a NaN and an inf, and those still
reach the checks that refuse them by name.
"""

import numpy as np
import pytest

from fareyflow import fiber
from fareyflow.coulomb import diff4
from fareyflow.torus_he import (EndoField, MetricField, TorusGrid, TwistData,
                                identity_metric, second_fundamental_form,
                                theta_section, threshold_probe)
from fareyflow.torus_he.hermitian import SecondFundamentalForm, _form_norm_sq
from fareyflow.torus_he.twist import d4, endo_seam

# the NaN and inf entries make numpy warn; the values are what is checked
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

ONE_BLOCK = 1 << 40
GRIDS = (130, 256)


def _field(rng, shape, complex_, special=True):
    """Random field with a fifth of its parts +0 or -0 and, if `special`, one
    NaN and one inf entry in the last rows (so in the last block)."""
    F = rng.normal(size=shape)
    if complex_:
        F = F + 1j * rng.normal(size=shape)
    for part in ((F.real, F.imag) if complex_ else (F,)):
        hit = rng.random(part.shape) < 0.2
        part[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    if special:
        F[-3, -1] = np.nan
        F[-2, 0] = np.inf
    return F


def _both(monkeypatch, kernel):
    """kernel() with the default blocks and as one block."""
    blocked = kernel()
    with monkeypatch.context() as m:
        m.setattr(fiber, "_BLOCK_BYTES", ONE_BLOCK)
        whole = kernel()
    return blocked, whole


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_block_sizes():
    """A complex rank-2 field at N = 64 or 65 is one block, so the flow and
    Coulomb grids run one whole-field pass as before; at N = 128 (the
    `chern-weil` default) and up it spans several, the last one partial."""
    for N in (64, 65):
        assert fiber.row_blocks(np.empty((N, N, 2, 2), complex)) == [slice(0, N)]
    # the flattened sums `centred_sum` forms of a (64, 64, 2, 2) field
    assert len(fiber.row_blocks(np.empty(64 * 64 * 4 - 4 * 64, complex))) == 1
    for N, r in ((128, 2), (130, 2), (256, 1), (256, 3)):
        F = np.empty((N, N, r, r), complex)
        blocks = fiber.row_blocks(F)
        assert len(blocks) > 1 and blocks[0].start == 0 and blocks[-1].stop == N
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [s.stop - s.start for s in blocks]
        assert max(sizes) * F[0].nbytes <= fiber._BLOCK_BYTES and sizes[-1] <= sizes[0]
        assert sizes[-1] < sizes[0] or r == 3
    assert fiber.row_blocks(np.empty((3, 1 << 20))) == [slice(0, 1), slice(1, 2), slice(2, 3)]


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("r", (1, 2, 3))
@pytest.mark.parametrize("complex_", (False, True))
def test_mm_matches_one_block(monkeypatch, N, r, complex_):
    """Whole operands, a broadcast (r, r) and a broadcast (N, 1, r, r) one."""
    rng = np.random.default_rng(N + 10 * r + complex_)
    A = _field(rng, (N, N, r, r), complex_)
    B = _field(rng, (N, N, r, r), not complex_)
    small = _field(rng, (r, r), complex_, special=False)
    column = _field(rng, (N, 1, r, r), complex_)
    for X, Y in ((A, B), (B, A), (A, small), (small, B), (column, B), (A, column)):
        _same(*_both(monkeypatch, lambda: fiber.mm(X, Y)))


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("r", (1, 2, 3))
@pytest.mark.parametrize("complex_", (False, True))
def test_centred_sum_matches_one_block(monkeypatch, N, r, complex_):
    """Both stencil axes, the division by 12 h included, on C-ordered and
    swapped fields; through `diff4` on the Coulomb grid's N + 1 too."""
    rng = np.random.default_rng(N + 10 * r + complex_)
    F = _field(rng, (N, N, r, r), complex_)
    h = 1.0 / N
    for G in (F, np.swapaxes(F, 0, 1)):
        for axis in (0, 1):
            step = int(np.prod(G.shape[axis + 1:]))     # the ends are left unset
            for dtype in {np.result_type(G, 1.0), np.dtype(complex)}:
                _same(*(out.reshape(-1)[2 * step:-2 * step] for out in _both(
                    monkeypatch, lambda: fiber.centred_sum(G, axis, h, dtype))))
    G = _field(rng, (N + 1, N + 1, r, r), complex_)
    for axis in (0, 1):
        _same(*_both(monkeypatch, lambda: diff4(G, axis, h)))


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("r", (1, 2, 3))
def test_derivatives_match_one_block(monkeypatch, N, r):
    """d4 along both axes and every d_x/d_y combination `EndoField` forms."""
    rng = np.random.default_rng(N + r)
    g, tw = TorusGrid(0.3 + 1.1j, N), TwistData(r, 1)
    F = _field(rng, (N, N, r, r), True)
    seam = endo_seam(tw)
    for axis in (0, 1):
        _same(*_both(monkeypatch, lambda: d4(F, axis, g.h, seam)))
    f = EndoField(g, tw, F)
    for derivatives in (f.wirtinger, f.d_z, f.d_zbar):
        got, want = _both(monkeypatch, lambda: np.stack(derivatives()))
        _same(got, want)


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("r", (1, 2, 3))
def test_form_norm_matches_one_block(monkeypatch, N, r):
    """The trace on the identity metric and on a general one, against the
    whole-field sum over the C-ordered product as well."""
    rng = np.random.default_rng(N + r)
    g, tw = TorusGrid(1j, N), TwistData(r, 1)
    b = _field(rng, (N, N, r, r), True)
    M = _field(rng, (N, N, r, r), True, special=False)
    K = MetricField(g, tw, fiber.mm(fiber.dagger(M), M) + np.eye(r))
    for H in (identity_metric(g, tw), K):
        got, want = _both(monkeypatch, lambda: _form_norm_sq(b, H))
        _same(got, want)
        A = np.ascontiguousarray(fiber.dagger(b)) if H.is_identity \
            else fiber.mm(H.inv(), fiber.dagger(b))
        B = b if H.is_identity else fiber.mm(H.data, b)
        whole = 2 * g.v * np.sum(A * np.swapaxes(B, -1, -2), axis=(-2, -1)).real
        _same(got, whole)


def test_small_blocks_match_one_block(monkeypatch):
    """Blocks of a few hundred bytes: every row (or element) its own block;
    the second fundamental form, its blocked holomorphy residual included."""
    rng = np.random.default_rng(7)
    g, tw = TorusGrid(1j, 16), TwistData(2, 1)
    F = _field(rng, (16, 16, 2, 2), True)
    H = identity_metric(g, tw)
    kernels = (lambda: fiber.mm(F, F), lambda: fiber.centred_sum(F, 1, g.h, complex)[:, 2:-2],
               lambda: np.stack(EndoField(g, tw, F).wirtinger()), lambda: _form_norm_sq(F, H))
    for kernel in kernels:
        want = kernel()
        with monkeypatch.context() as m:
            m.setattr(fiber, "_BLOCK_BYTES", 200)
            _same(kernel(), want)
    sec = theta_section(tw, g, (0, 0))
    want = second_fundamental_form(sec, H, None)
    with monkeypatch.context() as m:
        m.setattr(fiber, "_BLOCK_BYTES", 200)
        got = second_fundamental_form(sec, H, None)
    for a, b in ((got.beta, want.beta), (got.norm_sq, want.norm_sq)):
        _same(a, b)
    assert got.holomorphy_residual.hex() == want.holomorphy_residual.hex()


def test_non_finite_entries_reach_the_named_checks():
    """A NaN or an inf in the last block still reaches the refusals."""
    rng = np.random.default_rng(3)
    N, g, tw = 256, TorusGrid(1j, 256), TwistData(2, 1)
    for bad in (np.nan, np.inf):
        A = _field(rng, (N, N, 2, 2), True, special=False)
        A[-2, 9, 1, 0] = bad
        with pytest.raises(ValueError, match=r"min reciprocal condition nan"):
            fiber.inv(fiber.mm(A, A))
        D = fiber.hermitize(EndoField(g, tw, A).d_z())
        with pytest.raises(ValueError, match=r"not positive definite \(min eigenvalue (nan|-inf)\)"):
            fiber.herm_apply(fiber.LOG, D)
    b = _field(rng, (N, N, 2, 2), True, special=False)
    b[-1, 3, 0, 1] = np.nan
    sff = SecondFundamentalForm(b, None, _form_norm_sq(b, identity_metric(g, tw)), 0.0)
    with pytest.raises(ValueError, match=r"mean \|beta\|\^2 is nan"):
        threshold_probe(sff)
