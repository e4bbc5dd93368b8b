"""fareyflow.fiber against numpy's einsum, eigh, inv and svd, at every rank branch.

Spectra are built as U diag(lam) U^dag from a random unitary U, so the
eigenvalues are chosen: well separated, near-degenerate (gap g from 0 to
1e-3 |m|, across the rank-2 series switch at 1e-4), or ill-conditioned
(condition number up to 1e8).
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fareyflow import fiber
from fareyflow.torus_he import phi_multiplier

RANKS = (1, 2, 3, 4, 8)
BATCHES = ((), (3,), (2, 3), (4, 1, 2))
EPS = np.finfo(float).eps


def _unitary(rng, batch, r):
    z = rng.normal(size=batch + (r, r)) + 1j * rng.normal(size=batch + (r, r))
    return np.linalg.qr(z)[0]


def _hermitian(lam, U):
    H = np.einsum("...ab,...b,...cb->...ac", U, lam, U.conj())
    return 0.5 * (H + fiber.dagger(H))


def _spectrum(rng, batch, r, kind):
    """Eigenvalues (batch + (r,)) of the given kind; positive unless 'signed'."""
    if kind == "signed":
        return rng.uniform(-3.0, 3.0, size=batch + (r,))
    if kind == "separated":
        return np.exp(rng.uniform(-2.0, 2.0, size=batch + (r,)))
    if kind == "degenerate":
        m = np.exp(rng.uniform(-1.0, 1.0, size=batch + (1,)))
        rel = 10.0 ** rng.uniform(-16.0, -3.0, size=batch + (1,))
        rel[rng.random(size=rel.shape) < 0.2] = 0.0
        return m * (1.0 + rel * np.linspace(-1.0, 1.0, r))
    if kind == "ill":
        cond = 10.0 ** rng.uniform(0.0, 8.0, size=batch + (1,))
        return np.exp(rng.uniform(-1.0, 1.0, size=batch + (1,))) \
            * cond ** -np.linspace(0.0, 1.0, r)
    raise ValueError(kind)


def _oracle(values, H):
    lam, P = np.linalg.eigh(H)
    return np.einsum("...ab,...b,...cb->...ac", P, values(lam), P.conj())


def _rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def _cond(lam):
    return float((lam.max(axis=-1) / lam.min(axis=-1)).max())


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batches=st.sampled_from([((), ()), ((3,), (3,)), ((2, 1), (3,)),
                                ((4, 1, 2), (1, 2)), ((), (2, 3))]),
       real=st.booleans())
@example(seed=0, r=2, batches=((2, 1), (3,)), real=False)
def test_products_match_einsum(seed, r, batches, real):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=batches[0] + (r, r))
    B = rng.normal(size=batches[1] + (r, r)) + 1j * rng.normal(size=batches[1] + (r, r))
    if not real:
        A = A + 1j * rng.normal(size=A.shape)
    tol = 1e-14 * r
    ab = np.einsum("...ab,...bc->...ac", A, B)
    ba = np.einsum("...ab,...bc->...ac", B, A)
    got = fiber.mm(A, B)
    assert got.shape == ab.shape and got.dtype == ab.dtype
    assert np.abs(got - ab).max() <= tol * np.abs(A).max() * np.abs(B).max()
    assert np.abs(fiber.comm(A, B) - (ab - ba)).max() <= \
        2 * tol * np.abs(A).max() * np.abs(B).max()
    assert np.array_equal(fiber.dagger(B), np.conj(np.swapaxes(B, -1, -2)))


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batch=st.sampled_from(BATCHES), kind=st.sampled_from(["real", "imag", "complex"]))
@example(seed=0, r=3, batch=(4, 1, 2), kind="imag")
@example(seed=0, r=2, batch=(3,), kind="complex")
def test_commutator_with_a_scalar_vanishes(seed, r, batch, kind):
    """[a Id, B] = 0, so a central connection drops out of every commutator.

    Bit for bit when a is real or imaginary (as a_x, a_y of a unitary
    connection are).  For complex a the two products a B and B a are
    rounded separately (numpy's fused complex product is not commutative
    in its last bit), so the computed commutator is rounding noise.
    """
    rng = np.random.default_rng(seed)
    a = np.asarray(rng.normal(size=batch) * 10.0 ** rng.uniform(-8, 8, size=batch))
    if kind == "imag":
        a = 1j * a
    elif kind == "complex":
        a = a + 1j * rng.normal(size=batch) * np.abs(a)
    B = rng.normal(size=batch + (r, r)) + 1j * rng.normal(size=batch + (r, r))
    c = fiber.comm(a[..., None, None] * np.eye(r), B)
    assert c.shape == B.shape
    if kind == "complex":
        assert np.all(np.abs(c) <= 4 * EPS * np.abs(a)[..., None, None] * np.abs(B))
    else:
        assert np.all(c == 0)


def test_constant_matrix_conjugation():
    """M block M^dag with a constant unitary M through fiber.mm, against einsum."""
    rng = np.random.default_rng(5)
    for r in RANKS:
        M = _unitary(rng, (), r)
        block = rng.normal(size=(4, 3, r, r)) + 1j * rng.normal(size=(4, 3, r, r))
        want = np.einsum("ab,...bc,dc->...ad", M, block, M.conj())
        got = fiber.mm(fiber.mm(M, block), fiber.dagger(M))
        assert np.abs(got - want).max() < 1e-13


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batch=st.sampled_from(BATCHES),
       kind=st.sampled_from(["signed", "separated", "degenerate", "ill"]))
@example(seed=1, r=2, batch=(3,), kind="degenerate")
def test_eigvalsh_matches_numpy(seed, r, batch, kind):
    rng = np.random.default_rng(seed)
    lam = _spectrum(rng, batch, r, kind)
    H = _hermitian(lam, _unitary(rng, batch, r))
    got = fiber.eigvalsh(H)
    want = np.linalg.eigvalsh(H)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 20 * r * EPS * np.abs(want).max()


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batch=st.sampled_from(BATCHES),
       kind=st.sampled_from(["signed", "separated", "degenerate"]),
       t=st.sampled_from([1.0, -1.0, 0.37, -2.5, 1j, -0.5j]))
@example(seed=2, r=2, batch=(2, 3), kind="degenerate", t=-2.5)
@example(seed=3, r=2, batch=(2, 3), kind="degenerate", t=1j)
def test_exp_matches_eigh(seed, r, batch, kind, t):
    rng = np.random.default_rng(seed)
    lam = _spectrum(rng, batch, r, kind)
    H = _hermitian(lam, _unitary(rng, batch, r))
    got = fiber.herm_apply(fiber.exp(t), H)
    want = _oracle(lambda x: np.exp(t * x), H)
    assert _rel_err(got, want) < 1e-13


def test_exp_of_scalar_fields_is_exact_at_rank_two():
    """g = 0 exactly: the series branch alone decides the off-diagonal."""
    m = np.array([-1.5, 0.0, 0.25, 2.0])
    H = m[:, None, None] * np.eye(2, dtype=complex)
    for t in (1.0, -0.7, 1j):
        got = fiber.herm_apply(fiber.exp(t), H)
        want = np.exp(t * m)[:, None, None] * np.eye(2)
        assert np.abs(got - want).max() < 1e-15
    assert np.abs(fiber.herm_apply(fiber.LOG, H[2:]) - np.log(m[2:])[:, None, None]
                  * np.eye(2)).max() < 1e-15


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batch=st.sampled_from(BATCHES),
       kind=st.sampled_from(["separated", "degenerate", "ill"]))
@example(seed=4, r=2, batch=(2, 3), kind="degenerate")
@example(seed=5, r=2, batch=(4, 1, 2), kind="ill")
def test_log_and_sqrt_pair_match_eigh(seed, r, batch, kind):
    rng = np.random.default_rng(seed)
    lam = _spectrum(rng, batch, r, kind)
    H = _hermitian(lam, _unitary(rng, batch, r))
    # both sides see H only through its rounded entries: the small eigenvalues
    # move by eps |H|, i.e. by eps * cond relative
    tol = 1e-13 + 50 * EPS * _cond(lam)
    log = fiber.herm_apply(fiber.LOG, H)
    assert np.abs(log - _oracle(np.log, H)).max() <= tol * max(1.0, np.abs(log).max())
    half, inv_half = fiber.herm_apply(fiber.SQRT_PAIR, H)
    assert _rel_err(half, _oracle(np.sqrt, H)) <= tol
    assert _rel_err(inv_half, _oracle(lambda x: 1.0 / np.sqrt(x), H)) <= tol
    assert np.array_equal(half, fiber.herm_apply(fiber.SQRT, H))
    eye = np.eye(r)
    assert np.abs(fiber.mm(half, inv_half) - eye).max() <= tol * np.sqrt(_cond(lam))


@pytest.mark.parametrize("r", RANKS)
def test_positive_functions_reject_with_measured_eigenvalue(r):
    rng = np.random.default_rng(r)
    lam = np.linspace(1.0, 2.0, r)
    lam[0] = -0.5
    H = _hermitian(lam, _unitary(rng, (3,), r))
    for f in (fiber.LOG, fiber.SQRT_PAIR, fiber.INV_SQRT):
        with pytest.raises(ValueError, match=r"min eigenvalue -5\.000e-01"):
            fiber.herm_apply(f, H)
    fiber.herm_apply(fiber.exp(1.0), H)     # exp has no domain restriction
    lam[0] = 0.0
    with pytest.raises(ValueError, match="not positive definite"):
        fiber.herm_apply(fiber.SQRT_PAIR, np.diag(lam).astype(complex))


def _phi_exact(x):
    with mpmath.workdps(60):
        x = mpmath.mpf(float(x))
        if x == 0:
            return 0.5
        return float((mpmath.exp(x) - x - 1) / x ** 2)


@settings(deadline=None, max_examples=60)
@given(m=st.floats(-3.0, 3.0), e=st.floats(-16.0, -3.0), zero=st.booleans(),
       sign=st.sampled_from([-1.0, 1.0]))
@example(m=1.0, e=-8.0, sign=1.0, zero=False)
@example(m=0.5, e=-7.7, sign=-1.0, zero=False)
def test_phi_multiplier_across_its_switches(m, e, zero, sign):
    """Near-degenerate pairs, gaps from 0 up to 1e-3 |m| and beyond."""
    gaps = [0.0 if zero else sign * 10.0 ** e * max(abs(m), 1.0), 0.0999, 0.1, 0.1001, 2.0]
    for gap in gaps:
        lam = np.array([m + gap, m])
        x = lam[0] - lam[1]
        out = phi_multiplier(lam)
        assert out[0, 0] == out[1, 1] == 0.5
        assert out[0, 1] == pytest.approx(_phi_exact(x), rel=4e-15)
        assert out[1, 0] == pytest.approx(_phi_exact(-x), rel=4e-15)


def _general(rng, batch, r, kind):
    """Non-normal field (batch + (r, r)): Gaussian entries, complex or real,
    or U diag(s) W^dag with independent unitaries and condition number up
    to 1e8 ('ill')."""
    if kind == "real":
        return rng.normal(size=batch + (r, r))
    if kind == "complex":
        return rng.normal(size=batch + (r, r)) + 1j * rng.normal(size=batch + (r, r))
    s = _spectrum(rng, batch, r, "ill")
    return np.einsum("...ab,...b,...cb->...ac", _unitary(rng, batch, r), s,
                     _unitary(rng, batch, r).conj())


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batch=st.sampled_from(BATCHES), kind=st.sampled_from(["real", "complex", "ill"]))
@example(seed=6, r=2, batch=(4, 1, 2), kind="ill")
def test_inv_matches_numpy(seed, r, batch, kind):
    rng = np.random.default_rng(seed)
    A = _general(rng, batch, r, kind)
    want = np.linalg.inv(A)
    got = fiber.inv(A)
    assert got.shape == want.shape and got.dtype == want.dtype
    # both inverses are backward stable: each is off by about eps * cond
    tol = 1e-13 + 50 * EPS * float(np.linalg.cond(A).max())
    assert _rel_err(got, want) <= tol
    assert np.abs(fiber.mm(got, A) - np.eye(r)).max() <= tol


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batch=st.sampled_from(BATCHES), kind=st.sampled_from(["real", "complex", "ill"]))
@example(seed=7, r=2, batch=(2, 3), kind="ill")
def test_op_norm_matches_svd(seed, r, batch, kind):
    rng = np.random.default_rng(seed)
    A = _general(rng, batch, r, kind)
    want = np.linalg.svd(A, compute_uv=False)[..., 0]
    got = fiber.op_norm(A)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 20 * r * EPS * np.abs(want).max()
    assert np.all(np.abs(got - want) <= 20 * r * EPS * want)


# (a, d, |b|) of H = [[a, b], [conj b, d]] at the branch edges of
# cross_block_norms, where u = (a - d) / (2 g) and |w| = |b| / g
EDGES = {"u=+0": (0.0, -0.0, 1.0), "u=-0": (-0.0, 0.0, 1.0),
         "u~+0": (1e-17, -1e-17, 1.0), "u~-0": (-1e-17, 1e-17, 1.0),
         "u~-1": (0.0, 2.0, 1e-9), "w=0,u>0": (2.0, -1.0, 0.0), "w=0,u<0": (-1.0, 2.0, 0.0)}


def _edge(rng, batch, kind):
    """(H, eigenvalues) at a branch edge; b has a random phase per node."""
    a, d, size = EDGES[kind]
    H = np.zeros(batch + (2, 2), complex)
    H[..., 0, 0], H[..., 1, 1] = a, d
    H[..., 0, 1] = size * np.exp(2j * np.pi * rng.random(batch))
    H[..., 1, 0] = np.conj(H[..., 0, 1])
    return H, np.linalg.eigvalsh(H)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.sampled_from(BATCHES),
       kind=st.sampled_from(["signed", "separated", "ill"]))
@example(seed=8, batch=(3,), kind="u=+0")
@example(seed=8, batch=(3,), kind="u=-0")
@example(seed=9, batch=(2, 3), kind="u~+0")
@example(seed=9, batch=(2, 3), kind="u~-0")
@example(seed=10, batch=(4, 1, 2), kind="u~-1")
@example(seed=11, batch=(), kind="w=0,u>0")
@example(seed=11, batch=(), kind="w=0,u<0")
def test_cross_block_norms_match_eigh_projectors(seed, batch, kind):
    """|P+ D P-|^2 and |P- D P+|^2 against projectors built from eigh, with
    the tolerance scaled by the eigenvector condition |H| / gap; the examples
    sit at the edges of the kernel's two eigenvector branches (u >= 0, u < 0)."""
    rng = np.random.default_rng(seed)
    if kind in EDGES:
        H, lam = _edge(rng, batch, kind)
    else:
        lam = _spectrum(rng, batch, 2, kind)
        H = _hermitian(lam, _unitary(rng, batch, 2))
    D = _general(rng, batch, 2, "complex")
    _, P = np.linalg.eigh(H)
    low, high = (np.einsum("...a,...b->...ab", P[..., k], P[..., k].conj()) for k in (0, 1))
    want_pm = np.sum(np.abs(high @ D @ low) ** 2, axis=(-2, -1))
    want_mp = np.sum(np.abs(low @ D @ high) ** 2, axis=(-2, -1))
    g, got_pm, got_mp = fiber.cross_block_norms(H, D)
    np.testing.assert_allclose(2 * g, np.abs(lam[..., 1] - lam[..., 0]), rtol=1e-8)
    tol = 100 * EPS * np.sum(np.abs(D) ** 2, axis=(-2, -1)) * np.abs(lam).max(-1) / g
    assert np.all(np.abs(got_pm - want_pm) <= tol)
    assert np.all(np.abs(got_mp - want_mp) <= tol)


def test_cross_block_norms_at_and_next_to_scalars():
    """Zero at H = m I exactly and at a subnormal splitting (rounding noise of
    a tiny m I); one ulp of splitting already gives the off-diagonal entries
    of D in H's (diagonal) eigenbasis."""
    D = np.array([[1.0 + 2j, 3.0], [-4j, 5.0]])
    noise = 5.4e-323 + 2.77e-322j
    H = np.array([2.5 * np.eye(2), np.diag([1.0, 1.0 + EPS]),
                  [[6.5e-306, noise], [np.conj(noise), 6.5e-306]]], complex)
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        g, plus_minus, minus_plus = fiber.cross_block_norms(H, D)
    assert g[0] == plus_minus[0] == minus_plus[0] == 0.0
    assert g[1] == EPS / 2 and plus_minus[1] == 16.0 and minus_plus[1] == 9.0
    assert 0.0 < g[2] < np.finfo(float).tiny and plus_minus[2] == minus_plus[2] == 0.0


def _signed_zeros(rng, F):
    """F with a fifth of its real and imaginary parts set to +0 or -0, and
    its first row of nodes -0."""
    F = F.copy()
    for part in (F.real, F.imag):
        hit = rng.random(part.shape) < 0.2
        part[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    F[0] = -0.0
    return F


@pytest.mark.parametrize("r", (1, 2, 3))
def test_hermitize_matches_the_generic_form_bytewise(r):
    """Rank 2 is written out entry by entry; every rank equals
    0.5 (A + A^dag) byte for byte, on fields with signed zeros and on views
    that are not C-contiguous."""
    rng = np.random.default_rng(40 + r)
    F = _signed_zeros(rng, _general(rng, (6, 8), r, "complex"))
    for A in (F, F.real.copy(), np.swapaxes(F, 0, 1), np.swapaxes(F, -1, -2),
              np.broadcast_to(F[1, 2], F.shape), F[1::2, ::3]):
        want = 0.5 * (A + fiber.dagger(A))
        got = fiber.hermitize(A)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_inv_rank2_rejects_with_measured_condition():
    ok = np.array([[2.0, 1.0], [1.0, 1.0]])
    for bad, measured in ((np.diag([1.0, 1e-16]), r"1\.000e-16"),
                          (np.array([[1.0, 2.0], [2.0, 4.0]]), r"0\.000e\+00"),
                          (np.zeros((2, 2)), "nan")):
        field = np.stack([ok, bad, ok]).astype(complex)
        with pytest.raises(ValueError, match="min reciprocal condition " + measured):
            fiber.inv(field)
    assert fiber.INV_RCOND == 1e-14
    fiber.inv(np.diag([1.0, 2e-14]))        # reciprocal condition 2e-14 passes


@pytest.mark.parametrize("r", (2, 3))
def test_operator_norm_is_not_a_spectral_radius(r):
    """On non-self-adjoint fields the operator norm is the largest singular
    value, which a spectral radius undercuts: a random field, and the
    Hermitian-Einstein residual of a random metric, whose H-adjoint defect is
    a discretisation error."""
    from fareyflow.torus_he import (MetricField, TorusGrid, build_model_bundle, he_residual,
                                    random_twisted_hermitian)
    from fareyflow.torus_he.hermitian import i_lambda_F_metric

    rng = np.random.default_rng(r)
    A = _general(rng, (16, 16), r, "complex")
    norm = fiber.op_norm(A)
    assert np.abs(norm - np.linalg.svd(A, compute_uv=False)[..., 0]).max() <= 1e-14 * norm.max()
    radius = np.abs(np.linalg.eigvals(A)).max(axis=-1)
    assert float(((norm - radius) / norm).max()) > 0.1

    grid = TorusGrid(1j, 32)
    tw, conn, _ = build_model_bundle(r, 1, grid)
    s = random_twisted_hermitian(grid, tw, seed=r, amplitude=0.5)
    H = MetricField(grid, tw, fiber.herm_apply(fiber.exp(1.0), s.data))
    half, inv_half = H.sqrt_pair()
    S = i_lambda_F_metric(H, conn) - 2 * np.pi / r * np.eye(r)
    M = fiber.mm(half, fiber.mm(S, inv_half))
    assert np.abs(M - fiber.dagger(M)).max() > 1e-6 * np.abs(M).max()
    svd = float(np.linalg.svd(M, compute_uv=False)[..., 0].max())
    assert he_residual(conn, H, Fraction(1, r)) == pytest.approx(svd, rel=1e-14)


# ----------------------------------------------------------------------------
# spectral radius
#
# `spectral_radius` against max |np.linalg.eigvalsh| (LAPACK).  Ranks 1 and 2
# must keep the bits of the closed-form `eigvalsh`; the rank-4 characteristic-
# polynomial path states a relative bound of 9.1e-13 on every node it keeps,
# and RADIUS_RTOL checks the bound.  The worst deviation measured over these
# tests is 2.5e-15 relative; over the 1,058,502 rank-4 node evaluations of
# the 17 rank-4 fixes of criterion 12 it is 2.4e-15.

RADIUS_RTOL = 1e-12


def _radius_oracle(H):
    return np.abs(np.linalg.eigvalsh(H)).max(axis=-1)


def _assert_radius(H, want=None):
    want = _radius_oracle(H) if want is None else want
    before = H.copy()
    got = fiber.spectral_radius(H)
    assert np.array_equal(H, before, equal_nan=True)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RADIUS_RTOL * want)
    return got


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from(RANKS),
       batch=st.sampled_from(BATCHES + ((40, 25),)),
       kind=st.sampled_from(["signed", "separated", "degenerate", "ill"]))
@example(seed=11, r=4, batch=(40, 25), kind="signed")
@example(seed=12, r=4, batch=(40, 25), kind="separated")
def test_spectral_radius_matches_eigvalsh(seed, r, batch, kind):
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=batch + (1,))     # all-negative spectra too
    H = _hermitian(sign * _spectrum(rng, batch, r, kind), _unitary(rng, batch, r))
    if r <= 2:
        got = fiber.spectral_radius(H)
        assert got.tobytes() == np.abs(fiber.eigvalsh(H)).max(axis=-1).tobytes()
    else:
        _assert_radius(H)


def _rank4(lam, rng, nodes=64):
    """A stack of Hermitian 4 x 4 matrices with the spectrum lam, rotated at
    random; the first node is diagonal."""
    U = _unitary(rng, (nodes,), 4)
    U[0] = np.eye(4)
    return _hermitian(np.broadcast_to(np.asarray(lam, float), (nodes, 4)), U)


@pytest.mark.parametrize("gap", (1e-1, 1e-3, 1e-6, 0.0))
@pytest.mark.parametrize("mean", (0.0, 3.0, -40.0))
@pytest.mark.parametrize("end", ("top", "bottom"))
def test_spectral_radius_near_double_extremes(gap, mean, end):
    """An extreme pair with relative gap 1e-1 .. 0, under a mean that makes
    either end the larger in modulus.  Close pairs are not proven (a Laguerre
    run converges slowly onto a double root) and come from LAPACK."""
    lam = np.array([-1.3, 0.2, 1.0, 1.0 + gap])
    lam = (lam if end == "top" else -lam[::-1]) + mean
    H = _rank4(lam, np.random.default_rng(int(gap * 1e6) + 7))
    _assert_radius(H)
    assert fiber.spectral_radius(H[0]) == pytest.approx(np.abs(lam).max(), rel=RADIUS_RTOL)
    if gap < 1e-2:          # the pair is closer than about 0.03 |T|_F: not proven
        assert not fiber._radius4(H)[1].any()


@pytest.mark.parametrize("lam", [
    (-2.0, -0.5, 0.7, 2.0),            # mirrored extremes, lambda_1 = -lambda_4
    (-2.0, 0.1, 0.3, 2.0),
    (1.0, 4.0, 4.5, 5.0),              # the bottom of T is larger, the top of H
    (-5.0, -4.5, -4.0, -1.0),
    (1e8 - 1e-6, 1e8, 1e8 + 2e-6, 1e8 + 5e-6),   # a large mean over a tiny T
])
def test_spectral_radius_picks_the_extreme_of_h(lam):
    H = _rank4(lam, np.random.default_rng(3))
    _assert_radius(H, np.full(len(H), np.abs(lam).max()))
    assert fiber._radius4(H)[1].all()


def test_spectral_radius_of_repeated_blocks_scalars_and_zero():
    """diag(B, B) has every eigenvalue twice; scalar and zero matrices have
    T = 0 and keep their value exactly."""
    rng = np.random.default_rng(5)
    B = _hermitian(rng.uniform(-2, 2, size=(32, 2)), _unitary(rng, (32,), 2))
    H = np.zeros((32, 4, 4), complex)
    H[:, :2, :2] = H[:, 2:, 2:] = B
    _assert_radius(H)
    U = _unitary(rng, (32,), 4)
    _assert_radius(np.einsum("nab,nbc,ndc->nad", U, H, U.conj()))
    scalars = np.array([2.5, -3.0, 0.0, -0.0, 1e-300, 1e300])[:, None, None] * np.eye(4)
    got = fiber.spectral_radius(scalars)
    assert got.tolist() == [2.5, 3.0, 0.0, 0.0, 1e-300, 1e300]
    assert fiber._radius4(scalars)[1].all()


@pytest.mark.parametrize("scale", (2.0 ** 1000, 2.0 ** -1000))
def test_spectral_radius_far_from_one(scale):
    """Entries near 1e+-301: their squares over- or underflow, so the path
    scales T by a power of two before it forms T^2."""
    rng = np.random.default_rng(6)
    H = _hermitian(rng.uniform(-3, 3, size=(64, 4)), _unitary(rng, (64,), 4))
    _assert_radius(H * scale)
    rho, done = fiber._radius4(H * scale)
    assert done.sum() >= 60
    assert np.array_equal(rho[done], fiber._radius4(H)[0][done] * scale)


@pytest.mark.parametrize("r", (1, 2, 4))
@pytest.mark.parametrize("where", ((0, 0), (1, 2), (3, 1)))
def test_spectral_radius_of_nan_is_nan(r, where):
    """A node with a NaN entry is NaN and the other nodes keep their values
    (LAPACK reads one triangle only, and a NaN can vanish from its result)."""
    rng = np.random.default_rng(r)
    H = _hermitian(rng.uniform(-3, 3, size=(5, r)), _unitary(rng, (5,), r))
    want = fiber.spectral_radius(H)
    i, j = min(where[0], r - 1), min(where[1], r - 1)
    H[2, i, j] = np.nan
    got = fiber.spectral_radius(H)
    assert np.isnan(got[2])
    assert np.array_equal(np.delete(got, 2), np.delete(want, 2))
