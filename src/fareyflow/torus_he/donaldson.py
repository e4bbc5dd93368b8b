"""Energy functional for metric pairs and its gradient descent to the
constant-curvature metric.

The functional for H = exp(s) K (s self-adjoint with respect to K) is

    M(K, H) = int < Phi_s[dbar s], dbar s >_K + int tr[(i Lambda F_K - 2 pi mu) s]

with the spectral multiplier phi(li, lj) = (e^(li-lj) - (li-lj) - 1)/(li-lj)^2
(value 1/2 on the diagonal) applied in the fiberwise eigenbasis of s.  At
rank 2 the eigenbasis is not formed: with P+- the spectral projectors of s
onto its eigenvalues m +- g, the pairing is the Daleckii-Krein form

    |D|^2/2 + (phi(2g) - 1/2)|P+ D P-|^2 + (phi(-2g) - 1/2)|P- D P+|^2

(Frobenius norms, D = dbar s; Higham, Functions of Matrices, SIAM 2008,
ch. 3).  Rank 1 is |D|^2/2; rank >= 3 diagonalizes s.  The
2 pi mu subtraction makes M vanish on constant rescalings and puts its
critical points exactly at the constant-curvature metrics.  Descent uses the
manifestly positivity-preserving update H <- H^(1/2) exp(-step G~) H^(1/2)
with G~ the symmetrized gradient preconditioned by an inverse shifted
Laplacian applied in the Bloch-spectral representation.

Each quantity has one implementation, and the flow calls it:
`metric_log(H, K)` gives the s of H = K exp(s), and
`donaldson_functional(K, s, defect)` gives M(K, exp(s) K) from K's
`curvature_defect`, which the flow forms once for its starting metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import fiber
from ..fiber import dagger, hermitize, mm
from .fields import EndoField, MetricField
from .hermitian import _einstein_constant, curvature_defect
from .twist import WeylTransform


# |x| below which phi(x) - 1/2 is summed as a series
_PHI_SWITCH = 0.1

SELFADJOINT_TOL = 1e-8   # relative K-self-adjoint defect of s the functional accepts
STEP_INIT = 1.0          # first trial step of the flow
STEP_MAX = 4.0           # largest step the flow grows to after accepted steps
FIELD_MAX_MODE = 1       # highest Fourier mode of random_twisted_hermitian

DESCENT_SLACK = 1e-12
"""Relative slack of the flow's line search: a trial step is accepted when
M_new <= M_cur + DESCENT_SLACK * max(1, |M_cur|).

The functional's rounding floor is more than three decades lower.  Along the
flows of the 48 seeds of the N = 64 rank-2 benchmark pool, the closed-form
pairing and an eigh-based evaluation of the same functional differ by at
most 6.7e-16 absolute at |M| <= 2.6 (3.4e-16 relative).  The uphill steps
the slack lets through (`FlowResult.uphill_steps`) rise by up to 2.5e-12:
that is the consistency gap between the discrete residual and the gradient
of the discrete functional, not rounding.
"""


def _phi_parts(x: np.ndarray):
    """(mask of |x| < _PHI_SWITCH, phi(x) - 1/2 by its series, phi(x) by its
    quotient).

    phi(x) = (e^x - x - 1)/x^2 = 1/2 + sum_{k>=1} x^k/(k + 2)!.  From the
    switch on, the quotient with expm1 (cancellation costs at most a factor
    20 on the rounding error); below, nine terms of the series (truncation
    < 1e-19), which are 0 at x = 0.
    """
    small = np.abs(x) < _PHI_SWITCH
    safe = np.where(small, 1.0, x)
    series = np.zeros_like(x)
    for k in range(9, 0, -1):
        series = series * x + 1.0 / math.factorial(k + 2)
    return small, series * x, (np.expm1(safe) - safe) / (safe * safe)


def phi_multiplier(lam: np.ndarray) -> np.ndarray:
    """phi(l_i - l_j) matrix per node (value 1/2 on the diagonal)."""
    small, series, quotient = _phi_parts(lam[..., :, None] - lam[..., None, :])
    return np.where(small, 0.5 + series, quotient)


def _phi_minus_half(x: np.ndarray) -> np.ndarray:
    """phi(x) - 1/2, exactly 0 at x = 0.

    Above the switch the quotient minus 1/2 loses relative digits up to
    |x| ~ 1 (at most 230 eps against mpmath) but keeps its absolute error
    below 5 eps, the size that enters the pairing.
    """
    small, series, quotient = _phi_parts(x)
    return np.where(small, series, quotient - 0.5)


def _pairing(s_hat: np.ndarray, dbar_hat: np.ndarray) -> np.ndarray:
    """sum_ij phi(l_i - l_j) |(P^dag D P)_ij|^2 per node, with s_hat = P
    diag(l) P^dag and D = dbar_hat.

    phi(0) = 1/2, so rank 1 is |D|^2/2.  At rank 2, with P+- the spectral
    projectors of s_hat onto m +- g (`fiber.cross_block_norms`), the pairing
    is |D|_F^2/2 + (phi(2g) - 1/2)|P+ D P-|_F^2 + (phi(-2g) - 1/2)|P- D P+|_F^2.
    Rank >= 3 diagonalizes s_hat.
    """
    r = s_hat.shape[-1]
    if r >= 3:
        lam, P = np.linalg.eigh(s_hat)
        B = mm(dagger(P), mm(dbar_hat, P))
        return np.einsum("...ij,...ij->...", phi_multiplier(lam), np.abs(B) ** 2)
    out = 0.5 * np.sum(np.abs(dbar_hat) ** 2, axis=(-2, -1))
    if r == 2:
        g, plus_minus, minus_plus = fiber.cross_block_norms(s_hat, dbar_hat)
        out += _phi_minus_half(2 * g) * plus_minus + _phi_minus_half(-2 * g) * minus_plus
    return out


def _check_selfadjoint(K: MetricField, s: np.ndarray):
    ks = K.apply(s)
    defect = np.abs(ks - dagger(ks)).max()
    scale = max(1.0, float(np.abs(ks).max()))
    if not defect <= SELFADJOINT_TOL * scale:
        raise ValueError("endomorphism is not self-adjoint for the metric "
                         "(defect %.3e)" % defect)


def donaldson_functional(K: MetricField, s: EndoField, defect: np.ndarray) -> float:
    """M(K, exp(s) K) for a K-self-adjoint endomorphism field s, with defect
    = `curvature_defect(K, conn, mu)`, which the caller forms once per K.

    The central connection enters only through the defect: it commutes with
    s, so dbar_A s = dbar s.  `K.conjugate_half` takes s and dbar s to K's
    orthonormal frame, s_hat and D, with K's cached square-root pair;
    `_pairing` weighs D by phi in the spectral decomposition of s_hat, in
    closed form at ranks 1 and 2.
    """
    _check_selfadjoint(K, s.data)
    s_hat = hermitize(K.conjugate_half(s.data))
    quad = 2 * K.grid.v * _pairing(s_hat, K.conjugate_half(s.d_zbar()))
    lin = np.einsum("...ab,...ba->...", defect, s.data).real
    return float((quad + lin).mean())


def metric_log(H: MetricField, K: MetricField) -> EndoField:
    """The K-self-adjoint s with H = K exp(s), i.e. s = log(K^-1 H).

    In the K-orthonormal frame s becomes the plain Hermitian logarithm of
    K^(-1/2) H K^(-1/2); transforming back uses K^(-1/2) (.) K^(1/2), which
    is what keeps K s Hermitian.  K's square-root pair is computed on the
    first call and cached on K.
    """
    half, inv_half = K.sqrt_pair()
    h_hat = hermitize(mm(inv_half, mm(H.data, inv_half)))
    log_hat = fiber.herm_apply(fiber.LOG, h_hat)
    return EndoField(K.grid, K.twist, mm(inv_half, mm(log_hat, half)))


@dataclass
class FlowResult:
    final: MetricField
    residuals: list[float]
    functional: list[float]
    steps: list[float]
    iterations: int
    converged: bool

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    def monotone_defect(self) -> float:
        """Largest increase between consecutive functional values (>= 0)."""
        return max(self._rises(), default=0.0)

    def _rises(self) -> list[float]:
        m = self.functional
        return [m[i + 1] - m[i] for i in range(len(m) - 1) if m[i + 1] > m[i]]

    def uphill_steps(self) -> int:
        """Number of accepted steps that raised the functional, each by at
        most DESCENT_SLACK relative."""
        return len(self._rises())

    def uphill_rise(self) -> float:
        """Total rise of the functional over the uphill steps (>= 0)."""
        return sum(self._rises())


def donaldson_flow(K0: MetricField, mu, conn, *, max_iter: int, tol: float) -> FlowResult:
    """Drive a metric to the constant-curvature one by monotone descent.

    Each accepted update is H <- H^(1/2) exp(-step G~) H^(1/2) with G~ the
    symmetrized i Lambda F_H - 2 pi mu Id filtered through
    (1 + 2 pi |mu| - Lap/2)^-1 in the Bloch-spectral representation, which
    removes the grid-scale stiffness while keeping the same fixed points and
    descent property; positivity is exact.  The step starts at STEP_INIT,
    halves whenever the functional would rise by more than DESCENT_SLACK
    relative (a smaller rise is accepted) or the trial is not a finite positive metric,
    and grows gently up to STEP_MAX after accepted steps.

    K0's `curvature_defect` is formed once per flow, on a second
    MetricField over K0's data, so K0 caches only the square-root pair that
    every trial step reuses; iteration 0 reads both rather than factoring K0
    again.  Each trial metric is a MetricField that `metric_log` and
    `donaldson_functional` evaluate against K0; an accepted trial becomes the
    next iterate itself and is factored once, when the next residual reads
    it.  The returned metric is a fresh one, so a result kept after the flow
    holds none of the factors of its last residual.
    """
    grid, twist = K0.grid, K0.twist
    wt = WeylTransform(twist, grid)
    source = curvature_defect(MetricField(grid, twist, K0.data), conn, mu)
    symbol = 1.0 / (1.0 + abs(_einstein_constant(mu))
                    - 0.5 * grid.laplace_symbol(*wt.freqs))
    step = STEP_INIT

    residuals: list[float] = []
    functional: list[float] = []
    steps: list[float] = []
    m_cur = 0.0
    H, defect = K0, source

    for it in range(max_iter + 1):
        G_hat = hermitize(H.conjugate_half(defect))
        res = float(np.abs(fiber.eigvalsh(G_hat)).max())
        residuals.append(res)
        functional.append(m_cur)
        if res < tol or it == max_iter:
            break

        direction = hermitize(wt.apply_symbol(G_hat, symbol))
        half = H.sqrt_pair()[0]
        for _ in range(60):
            expd = fiber.herm_apply(fiber.exp(-step), direction)
            try:
                trial = MetricField(grid, twist, hermitize(mm(half, mm(expd, half))))
                s_new = metric_log(trial, K0)
            except ValueError:
                step *= 0.5
                continue
            m_new = donaldson_functional(K0, s_new, source)
            if m_new <= m_cur + DESCENT_SLACK * max(1.0, abs(m_cur)):
                break
            step *= 0.5
        else:
            raise RuntimeError(
                "descent stalled at iteration %d (residual %.3e); residual history: %s"
                % (it, res, ["%.3e" % r for r in residuals[-8:]]))
        H, m_cur = trial, m_new
        defect = curvature_defect(H, conn, mu)
        steps.append(step)
        step = min(step * 1.3, STEP_MAX)

    return FlowResult(MetricField(grid, twist, H.data), residuals, functional, steps, it,
                      res < tol)


def random_twisted_hermitian(grid, twist, seed: int, amplitude: float) -> EndoField:
    """Smooth random self-adjoint twisted field with sup operator norm = amplitude.

    Built from Bloch scalars with Fourier modes up to FIELD_MAX_MODE in the
    clock/shift component basis, so the twisted periodicity is exact and the
    field is band-limited.
    """
    rng = np.random.default_rng(seed)
    wt = WeylTransform(twist, grid)
    N, r, K = grid.N, twist.rank, FIELD_MAX_MODE
    # one draw, ordered by entry (j, k), mode (m, n), real/imaginary part; the
    # modes are summed in that order, coefficient times wave (numpy's complex
    # product is not bitwise symmetric), so the field keeps its bits
    draw = rng.normal(size=(r, r, 2 * K + 1, 2 * K + 1, 2))
    coef = draw[..., 0] + 1j * draw[..., 1]
    sig = np.zeros((N, N, r, r), complex)
    for m in range(-K, K + 1):
        for n in range(-K, K + 1):
            wave = np.exp(2j * np.pi * (m * grid.X + n * grid.Y))
            sig += coef[:, :, m + K, n + K] * wave[..., None, None]
    sig *= np.conj(wt.debloch)
    raw = hermitize(wt.assemble(sig))
    sup = float(np.abs(fiber.eigvalsh(raw)).max())
    data = raw * (amplitude / sup) if sup else raw
    return EndoField(grid, twist, data)
