"""Shared test oracles, and a guard against child processes left running.

`theta_line_density` is the closed form of the pointwise |beta|^2 of the theta
line subbundle S of the rank-2 degree-1 flat model, evaluated from the theta
series alone (no fareyflow import), so it checks the grid code independently.

With the reference metric H0 = Id the bundle has i Lambda F_E = 2 pi (1/2) = pi,
and the theta section (theta_0, theta_1) spans S with induced metric
h_S = exp(-pi v y^2) (|theta_0|^2 + |theta_1|^2), where

    theta_k(z) = sum_n exp(2 pi i tau (n + k/2)^2 + 2 pi i (n + k/2) z).

Gauss-Codazzi, i Lambda F_S = i Lambda F_E - |beta|^2, then gives

    |beta|^2 = (1/2) Lap log(|theta_0|^2 + |theta_1|^2)
             = 2 v |theta_0 theta_1' - theta_1 theta_0'|^2 / (|theta_0|^2 + |theta_1|^2)^2,

the Fubini-Study density pulled back by z -> [theta_0 : theta_1] (Lap is the
unit-volume Laplacian, v = Im tau).  Its mean is exactly pi (deg S = 0), it
vanishes at z = 0 where the Wronskian does, and for tau = i its maximum is
6.8751858180... at z = (1 + i)/2, so sup/mean = 2.18843961522...
"""

import multiprocessing

import numpy as np
import pytest


def _theta_line_density(tau: complex, N: int, n_max: int = 10) -> np.ndarray:
    """|beta|^2 at the nodes (j/N, k/N) of the N x N grid, z = x + tau y.

    Derivatives of the theta series are taken term by term; |n| <= n_max
    leaves a tail below 1e-100 for Im(tau) >= 0.5.
    """
    tau = complex(tau)
    x = np.arange(N) / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    Z = (X + tau * Y)[..., None]
    theta, dtheta = [], []
    for k in (0, 1):
        nu = np.arange(-n_max, n_max + 1) + k / 2
        terms = np.exp(2j * np.pi * tau * nu ** 2 + 2j * np.pi * nu * Z)
        theta.append(terms.sum(-1))
        dtheta.append((2j * np.pi * nu * terms).sum(-1))
    wronskian = theta[0] * dtheta[1] - theta[1] * dtheta[0]
    norm_sq = np.abs(theta[0]) ** 2 + np.abs(theta[1]) ** 2
    return 2 * tau.imag * np.abs(wronskian) ** 2 / norm_sq ** 2


@pytest.fixture(scope="session")
def theta_line_density():
    """The closed-form |beta|^2 of the rank-2 degree-1 theta line subbundle,
    as a function (tau, N) -> (N, N) array of node values."""
    return _theta_line_density


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail any test after which a child process it started is still alive,
    and stop that child, so that the next test starts without it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert left == [], "child processes still running after the test: %r" % left
