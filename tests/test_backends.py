"""JIT and pure-Python kernel paths must agree.

With numba active every kernel keeps its uncompiled twin on ``py_func``;
libm differences between the two paths stay within a few ulps, so spot
agreement at 1e-12 relative tolerance is the contract.
"""
import math

import numpy as np
import pytest

from fsqkd import _kernels as k
from fsqkd._accel import plain, using_numba

pytestmark = pytest.mark.skipif(not using_numba(),
                                reason="numba disabled; single backend only")

RNG = np.random.default_rng(20240817)


def _rel_close(a, b, tol=1e-12):
    if a == b:
        return True
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale <= tol


def test_scalar_kernels_match():
    for _ in range(200):
        mu = RNG.uniform(1e-4, 1.0)
        p_d = 10.0 ** (-RNG.uniform(0, 6))
        p_ec = RNG.uniform(0, 1e-3)
        p_ap = RNG.uniform(0, 1e-2)
        qi = RNG.uniform(0, 0.05)
        y = RNG.uniform(0, 1e9)
        beta = RNG.uniform(0, 30)
        assert _rel_close(k.detection_prob(mu, p_d, p_ec, p_ap),
                          plain(k.detection_prob)(mu, p_d, p_ec, p_ap))
        assert _rel_close(k.error_prob(mu, p_d, p_ec, p_ap, qi),
                          plain(k.error_prob)(mu, p_d, p_ec, p_ap, qi))
        assert _rel_close(k.chernoff_delta_plus(y, beta),
                          plain(k.chernoff_delta_plus)(y, beta))
        assert _rel_close(k.chernoff_delta_minus(y, beta),
                          plain(k.chernoff_delta_minus)(y, beta))
        x = RNG.uniform(0, 1)
        assert _rel_close(k.binary_entropy(x), plain(k.binary_entropy)(x))


def test_full_chain_matches():
    beta = math.log(21.0 / 1e-9)
    for _ in range(50):
        pax = RNG.uniform(0.05, 0.95)
        pbx = RNG.uniform(0.05, 0.95)
        mu1 = RNG.uniform(0.3, 0.9)
        mu2 = mu1 * RNG.uniform(0.1, 0.5)
        mu3 = 1e-9
        p1 = RNG.uniform(0.3, 0.7)
        p2 = RNG.uniform(0.1, 0.25)
        p3 = 1.0 - p1 - p2
        p_d = 10.0 ** (-RNG.uniform(1, 5))
        args_counts = (pax, pbx, mu1, mu2, mu1, mu2, mu1, mu2, mu1, mu2,
                       mu3, p1, p2, p3, p_d, 1e-6, 0.01, 1e-3, 6e9)
        c_jit = k.counts_core(*args_counts)
        c_py = plain(k.counts_core)(*args_counts)
        for a, b in zip(c_jit, c_py):
            assert _rel_close(a, b)
        args_ell = (*c_jit, mu1, mu2, mu3, p1, p2, p3, beta, 1e-9, 1e-15,
                    1, 1.16, 0.0)
        out_jit = k.bounds_ell_core(*args_ell)
        out_py = plain(k.bounds_ell_core)(*args_ell)
        for a, b in zip(out_jit, out_py):
            assert _rel_close(a, b, tol=1e-11)

