"""Frozen closed-form references computed independently of the package.

Each oracle is derived from textbook identities (Fourier transform of the
Gaussian, lognormal expectation, scalar ODE decay) and written directly in
terms of numpy scalars, so a failure points at the library, not the test.
"""

import math

import numpy as np


def heat_kernel_gaussian(x, t, diffusivity=1.0, width=1.0, amplitude=1.0):
    """Evolution of amplitude*exp(-x^2/(2 width^2)) under du/dt = a u_xx.

    Fourier transform of the Gaussian is Gaussian; each mode decays by
    exp(-a k^2 t), which re-sums to a Gaussian with variance width^2 + 2 a t.
    Valid verbatim for complex x and complex t with Re(width^2 + 2at) > 0.
    """
    x = np.asarray(x, dtype=np.complex128)
    s2 = width * width + 2.0 * diffusivity * np.asarray(t, dtype=np.complex128)
    return amplitude * width / np.sqrt(s2) * np.exp(-(x * x) / (2.0 * s2))


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2.0)))


def call_price_lognormal(x, strike, sigma, tau, drift, rate=0.0):
    """E[e^{-r tau} (exp(X_tau) - K)^+] for dX = b dt + sigma dW, X_0 = x.

    X_tau is normal with mean x + b tau and variance sigma^2 tau, so the
    expectation is the standard lognormal two-term formula with forward
    F = exp(x + b tau + sigma^2 tau / 2).
    """
    if tau <= 0.0:
        return math.exp(-rate * tau) * max(math.exp(x) - strike, 0.0)
    sig_rt = sigma * math.sqrt(tau)
    forward = math.exp(x + drift * tau + 0.5 * sigma ** 2 * tau)
    d1 = (math.log(forward / strike) + 0.5 * sigma ** 2 * tau) / sig_rt
    d2 = d1 - sig_rt
    return math.exp(-rate * tau) * (forward * normal_cdf(d1) - strike * normal_cdf(d2))


def mode_decay(k, t, diffusivity=1.0):
    """exp(i k x) evolves to exp(-a k^2 t) exp(i k x) under the heat flow."""
    return np.exp(-diffusivity * (np.asarray(k) ** 2) * np.asarray(t, dtype=np.complex128))


def maxreg_mode_numerator(lam, p, horizon, mode_lp_norm):
    """Exact int_0^T (||u'||_p^p + ||A u||_p^p) dt for u(t) = e^{-lam t} u0.

    Both integrands equal lam^p e^{-p lam t} ||u0||_p^p, so the integral is
    2 lam^{p-1} ||u0||_p^p (1 - e^{-p lam T}) / p.
    """
    return 2.0 * lam ** (p - 1.0) * mode_lp_norm ** p * (1.0 - math.exp(-p * lam * horizon)) / p


def smoother_tail_gap(eps):
    """|f_plus(v) - v^+| tends to eps/pi as |v| -> infinity on the real line."""
    return eps / math.pi


def smoother_real_line(v, eps):
    """(f_minus(v), f_plus(v)) of the smoothers at a real v, as Python floats.

    On the real line (i/2pi) log((1 - iw)/(1 + iw)) = arctan(w)/pi for
    w = v/eps, so the smoothers restrict to v (1/2 -+ arctan(v/eps)/pi).
    """
    turn = math.atan(v / eps) / math.pi
    return v * (0.5 - turn), v * (0.5 + turn)
