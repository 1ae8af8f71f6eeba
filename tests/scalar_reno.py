"""Independent scalar integrator for the collapsed Reno window equation.

With the Reno window W = w_max/2 + s/tau, the pair model implies

    dW/dt = 1/tau - (W/2) * W(t-tau) p(t-tau) / tau

exactly, because (w_max - W)/2 + s/tau = W/2 is an identity on the Reno
curve.  Integrating this scalar equation with its own method-of-steps RK4
gives an oracle for the pair integrator: both are linear images of each
other through every RK4 stage, so the window columns must agree to rounding
error, and any algebra slip in the pair right-hand side breaks the match
loudly.
"""

import math


def integrate_scalar_reno(params, w0, t_end, k):
    """Window samples of the scalar delayed equation on the grid i*tau/k.

    History is the constant w0.  The delayed factor W p / tau is evaluated
    at panel midpoints with the same cubic-Hermite midpoint formula the pair
    integrator uses, from this module's own state arrays.
    """
    tau = params.tau
    h = tau / k
    n = math.ceil(t_end / h - 1e-12)

    def delayed_factor(wd):
        p = 1.0 - params.bdp / wd  # loss probability, clipped at zero below
        return wd * (p if p > 0.0 else 0.0) / tau

    w = [float(w0)]
    deriv = [1.0 / tau - 0.5 * w0 * delayed_factor(w0)]

    def at_sample(i):
        return w[i] if i >= 0 else float(w0)

    def at_midpoint(i):
        if i < 0:
            return float(w0)
        return 0.5 * (w[i] + w[i + 1]) + 0.125 * h * (deriv[i] - deriv[i + 1])

    for i in range(n):
        d_mid = delayed_factor(at_midpoint(i - k))
        d_end = delayed_factor(at_sample(i - k + 1))
        y = w[i]
        k1 = deriv[i]
        k2 = 1.0 / tau - 0.5 * (y + 0.5 * h * k1) * d_mid
        k3 = 1.0 / tau - 0.5 * (y + 0.5 * h * k2) * d_mid
        k4 = 1.0 / tau - 0.5 * (y + h * k3) * d_end
        y1 = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        w.append(y1)
        deriv.append(1.0 / tau - 0.5 * y1 * d_end)
    return w
