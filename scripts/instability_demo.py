"""Demonstrate that the CUBIC fluid model is not globally stable.

Default config: one flow on a 125000 pkt/s link with a 100 ms delay, started
far from the equilibrium (w_max = 12372, epoch age 13.68 against the fixed
point near (12500, 18.42)).  The distance to the fixed point grows by an
order of magnitude over the final half of a 200-delay horizon instead of
shrinking, printed here as |x| at t = 0, T/2, and T.
"""

import argparse

import numpy as np

from tcpfluid import (
    FlowState,
    SystemParams,
    cubic_fixed_point,
    integrate,
    shifted_samples,
    window_function,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/instability.csv", help="trajectory CSV")
    parser.add_argument("--init-w-max", type=float, default=12371.9952)
    parser.add_argument("--init-s", type=float, default=13.6794)
    args = parser.parse_args()

    params = SystemParams(capacity=125000.0, tau=0.1, b=0.2, c=0.4)
    fp = cubic_fixed_point(params)
    horizon = 200.0 * params.tau
    start = FlowState(args.init_w_max, args.init_s)
    traj = integrate(params, window_function("cubic"), start, horizon, params.tau / 256, fp=fp)

    norms = np.hypot(*shifted_samples(traj, fp))
    mid = len(norms) // 2
    print(f"fixed point: w_hat={fp.w_hat!r} s_hat={fp.s_hat!r}")
    print(f"|x(0)|   = {norms[0]:.3f}")
    print(f"|x(T/2)| = {norms[mid]:.3f}")
    print(f"|x(T)|   = {norms[-1]:.3f}")
    if norms[-1] >= norms[mid]:
        print("no convergence over the final half: instability witnessed")
    else:
        print("trajectory contracted; try an initial state further out")
    traj.write_csv(args.out)
    print(f"wrote trajectory: {args.out}")


if __name__ == "__main__":
    main()
