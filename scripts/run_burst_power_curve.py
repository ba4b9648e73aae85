#!/usr/bin/env python3
"""Tabulate the efficiency-optimal burst power against circuit power for a
seeded channel draw, alongside the peak-clamped value actually applied.

The burst power is the transmit power maximizing throughput per joule
drained (radiated plus circuit overhead); once it crosses the hardware
peak, the applied value saturates there.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ehsched.channels import UserConfig, decompose_zf_dpc, generate_channels
from ehsched.single_epoch import solve_p_o


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps-max", type=float, default=6.0)
    ap.add_argument("--points", type=int, default=40)
    ap.add_argument("--p-peak", type=float, default=4.0)
    ap.add_argument("--antennas", type=int, default=2, help="transmit antennas")
    ap.add_argument("--users", type=int, default=2, help="single-antenna receivers")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("burst_power.csv"))
    args = ap.parse_args()

    users = tuple(UserConfig(n=1, gamma=1.0) for _ in range(args.users))
    eff = decompose_zf_dpc(generate_channels(args.antennas, users, seed=args.seed))

    grid = np.linspace(0.0, args.eps_max, args.points)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["eps", "p_o", "p_applied"])
        for e, po in zip(grid, solve_p_o(eff, None, grid)):
            w.writerow([f"{e:.12g}", f"{po:.12g}", f"{min(po, args.p_peak):.12g}"])
    print(f"wrote {args.out} ({args.points} points, p_peak={args.p_peak})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
