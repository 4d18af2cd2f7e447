"""Census stress run of fixed_points on generated games.

Stable game k is test_paper_results.drawn_stable_game(k), drawn from
``numpy.random.default_rng([2026, k])``: costs c(x) = M x + b with
M = s A A^T / n + K - K^T, a stable (monotone) game with one logit
equilibrium at every eta. General game k is drawn_general_game(k), with M
standard normal, neither monotone nor potential. Each census (multistart 4)
runs on the game's generator down a grid of 12 etas from 2: stable games
0-399 down to 1e-3, stable games 400-599 down to 1e-4, and general games
1000-1199 down to 1e-3.

    python tests/solver_stress.py

prints, per game, its unconverged starts and its counts, and a total line
per set. It exits 1 if, on a stable game, any count is not 1 or any start
stops unconverged, or if fewer than 23,125 of the 23,784 starts on the
general games land. That takes about 7 minutes on one core. Like
cli_table.py it is a script, not a test module: pytest does not collect it.
"""
from __future__ import annotations

import logging
import sys
import time

import numpy as np

from test_paper_results import census_with_stack, drawn_general_game, drawn_stable_game


def run(draw, games: range, eta_min: float):
    """Print each game's census; the failing stable games and the starts that land."""
    t0, stopped, landed, bad = time.perf_counter(), 0, 0, []
    for k in games:
        game, rng = draw(k)
        sweep, stack = census_with_stack(game, np.geomspace(2.0, eta_min, 12), rng)
        n = int((~stack.converged).sum())
        counts = (sweep.n_fixed_points.tolist(), sweep.n_stable.tolist())
        print(f"{draw.__name__} {k} (eta_min={eta_min:g}): {n} of {len(stack)} starts "
              f"unconverged, counts {counts[0]}, stable {counts[1]}")
        stopped, landed = stopped + n, landed + len(stack) - n
        if n or counts != ([1] * 12, [1] * 12):
            bad.append(k)
    print(f"{draw.__name__} {games.start}-{games.stop - 1} (eta_min={eta_min:g}): {landed} "
          f"starts landed, {stopped} unconverged, {len(bad)} games with an unconverged "
          f"start or a count other than 1 {bad}, {time.perf_counter() - t0:.1f} s")
    return bad, landed


if __name__ == "__main__":
    # each unconverged start is counted above; its own warning would drown the table
    logging.getLogger("gamedyn").setLevel(logging.ERROR)
    ok = [not run(drawn_stable_game, range(0, 400), 1e-3)[0],
          not run(drawn_stable_game, range(400, 600), 1e-4)[0],
          # the starts that land on the general games, of 23,784
          run(drawn_general_game, range(1000, 1200), 1e-3)[1] >= 23125]
    sys.exit(0 if all(ok) else 1)
