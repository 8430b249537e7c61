"""Correctness checks on a workload's outputs, and the failed-operation tally.

No check pins a stream hash: a new draw layout changes every realization, so
the checks compare against the configured physics instead.

- Repetitions with one seed must write byte-identical streams.
- No record may carry a channel outside 1..n.  Each channel's singles count
  must lie within 4 standard errors of
  N * mean over schedule bins of 1 - (1 - p1*T*r)(1 - p2*T*r): primary and
  second photon reach the channel independently and a click detector merges a
  double hit into one record.  The linear law (p1 + p2)*T*r misses by several
  standard errors at brightness 0.5.  Each (schedule bin, channel) count must
  also lie within 5 standard errors of its own term, which catches routing
  applied to the wrong bin; the wider band keeps the chance of a false alarm
  over up to 64 cells near that of one 4-sigma test.
- The switching efficiency recovered by the ratio route must lie within
  4 standard errors of the configured table's.
"""

from __future__ import annotations

import numpy as np

MAX_PULL = 4.0
MAX_CELL_PULL = 5.0


def expected_counts(p1, p2, survive, rows, bin_pulses):
    """Expected (bin, channel) record counts and their binomial variances.

    rows is the (period, n_outputs) routing matrix, bin_pulses the number of
    pulses that fall in each schedule bin.
    """
    rows = np.asarray(rows, dtype=float)
    q = 1.0 - (1.0 - p1 * survive * rows) * (1.0 - p2 * survive * rows)
    n = np.asarray(bin_pulses, dtype=float)[:, None]
    return n * q, n * q * (1.0 - q)


def _pulls(observed, expected, variance):
    diff = observed - expected
    return np.divide(
        diff, np.sqrt(variance), out=np.where(diff == 0, 0.0, np.inf), where=variance > 0
    )


def singles_ok(counts, expected, variance) -> bool:
    """counts[b][c] counts records in schedule bin b on channel c.

    Column 0 collects channel 0 and the last column every channel above n;
    both must be empty.
    """
    counts = np.asarray(counts)
    expected = np.asarray(expected)
    variance = np.asarray(variance)
    if counts.shape != (expected.shape[0], expected.shape[1] + 2):
        return False
    if counts[:, 0].any() or counts[:, -1].any():
        return False
    counts = counts[:, 1:-1]
    channel = _pulls(counts.sum(axis=0), expected.sum(axis=0), variance.sum(axis=0))
    cell = _pulls(counts, expected, variance)
    return bool(np.all(np.abs(channel) < MAX_PULL) and np.all(np.abs(cell) < MAX_CELL_PULL))


def eta_dm_ok(value, sigma, truth) -> bool:
    return bool(sigma > 0 and abs(value - truth) / sigma < MAX_PULL)


def tally(reps) -> tuple[int, int]:
    """(attempted, failed) operations over a run's repetitions.

    Every CLI call and every check is one operation.  A call fails when it
    exits non-zero; the identity check compares each stream to the first.  A
    check whose input is missing (None) fails.
    """
    attempted = failed = 0
    for rep in reps:
        outcomes = [code == 0 for code in rep["exit_codes"]]
        outcomes.append(rep["digest"] is not None and rep["digest"] == reps[0]["digest"])
        s = rep["singles"]
        outcomes.append(
            s is not None and singles_ok(s["counts"], s["expected"], s["variance"])
        )
        if "eta_dm" in rep:
            e = rep["eta_dm"]
            outcomes.append(e is not None and eta_dm_ok(e["value"], e["sigma"], e["truth"]))
        attempted += len(outcomes)
        failed += outcomes.count(False)
    return attempted, failed
