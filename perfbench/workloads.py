"""Seeded request streams for the benchmark workloads.

A request is the argument list of one `chiralbag` command (without `--out`)
plus what its checks need to know about it.  Every stream is built from the
seed alone, so the same seed gives the same requests.  Streams are cut into
periods: a run always measures whole periods, so every run sees the same mix
of request shapes whatever its length.

|theta|, which sets the cost of the closed forms and of the disc spectrum,
is spread evenly rather than drawn independently, so the mix does not drift
from seed to seed: one seeded value per stratum of its range, following a
golden-ratio sequence with a seeded offset where a stratum recurs, whose
every prefix covers the stratum evenly and never repeats a value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ALL_M = (2, 4, 6, 8, 10, 12)
CYLINDER_M = (2, 4, 6, 8)
IDENTITIES = ("ball_cylinder_d1", "ball_cylinder_d2", "c7_relation",
              "alternate_forms", "evaluation_paths")

# verify-identities meets its 1e-11 tolerance up to |theta| = 4.  The band
# beyond lies inside the declared domain but fails at this commit; measured
# streams hold no failing requests, so the band is probed apart (probes()).
BAND = (4.0, 6.0)
# the a1 check of verify-ball is relative, so it cannot pass once a1 -> 0
# (|theta| below ~0.2 at this commit); the measured stream stays above it
# and the probe below it.
DISC_THETA = (0.5, 2.0)
DISC_PROBE_THETA = (0.02, 0.2)


@dataclass(frozen=True)
class Request:
    kind: str  # table | identities | ball | cylinder
    argv: tuple
    thetas: tuple
    ms: tuple
    omegas: tuple = ()
    t: float = 0.0
    s: float = 0.0

    @property
    def results(self) -> int:
        """Rows the report must hold."""
        if self.kind == "table":
            return len(self.ms) * len(self.thetas)
        if self.kind == "identities":
            return len(IDENTITIES)
        if self.kind == "ball":
            return 1
        return 2 * len(self.omegas)  # one U row and one t row per omega


def _num(x: float) -> float:
    """x to six decimals, so the command line and the report echo the very
    float the checks use."""
    return float(f"{x:.6f}")


def _csv(xs) -> str:
    return ",".join(repr(x) for x in xs)


def _signed(rng: random.Random, magnitude: float) -> float:
    return _num(magnitude if rng.random() < 0.5 else -magnitude)


def _golden(rng: random.Random, n: int):
    """n golden-ratio sequences in [0, 1) with seeded offsets; the returned
    function gives the next value of sequence i."""
    offsets = [rng.random() for _ in range(n)]
    counts = [0] * n

    def next_value(i: int) -> float:
        counts[i] += 1
        return (offsets[i] + counts[i] * GOLDEN) % 1.0
    return next_value


def closed_form_request(kind: str, thetas) -> Request:
    command = "table" if kind == "table" else "verify-identities"
    argv = (command, "--m", _csv(ALL_M), f"--theta={_csv(thetas)}",
            "--format", "json")
    return Request(kind, argv, tuple(thetas), ALL_M)


def ball_request(theta: float) -> Request:
    argv = ("verify-ball", "--m", "2", f"--theta={theta!r}",
            "--format", "json")
    return Request("ball", argv, (theta,), (2,))


def cylinder_request(m: int, theta: float, omegas, t: float,
                     s: float) -> Request:
    argv = ("verify-cylinder", "--m", str(m), f"--theta={theta!r}",
            f"--omega={_csv(omegas)}", f"--t={t!r}", f"--s={s!r}",
            "--format", "json")
    return Request("cylinder", argv, (theta,), (m,), tuple(omegas), t, s)


def closed_grid(seed: int):
    """Periods of 2 requests over m = 2..12: `table` on eight thetas, two per
    unit stratum of |theta| in [0, 4], then `verify-identities` on four, one
    per stratum.  Identities cost about twice a table row per theta, so the
    two kinds cost alike and the median falls among both rather than in a
    gap between them.  The 2F1 series cost climbs steeply towards
    |theta| = 4, so the top stratum sets each request's cost; each stratum
    follows golden-ratio sequences, so the spread of costs is the same for
    every seed."""
    rng = random.Random(f"closed_grid:{seed}")
    frac = _golden(rng, 4)
    while True:
        period = []
        for kind, per_stratum in (("table", 2), ("identities", 1)):
            thetas = [_signed(rng, i + frac(i)) for i in range(4)
                      for _ in range(per_stratum)]
            rng.shuffle(thetas)
            period.append(closed_form_request(kind, thetas))
        yield period


def disc_fit(seed: int):
    """Periods of 6 `verify-ball --m 2` requests at default cutoffs: |theta|
    takes one value in the middle half of each sixth of [0.5, 2], in seeded
    order.  The cost grows by half from |theta| = 1 to 2, so stratifying
    keeps the cost mix of a run, which holds only a few requests and whose
    tail is the costliest of them, the same for every seed."""
    rng = random.Random(f"disc_fit:{seed}")
    lo, hi = DISC_THETA
    width = (hi - lo) / 6
    while True:
        mags = [lo + width * (i + 0.25 + 0.5 * rng.random())
                for i in range(6)]
        rng.shuffle(mags)
        yield [ball_request(_signed(rng, mag)) for mag in mags]


def cylinder_modes(seed: int):
    """Periods of 5 `verify-cylinder` requests, one m each at one seeded
    (theta, omega, t, s): m runs through 2, 4, 6, 8 and then takes 6 again,
    so the median falls within the m = 6 requests rather than in the gap
    between two cost clusters, and the tail is set by m = 8."""
    rng = random.Random(f"cylinder_modes:{seed}")
    while True:
        yield [cylinder_request(m, _num(rng.uniform(-1.5, 1.5)),
                                (_num(rng.uniform(0.3, 2.5)),),
                                _num(rng.uniform(0.05, 0.4)),
                                _num(rng.uniform(0.5, 3.0)))
               for m in CYLINDER_M + (6,)]


STREAMS = {"closed_grid": closed_grid, "disc_fit": disc_fit,
           "cylinder_modes": cylinder_modes}

# requests replayed by the traced run: a fixed prefix of the stream, so its
# counts repeat exactly for a seed
TRACE_REQUESTS = {"closed_grid": 20, "disc_fit": 2, "cylinder_modes": 15}


def warmup(workload: str) -> list[Request]:
    """Small requests outside every stream, run before timing so lazy
    first-call costs are not charged to the first measured request.  The
    disc needs none: one request there is seconds long."""
    if workload == "closed_grid":
        return [closed_form_request("table", (0.25,)),
                closed_form_request("identities", (0.25,))]
    if workload == "cylinder_modes":
        return [cylinder_request(2, 0.25, (1.0,), 0.2, 1.5)]
    return []


def probes(workload: str, seed: int) -> list[Request]:
    """Requests from the part of the declared domain that fails at this
    commit.  They run after the measured stream and are reported apart from
    it, so a fix shows as fewer probe failures."""
    rng = random.Random(f"probe:{workload}:{seed}")
    if workload == "closed_grid":
        lo, hi = BAND
        width = (hi - lo) / 4
        thetas = [_signed(rng, lo + width * (i + rng.random()))
                  for i in range(4)]
        return [closed_form_request(kind, (theta,))
                for theta in thetas for kind in ("table", "identities")]
    if workload == "disc_fit":
        lo, hi = DISC_PROBE_THETA
        return [ball_request(_signed(rng, lo + (hi - lo) * rng.random()))]
    return []
