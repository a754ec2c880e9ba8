"""Campaign execution bench: serial vs sharded sweep wall-clock.

Runs the same 52-site fault-injection campaign serially and on a
two-worker ``local:2`` pool, asserts the sharded sweep is bit-identical to the
serial one (the determinism contract of DESIGN.md section 9), and
reports both wall-clocks.  ``python -m repro faults bench`` produces the
committed JSON artifact (``benchmarks/results/campaign_scaling.json``)
from the same machinery.
"""

import time

from conftest import run_once

from repro.faults import campaign_from_spec

SITES = 52
PATTERNS = 400


def _campaign():
    return campaign_from_spec({
        "width": 8,
        "kind": "column",
        "skip": 3,
        "cycle_fraction": 0.6,
        "characterize_patterns": 600,
        "sites": SITES,
        "patterns": PATTERNS,
        "seed": 7,
    })


def test_campaign_serial_vs_sharded(benchmark):
    campaign = _campaign()
    start = time.time()
    serial = campaign.run()
    serial_s = time.time() - start
    # The benchmark timer records the sharded sweep; the serial sweep's
    # wall-clock is printed alongside for the comparison.
    sharded = run_once(benchmark, campaign.run, pool="local:2")
    assert sharded.sites == serial.sites, (
        "sharded sweep diverged from the serial sweep"
    )
    assert serial.num_sites == SITES
    assert serial.complete
    print()
    print(
        "serial %.2f s vs sharded (pool local:2, see benchmark timer); "
        "%d sites, %d pruned, %d simulated"
        % (
            serial_s,
            serial.num_sites,
            serial.pruned_sites,
            serial.simulated_sites,
        )
    )
