"""The one parallel mechanism: worker pools behind every ``pool=``.

Fault-injection campaigns, the Monte Carlo pricer, variant sweeps, the
experiment-suite scheduler and the reliability service's query backend
fan work out only through this package:
``pool="local:4"`` for local processes, or a pool over machines that do
not share a Python process -- or even a filesystem.  Every pool keeps
the repo's bit-identity contract: a pooled run merges to byte-identical
rendered/JSON output versus the serial run.

The design rests on one rule: **jobs travel as JSON specs, never as
pickles.**  Every worker rebuilds heavy state (characterized factories,
compiled circuits) deterministically from a handful of CLI-level
parameters (:func:`repro.faults.campaign.campaign_from_spec`,
:func:`repro.montecarlo.runner.mc_job_spec`), and caches it per
process, so any host with this repo checked out can serve jobs.

Three pool flavours, selected by ``--pool SPEC``:

* ``local:N`` -- :class:`~.pool.LocalPool`, a process pool speaking the
  same JSON job protocol as the remote transports (the only local
  parallel path, the CI stand-in for a cluster, and the owner of the
  worker-crash policy: rebuild once, then isolate the crasher);
* ``tcp:host:port,host:port`` -- :class:`~.pool.TcpPool`, newline-
  delimited JSON over sockets to ``python -m repro distrib worker``
  daemons (the framing of :mod:`~.framing`, which the reliability
  service speaks too);
* ``manifest:DIR`` -- :class:`~.pool.ManifestPool`, a two-phase
  file-based flow for hosts that share only a directory (NFS, synced
  artifacts): the driver stages request files, any number of
  ``python -m repro distrib exec`` runs claim and execute them, and
  re-running the driver merges the results.

See DESIGN.md section 15 for the protocol and merge invariants.
"""

from .pool import (
    LocalPool,
    ManifestPool,
    TcpPool,
    WorkerPool,
    open_pool,
    parse_pool_spec,
    run_campaign_pooled,
    run_mc_pooled,
    run_suite_pooled,
)

__all__ = [
    "LocalPool",
    "ManifestPool",
    "TcpPool",
    "WorkerPool",
    "open_pool",
    "parse_pool_spec",
    "run_campaign_pooled",
    "run_mc_pooled",
    "run_suite_pooled",
]
