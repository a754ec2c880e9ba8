"""Fault injection: fault models, netlist injection, campaign sweeps.

The reliability claim of the paper -- and of this reproduction's
extensions -- is only testable against *faulty* silicon.  This package
provides the three standard fault classes of the aging-monitor
literature (stuck-at, transient bit-flip, delay hot-spot), applies them
to compiled netlists through the timing engine's fault hooks, and runs
sweeping :class:`InjectionCampaign` s that measure what fraction of
injected corruption the Razor bank detects and how the recovery
policies absorb it.

Quickstart::

    from repro import AgingAwareMultiplier
    from repro.faults import InjectionCampaign

    arch = AgingAwareMultiplier.build(8, "column", skip=3, cycle_ns=0.6)
    result = InjectionCampaign.sweep(arch, num_sites=50,
                                     num_patterns=2000).run()
    print(result.render())

Campaigns are restartable, partitionable jobs.  A campaign built from a
JSON-able spec (:func:`campaign_from_spec`) can run as
``run(pool="local:4", store=ArtifactStore("campaign-store"))``: that
shards the site list over a :mod:`repro.distrib` worker pool
(bit-identical to the serial sweep), saves every :class:`SiteReport`
as a ``site`` artifact as it completes, resumes from the store after a
kill, and prunes sites whose logic cone cannot reach an observed
product bit.
``python -m repro faults run --help`` exposes the same machinery from
the command line.
"""

from .campaign import (
    CampaignResult,
    InjectionCampaign,
    SiteReport,
    campaign_from_spec,
    unique_site_ids,
)
from .injector import (
    SITE_KINDS,
    build_fault_hooks,
    compile_with_faults,
    em_fault_sites,
    enumerate_fault_sites,
    fault_delay_scale,
    fault_delay_scales,
)
from .models import (
    DelayFault,
    FaultModel,
    StuckAtFault,
    TransientBitFlip,
)

__all__ = [
    "CampaignResult",
    "DelayFault",
    "FaultModel",
    "InjectionCampaign",
    "SITE_KINDS",
    "SiteReport",
    "StuckAtFault",
    "TransientBitFlip",
    "build_fault_hooks",
    "campaign_from_spec",
    "compile_with_faults",
    "em_fault_sites",
    "enumerate_fault_sites",
    "fault_delay_scale",
    "fault_delay_scales",
    "unique_site_ids",
]
