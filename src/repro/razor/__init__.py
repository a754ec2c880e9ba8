"""Razor flip-flop substrate (Ernst et al. [27]; paper Fig. 11).

A Razor flip-flop pairs the main flip-flop with a shadow latch clocked on
a delayed edge; a mismatch between the two means the combinational result
arrived after the main edge, i.e. a timing violation.  The architecture
uses one Razor flip-flop per product bit and ORs the per-bit error flags
(:class:`RazorBank`) to trigger re-execution.
"""

from .flipflop import RazorBank, RazorFlipFlop, RazorSample, razor_errors

__all__ = ["RazorBank", "RazorFlipFlop", "RazorSample", "razor_errors"]
