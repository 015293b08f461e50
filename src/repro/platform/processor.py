"""Processor cost model: StrongARM SA-1110 and friends.

Prices an :class:`~repro.platform.tally.OperationTally` in cycles.  The
SA-1110 figures are derived from the documented microarchitecture:

* single-issue 5-stage integer pipeline, most ALU ops 1 cycle;
* 32x32 multiplier with early termination (1-3 cycles; we use 2, MAC 3);
* **no FPU** — floating-point is emulated in software (gcc soft-float /
  ``_fp`` kernels), costing on the order of 10^2 cycles per operation;
* no hardware divide — integer division is a ~70-cycle library call;
* ``libm`` double-precision transcendentals on soft-float cost
  thousands of cycles per call (``pow`` is the famous offender that
  makes the ISO MP3 dequantizer two orders of magnitude too slow).

Absolute constants are documented estimates, not measurements of a
physical badge; EXPERIMENTS.md discusses the calibration.  What the
reproduction relies on is their *relative* order, which is hardware
fact: int ops ~1 cycle << soft-fp ops ~10^2 << libm calls ~10^3-10^4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from repro.digest import content_digest
from repro.errors import PlatformError
from repro.platform.tally import OperationTally

__all__ = ["ProcessorSpec", "CostModel", "SA1110", "SA1110_COSTS",
           "ARM7TDMI", "ARM7TDMI_COSTS", "ARM926", "ARM926_COSTS",
           "GENERIC_DSP", "GENERIC_DSP_COSTS"]


@dataclass(frozen=True)
class ProcessorSpec:
    """Static description of a processor for the cost model.

    ``cycle_costs`` prices each tally field; ``libm_costs`` prices
    math-library calls by name, with ``libm_default`` as fallback.
    """

    name: str
    clock_hz: float
    has_fpu: bool
    cycle_costs: Mapping[str, float]
    libm_costs: Mapping[str, float]
    libm_default: float = 4000.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise PlatformError(f"clock must be positive, got {self.clock_hz}")
        required = {"int_alu", "int_mul", "int_mac", "int_div", "shift",
                    "fp_add", "fp_mul", "fp_div", "load", "store",
                    "branch", "call"}
        missing = required - set(self.cycle_costs)
        if missing:
            raise PlatformError(f"cycle_costs missing entries: {sorted(missing)}")

    @cached_property
    def digest(self) -> str:
        """Content digest of the cost-model inputs, computed once.

        The name, clock and full cycle/libm price tables: two specs
        with different cost tables never share a cache line.
        ``description`` is excluded.
        """
        return content_digest("ProcessorSpec", self.name, self.clock_hz,
                              self.has_fpu, sorted(self.cycle_costs.items()),
                              sorted(self.libm_costs.items()),
                              self.libm_default)


#: SA-1110 per-operation cycle costs (no FPU: fp_* are soft-float).
#:
#: The fp_* figures price *double-precision* emulation the way the ISO
#: reference build pays for it: a libgcc soft-double routine per
#: operation, called (not inlined), with argument marshalling, unpack /
#: align / normalize / repack and spills — several hundred cycles each.
#: EXPERIMENTS.md "Calibration" discusses how these were pinned against
#: the paper's Table 3.
SA1110_COSTS: dict[str, float] = {
    "int_alu": 1.0,
    "int_mul": 2.0,
    "int_mac": 3.0,
    "int_div": 70.0,     # __divsi3 software divide
    "shift": 1.0,        # barrel shifter folded into ALU ops
    "fp_add": 420.0,     # soft-double add (library call incl. overhead)
    "fp_mul": 560.0,     # soft-double multiply
    "fp_div": 2400.0,    # soft-double divide
    "load": 2.0,         # cached load
    "store": 1.0,        # buffered store
    "branch": 2.0,       # average incl. pipeline flushes
    "call": 8.0,         # call+return+spill overhead
}

#: Double-precision libm-on-soft-float call costs (cycles per call).
#: pow() is the famous offender: it is why the ISO dequantizer alone is
#: ~45% of Table 3.
_SA1110_LIBM: dict[str, float] = {
    "pow": 52000.0,
    "exp": 11000.0,
    "log": 12000.0,
    "log10": 12500.0,
    "sin": 12000.0,
    "cos": 12000.0,
    "tan": 16000.0,
    "atan": 13000.0,
    "sqrt": 9000.0,
    "floor": 900.0,
    "fabs": 200.0,
    "frexp": 700.0,
    "ldexp": 700.0,
}

#: The Badge4 CPU: Intel StrongARM SA-1110 at 206.4 MHz.
SA1110 = ProcessorSpec(
    name="StrongARM SA-1110",
    clock_hz=206.4e6,
    has_fpu=False,
    cycle_costs=SA1110_COSTS,
    libm_costs=_SA1110_LIBM,
    libm_default=8000.0,
    description=(
        "Intel StrongARM SA-1110 @ 206.4 MHz as used on Badge4: "
        "single-issue integer core, early-terminating multiplier, "
        "no FPU (soft-float), no hardware divide."
    ),
)


def _scaled_libm(base: Mapping[str, float], factor: float) -> dict[str, float]:
    """A libm price table scaled from a reference one.

    The transcendental routines are the same soft-float code on every
    FPU-less core; what changes between processors is how fast that
    code's multiply/shift mix runs, which a single factor captures to
    the fidelity this model needs.
    """
    return {name: round(cost * factor) for name, cost in base.items()}


#: ARM7TDMI-class per-operation cycle costs.  Three-stage pipeline, a
#: 32x8 Booth multiplier (2-5 cycles; we use 4, MAC 5), no cache
#: assumption beyond slow single-port memory, no FPU, no divider.
ARM7TDMI_COSTS: dict[str, float] = {
    "int_alu": 1.0,
    "int_mul": 4.0,      # 32x8 Booth steps, early termination averaged
    "int_mac": 5.0,      # MLA adds a cycle over MUL
    "int_div": 90.0,     # software divide, no CLZ to speed normalization
    "shift": 1.0,        # barrel shifter folded into the ALU path
    "fp_add": 480.0,     # soft-double add (slower multiplier tax)
    "fp_mul": 700.0,     # soft-double multiply leans hard on the 8-bit Booth
    "fp_div": 2900.0,
    "load": 3.0,         # non-sequential memory access
    "store": 2.0,
    "branch": 3.0,       # 3-stage refill
    "call": 10.0,
}

#: ARM7TDMI-class embedded core (the pre-StrongARM generation).
ARM7TDMI = ProcessorSpec(
    name="ARM7TDMI",
    clock_hz=66.0e6,
    has_fpu=False,
    cycle_costs=ARM7TDMI_COSTS,
    libm_costs=_scaled_libm(_SA1110_LIBM, 1.3),
    libm_default=10000.0,
    description=(
        "ARM7TDMI-class core @ 66 MHz: 3-stage pipeline, 32x8 Booth "
        "multiplier, no cache, no FPU, no hardware divide."),
)

#: ARM926EJ-S-class per-operation cycle costs.  Five-stage pipeline,
#: Harvard caches, single-cycle 32x16 DSP-extension MAC, CLZ-assisted
#: software division; still no FPU.
ARM926_COSTS: dict[str, float] = {
    "int_alu": 1.0,
    "int_mul": 2.0,      # 32x16 pipelined multiplier
    "int_mac": 1.0,      # single-cycle MAC (the ARM9E DSP extension)
    "int_div": 35.0,     # software divide with CLZ normalization
    "shift": 1.0,
    "fp_add": 400.0,
    "fp_mul": 460.0,     # faster multiplier narrows the soft-float gap
    "fp_div": 2200.0,
    "load": 1.0,         # Harvard I/D caches hide most latency
    "store": 1.0,
    "branch": 3.0,       # 5-stage mispredict refill
    "call": 6.0,
}

#: ARM926EJ-S-class applications core (the post-StrongARM generation).
ARM926 = ProcessorSpec(
    name="ARM926EJ-S",
    clock_hz=200.0e6,
    has_fpu=False,
    cycle_costs=ARM926_COSTS,
    libm_costs=_scaled_libm(_SA1110_LIBM, 0.85),
    libm_default=7000.0,
    description=(
        "ARM926EJ-S-class core @ 200 MHz: 5-stage pipeline, Harvard "
        "caches, single-cycle DSP MAC, CLZ divide assist, no FPU."),
)

#: Generic fixed-point DSP per-operation cycle costs.  Dual MAC-capable
#: datapaths and dual data buses make integer/fixed-point work nearly
#: free; IEEE doubles are emulated miserably; control flow pays a deep
#: exposed pipeline.
GENERIC_DSP_COSTS: dict[str, float] = {
    "int_alu": 0.5,      # dual ALUs: two ops per cycle sustained
    "int_mul": 1.0,
    "int_mac": 0.5,      # dual single-cycle MAC units
    "int_div": 18.0,     # iterative divide step instruction
    "shift": 0.5,
    "fp_add": 700.0,     # IEEE soft-double on a 16/32-bit datapath
    "fp_mul": 950.0,
    "fp_div": 4200.0,
    "load": 0.5,         # dual data buses, on-chip RAM
    "store": 0.5,
    "branch": 5.0,       # deep exposed pipeline, no predictor
    "call": 12.0,
}

#: A generic fixed-point DSP of the SmartBadge era (C55x/Blackfin-ish).
GENERIC_DSP = ProcessorSpec(
    name="Generic fixed-point DSP",
    clock_hz=160.0e6,
    has_fpu=False,
    cycle_costs=GENERIC_DSP_COSTS,
    libm_costs=_scaled_libm(_SA1110_LIBM, 1.8),
    libm_default=15000.0,
    description=(
        "Generic fixed-point DSP @ 160 MHz: dual MAC/ALU datapaths and "
        "dual data buses, iterative divide, deep pipeline, no FPU — "
        "IEEE doubles are punitively emulated."),
)


class CostModel:
    """Prices operation tallies in cycles and seconds for one processor."""

    def __init__(self, spec: ProcessorSpec = SA1110):
        self.spec = spec

    def cycles(self, tally: OperationTally) -> float:
        """Total cycles the tallied operations cost on this processor."""
        costs = self.spec.cycle_costs
        total = (
            tally.int_alu * costs["int_alu"]
            + tally.int_mul * costs["int_mul"]
            + tally.int_mac * costs["int_mac"]
            + tally.int_div * costs["int_div"]
            + tally.shift * costs["shift"]
            + tally.fp_add * costs["fp_add"]
            + tally.fp_mul * costs["fp_mul"]
            + tally.fp_div * costs["fp_div"]
            + tally.load * costs["load"]
            + tally.store * costs["store"]
            + tally.branch * costs["branch"]
            + tally.call * costs["call"]
        )
        for name, count in tally.libm_calls.items():
            per_call = self.spec.libm_costs.get(name, self.spec.libm_default)
            total += count * per_call
        return total

    def seconds(self, tally: OperationTally, clock_hz: float | None = None) -> float:
        """Wall-clock seconds at ``clock_hz`` (default: the spec's clock)."""
        clock = clock_hz if clock_hz is not None else self.spec.clock_hz
        if clock <= 0:
            raise PlatformError(f"clock must be positive, got {clock}")
        return self.cycles(tally) / clock
