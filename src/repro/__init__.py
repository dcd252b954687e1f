"""Reproduction of "Hardware Support for QoS-based Function Allocation in
Reconfigurable Systems" (Ullmann, Jin, Becker).

The package is organised in layers mirroring Fig. 1 of the paper:

* :mod:`repro.core` -- the CBR-based retrieval and similarity machinery
  (the paper's primary contribution), substrate independent.
* :mod:`repro.fixedpoint` -- 16-bit fixed-point arithmetic used by the
  hardware retrieval unit.
* :mod:`repro.memmap` -- the linear-list / implementation-tree memory layout
  of Fig. 4 and Fig. 5, mapped onto 16-bit-word RAM blocks.
* :mod:`repro.hardware` -- the cycle-accurate behavioural model of the FPGA
  retrieval unit (Fig. 6 / Fig. 7) plus a resource estimator (Table 2).
* :mod:`repro.software` -- the MicroBlaze-like software retrieval cost model
  used for the hardware/software speedup comparison.
* :mod:`repro.platform` -- reconfigurable devices, bitstream repository,
  reconfiguration timing and run-time controllers.
* :mod:`repro.allocation` -- the function-allocation management layer with
  feasibility checks and QoS negotiation.
* :mod:`repro.api` -- the Application-API and HW-Layer API facades.
* :mod:`repro.serving` -- QoS-aware micro-batched request serving (trace
  replay, micro-batched retrieval, cycle-exact admission control).
* :mod:`repro.apps` -- example application workload models.
* :mod:`repro.tools` -- case-base generators and tracing helpers.
* :mod:`repro.analysis` -- reporting and statistics helpers.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
