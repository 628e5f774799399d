//! # tdsigma-baselines — comparison systems and ablation testbenches
//!
//! Everything the paper compares its ADC against:
//!
//! * [`comparators`] — the §2.2.1 ablation: common-mode sweep of the
//!   proposed NOR3 comparator vs the strongARM reference vs the NAND3
//!   comparator of Weaver et al. \[16\],
//! * [`dacs`] — the §2.2.2 ablation: resistor DAC vs current-steering DAC
//!   (Monte-Carlo matching, bias-network needs, synthesis friendliness),
//! * [`prior`] — behavioral models of the previously published
//!   synthesizable ADCs of Table 4 (\[15\] Verilog-to-layout ΔΣ,
//!   \[16\] stochastic flash, \[17\] domino-logic), each simulated at its
//!   own technology node.
//!
//! The three modules are public because callers, the benchmark ledger
//! among them, import by module path (`prior::PriorAdc`); the crate root
//! re-exports nothing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comparators;
pub mod dacs;
pub mod prior;
