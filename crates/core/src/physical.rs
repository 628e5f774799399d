//! The physical half of the flow (paper Fig. 9, left column): netlist and
//! HDL generation, power-plan inference, APR with extraction, timing
//! sign-off and the leakage sum.
//!
//! Its inputs are a [`PhysicalKey`] and nothing else: the technology
//! record, the netlist structure, the sampling clock (for STA) and the
//! APR options. The electrical knobs of a spec (loop gain, resistor
//! values, noise, seed, simulation steps, input tone) cannot reach it, so
//! every spec that shares a key shares one layout. `summary` exploits
//! that: it implements each distinct key at most once per process and
//! hands later callers the [`PhysicalSummary`] the electrical half reads.

use crate::error::CoreError;
use crate::netgen::{self, AdcStructure};
use crate::sim::VctrlCap;
use crate::spec::AdcSpec;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use tdsigma_layout::{analyze_timing, synthesize, AprOptions, LayoutResult, TimingReport};
use tdsigma_netlist::{verilog, Design, PowerPlan};
use tdsigma_obs as obs;
use tdsigma_tech::Technology;

/// Everything the physical half reads.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalKey {
    /// The full technology, not only its node id: interpolated nodes and
    /// corners share ids with the table nodes.
    pub tech: Technology,
    /// What the netlist is built from.
    pub structure: AdcStructure,
    /// Sampling clock the timing is signed off at, Hz.
    pub fs_hz: f64,
    /// Floorplan, placement and routing options.
    pub apr: AprOptions,
}

impl PhysicalKey {
    /// The key of `spec` laid out with `apr`.
    pub fn new(spec: &AdcSpec, apr: AprOptions) -> Self {
        PhysicalKey {
            tech: spec.tech.clone(),
            structure: AdcStructure::from(spec),
            fs_hz: spec.fs_hz,
            apr,
        }
    }
}

/// What the electrical half reads of a physical design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalSummary {
    /// Extracted wire capacitance of the VCO control nets, F.
    pub vctrl_cap_f: f64,
    /// Total extracted wire capacitance, F.
    pub wire_cap_f: f64,
    /// Summed cell leakage, nW.
    pub leakage_nw: f64,
    /// Die area, mm².
    pub area_mm2: f64,
    /// Timing slack at the sampling clock, ps.
    pub slack_ps: f64,
}

/// Everything the physical half produces.
#[derive(Debug)]
pub struct PhysicalDesign {
    /// The generated hierarchical netlist.
    pub design: Design,
    /// The gate-level Verilog.
    pub verilog: String,
    /// The inferred power domains and component groups.
    pub power_plan: PowerPlan,
    /// The synthesised layout (floorplan, placement, routing, parasitics).
    pub layout: LayoutResult,
    /// Static timing of the clocked logic at the sampling clock.
    pub timing: TimingReport,
    /// The numbers the electrical half reads.
    pub summary: PhysicalSummary,
}

/// Runs the physical half for `key`.
///
/// Every stage runs under an observability span: wall time always lands in
/// the `flow.*` histograms (atomic adds only), and each stage emits one
/// JSON trace line when tracing is enabled.
///
/// # Errors
///
/// Propagates netlist and layout errors.
pub fn implement(key: &PhysicalKey) -> Result<PhysicalDesign, CoreError> {
    // 1. Netlist + HDL generation.
    let (design, verilog_text, flat) = {
        let _span = obs::span("flow.netgen").attr("node", key.tech.id());
        let design = netgen::generate(key.structure)?;
        let verilog_text = verilog::write_design(&design)?;
        let flat = design.flatten();
        (design, verilog_text, flat)
    };

    // 2. Power-domain partitioning (floorplan generation inputs).
    let power_plan = {
        let _span = obs::span("flow.power_plan");
        let power_plan = PowerPlan::infer(&flat)?;
        power_plan.validate(&flat)?;
        power_plan
    };

    // 3. APR with MSV regions + extraction, then timing sign-off.
    let layout = {
        let _span = obs::span("flow.apr").attr("cells", flat.cells.len());
        synthesize(&flat, &power_plan, &key.tech, &key.apr)?
    };
    let timing = {
        let _span = obs::span("flow.timing");
        analyze_timing(&flat, &layout.parasitics, &key.tech, key.fs_hz)?
    };
    // The leakage sum is the last reader of the flat netlist, which is the
    // largest allocation of the flow (a few `String`s and a map per cell,
    // ≈10× the hierarchical design); it is dropped on return, before any
    // transient allocates.
    let leakage_nw: f64 = {
        let _span = obs::span("flow.power_report");
        let catalog = key.tech.catalog();
        flat.cells
            .iter()
            .map(|c| catalog.cell(&c.cell).map(|s| s.leakage_nw()).unwrap_or(0.0))
            .sum()
    };

    let summary = PhysicalSummary {
        vctrl_cap_f: VctrlCap::from(&layout.parasitics).0,
        wire_cap_f: layout.parasitics.total_capacitance_f(),
        leakage_nw,
        area_mm2: layout.area_mm2,
        slack_ps: timing.slack_ps(),
    };
    Ok(PhysicalDesign {
        design,
        verilog: verilog_text,
        power_plan,
        layout,
        timing,
        summary,
    })
}

/// Most distinct keys the process remembers. An optimizer run meets a few
/// dozen structures at most; past the bound the oldest key is forgotten
/// and implemented again if it comes back.
const MEMO_CAPACITY: usize = 64;

/// A key's memo entry: `None` until a computation succeeds.
type Slot = Arc<Mutex<Option<PhysicalSummary>>>;

/// A bounded single-flight memo of physical summaries.
///
/// Each key owns a slot whose lock is held while its summary is computed,
/// so concurrent callers of one key wait for the first instead of
/// repeating its work, while other keys proceed. A failed or panicked
/// computation stores nothing: the next caller of the key computes again.
struct Memo {
    slots: Mutex<VecDeque<(PhysicalKey, Slot)>>,
}

impl Memo {
    const fn new() -> Self {
        Memo {
            slots: Mutex::new(VecDeque::new()),
        }
    }

    fn get_or_compute(
        &self,
        key: &PhysicalKey,
        compute: impl FnOnce() -> Result<PhysicalSummary, CoreError>,
    ) -> Result<PhysicalSummary, CoreError> {
        let slot = {
            let mut slots = self
                .slots
                .lock()
                .expect("physical memo index: no code under its lock panics");
            match slots.iter().find(|(k, _)| k == key) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    if slots.len() == MEMO_CAPACITY {
                        slots.pop_front();
                    }
                    let slot = Slot::default();
                    slots.push_back((key.clone(), Arc::clone(&slot)));
                    slot
                }
            }
        };
        // A computation that panicked poisoned the slot with `None` still
        // in it, which is a valid state: compute again.
        let mut value = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(summary) = *value {
            obs::counter("flow.physical.hits").inc();
            return Ok(summary);
        }
        obs::counter("flow.physical.misses").inc();
        let summary = compute()?;
        *value = Some(summary);
        Ok(summary)
    }
}

static MEMO: Memo = Memo::new();

/// The physical summary of `key`: implemented on the first call for the
/// key in this process, remembered after (up to a fixed number of keys).
/// Counts `flow.physical.hits` and `flow.physical.misses`.
///
/// # Errors
///
/// Propagates netlist and layout errors of [`implement`]; a failure is
/// not remembered.
pub(crate) fn summary(key: &PhysicalKey) -> Result<PhysicalSummary, CoreError> {
    MEMO.get_or_compute(key, || implement(key).map(|design| design.summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn key(slices: usize) -> PhysicalKey {
        let spec = AdcSpec::paper_40nm().unwrap().with_slices(slices).unwrap();
        PhysicalKey::new(&spec, AprOptions::default())
    }

    fn fake(x: f64) -> PhysicalSummary {
        PhysicalSummary {
            vctrl_cap_f: x,
            wire_cap_f: x,
            leakage_nw: x,
            area_mm2: x,
            slack_ps: x,
        }
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_computation() {
        let memo = Memo::new();
        let key = key(2);
        let computed = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let results: Vec<PhysicalSummary> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        memo.get_or_compute(&key, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            implement(&key).map(|d| d.summary)
                        })
                        .unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one miss");
        let bits = |p: &PhysicalSummary| {
            [
                p.vctrl_cap_f,
                p.wire_cap_f,
                p.leakage_nw,
                p.area_mm2,
                p.slack_ps,
            ]
            .map(f64::to_bits)
        };
        for r in &results {
            assert_eq!(bits(r), bits(&results[0]));
        }
        assert_eq!(bits(&results[0]), bits(&implement(&key).unwrap().summary));
    }

    #[test]
    fn failures_and_panics_are_not_remembered() {
        let memo = Memo::new();
        let key = key(1);
        let failed = memo.get_or_compute(&key, || {
            Err(CoreError::InvalidSpec {
                reason: "injected".into(),
            })
        });
        assert!(failed.is_err());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(&key, || panic!("injected"))
        }));
        assert!(panicked.is_err());
        assert_eq!(
            memo.get_or_compute(&key, || Ok(fake(1.0))).unwrap(),
            fake(1.0)
        );
        // Remembered now: a second computation never runs.
        assert_eq!(
            memo.get_or_compute(&key, || Ok(fake(2.0))).unwrap(),
            fake(1.0)
        );
    }

    #[test]
    fn the_memo_is_bounded_and_forgets_the_oldest_key() {
        let memo = Memo::new();
        let keys: Vec<PhysicalKey> = (0..=MEMO_CAPACITY)
            .map(|i| {
                let mut k = key(1);
                k.apr.seed = i as u64;
                k
            })
            .collect();
        for (i, k) in keys.iter().enumerate() {
            memo.get_or_compute(k, || Ok(fake(i as f64))).unwrap();
        }
        assert_eq!(memo.slots.lock().unwrap().len(), MEMO_CAPACITY);
        // The newest keys are still there; the first was forgotten.
        let last = MEMO_CAPACITY as f64;
        assert_eq!(
            memo.get_or_compute(&keys[MEMO_CAPACITY], || Ok(fake(-1.0)))
                .unwrap(),
            fake(last)
        );
        assert_eq!(
            memo.get_or_compute(&keys[0], || Ok(fake(-1.0))).unwrap(),
            fake(-1.0)
        );
    }
}
