//! The complete design & synthesis flow (paper Fig. 9).
//!
//! ```text
//! spec ──► netlist generation ──► HDL (Verilog)
//!                │
//!                ├──► power-plan inference (PDs + groups, Fig. 12)
//!                ├──► floorplan + APR + extraction (MSV flow, Fig. 13/14)
//!                │
//!                └──► post-layout behavioral simulation
//!                        └──► SNDR / power / area / FOM report (Table 3)
//! ```
//!
//! The first three steps are the physical half ([`crate::physical`]);
//! the electrical half reads five numbers of it, a [`PhysicalSummary`].
//! [`DesignFlow::run`] runs both halves and keeps every product;
//! [`DesignFlow::evaluate`] takes the physical half from a process-wide
//! memo, so the jobs of a sweep or an optimizer that share a structure
//! share one layout.

use crate::error::CoreError;
use crate::physical::{self, PhysicalKey, PhysicalSummary};
use crate::power::{estimate, PowerBreakdown};
use crate::report::AdcReport;
use crate::sim::{AdcSimulator, SimCapture, VctrlCap};
use crate::spec::AdcSpec;
use std::fmt;
use tdsigma_dsp::{SpectrumScratch, ToneAnalysis};
use tdsigma_layout::{AprOptions, LayoutResult, TimingReport};
use tdsigma_netlist::{Design, PowerPlan};
use tdsigma_obs as obs;

std::thread_local! {
    /// Per-thread DSP scratch for the flow's capture analysis: window
    /// coefficients, windowed buffer, and FFT twiddles survive across the
    /// many flow runs a sweep worker executes.
    static DSP_SCRATCH: std::cell::RefCell<SpectrumScratch> =
        std::cell::RefCell::new(SpectrumScratch::new());
}

/// The coherent input frequency of a capture: the target (or `BW/5` when
/// none is given, as the paper uses 1 MHz in a 5 MHz bandwidth) snapped
/// to a non-zero FFT bin of `samples` points at `fs_hz`.
pub fn coherent_input_hz(fin_hz: Option<f64>, fs_hz: f64, bw_hz: f64, samples: usize) -> f64 {
    let target = fin_hz.unwrap_or(bw_hz / 5.0);
    let bin = (target * samples as f64 / fs_hz).round().max(1.0);
    bin * fs_hz / samples as f64
}

/// Everything a flow run produces.
#[derive(Debug)]
pub struct FlowOutcome {
    /// The generated hierarchical netlist.
    pub design: Design,
    /// The gate-level Verilog (HDL generation phase).
    pub verilog: String,
    /// The inferred power domains and component groups.
    pub power_plan: PowerPlan,
    /// The synthesised layout (floorplan, placement, routing, parasitics).
    pub layout: LayoutResult,
    /// Static timing of the clocked logic at the sampling clock.
    pub timing: TimingReport,
    /// What the post-layout simulation and the report read of the layout.
    pub physical: PhysicalSummary,
    /// The post-layout transient capture.
    pub capture: SimCapture,
    /// Single-tone analysis of the capture.
    pub analysis: ToneAnalysis,
    /// Power breakdown.
    pub power: PowerBreakdown,
    /// The Table-3 row.
    pub report: AdcReport,
}

impl fmt::Display for FlowOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.layout)?;
        writeln!(
            f,
            "timing: slack {:+.1} ps at {:.0} MHz ({} endpoints)",
            self.timing.slack_ps(),
            1e6 / self.timing.clock_period_ps,
            self.timing.endpoints
        )?;
        writeln!(f, "{}", self.analysis)?;
        writeln!(f, "{}", self.power)?;
        write!(f, "{}", self.report)
    }
}

/// The electrical half's products (step 4 and 5 of the flow).
struct Electrical {
    capture: SimCapture,
    analysis: ToneAnalysis,
    power: PowerBreakdown,
    report: AdcReport,
}

/// The configurable flow driver.
#[derive(Debug, Clone)]
pub struct DesignFlow {
    spec: AdcSpec,
    apr: AprOptions,
    sim_samples: usize,
    amplitude_rel: f64,
    fin_hz: Option<f64>,
}

impl DesignFlow {
    /// Creates a flow for a spec with defaults: 16384-sample capture at
    /// −2 dBFS, input tone near `BW/5` (the paper uses 1 MHz in a 5 MHz
    /// bandwidth), APR at 0.7 utilisation.
    pub fn new(spec: AdcSpec) -> Self {
        DesignFlow {
            spec,
            apr: AprOptions::default(),
            sim_samples: 16_384,
            amplitude_rel: 0.79, // −2 dBFS
            fin_hz: None,
        }
    }

    /// Overrides the number of captured clock cycles (power of two).
    pub fn with_samples(mut self, n: usize) -> Self {
        self.sim_samples = n;
        self
    }

    /// Overrides the input amplitude relative to full scale (0–1).
    pub fn with_amplitude(mut self, rel: f64) -> Self {
        self.amplitude_rel = rel;
        self
    }

    /// Overrides the input tone frequency (snapped to a coherent bin).
    pub fn with_input_frequency(mut self, fin_hz: f64) -> Self {
        self.fin_hz = Some(fin_hz);
        self
    }

    /// Overrides the APR options.
    pub fn with_apr(mut self, apr: AprOptions) -> Self {
        self.apr = apr;
        self
    }

    /// The coherent input frequency the flow will use.
    pub fn input_frequency_hz(&self) -> f64 {
        coherent_input_hz(
            self.fin_hz,
            self.spec.fs_hz,
            self.spec.bw_hz,
            self.sim_samples,
        )
    }

    /// What the physical half of this flow reads.
    fn physical_key(&self) -> PhysicalKey {
        PhysicalKey::new(&self.spec, self.apr)
    }

    /// Runs the complete flow and keeps every intermediate product.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, netlist, and layout errors.
    pub fn run(&self) -> Result<FlowOutcome, CoreError> {
        // 1–3. Netlist, power plan, APR, timing, leakage.
        let physical::PhysicalDesign {
            design,
            verilog,
            power_plan,
            layout,
            timing,
            summary,
        } = physical::implement(&self.physical_key())?;
        // 4–5. Post-layout simulation, power and the Table-3 row.
        let Electrical {
            capture,
            analysis,
            power,
            report,
        } = self.electrical(&summary)?;
        Ok(FlowOutcome {
            design,
            verilog,
            power_plan,
            layout,
            timing,
            physical: summary,
            capture,
            analysis,
            power,
            report,
        })
    }

    /// The Table-3 row of [`Self::run`] and the physical summary it rests
    /// on, bit for bit, with the physical half taken from the process-wide
    /// memo of `physical::summary`: a spec that shares its structure,
    /// node, clock and APR options with an earlier evaluation in this
    /// process skips netlist generation, APR and timing and runs only the
    /// transient, the spectrum and the power estimate.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, netlist, and layout errors.
    pub fn evaluate(&self) -> Result<(AdcReport, PhysicalSummary), CoreError> {
        let summary = physical::summary(&self.physical_key())?;
        Ok((self.electrical(&summary)?.report, summary))
    }

    /// Steps 4 and 5: the post-layout transient, metered, then power and
    /// the Table-3 row.
    fn electrical(&self, physical: &PhysicalSummary) -> Result<Electrical, CoreError> {
        let (capture, activity) = self.transient(physical, AdcSimulator::run_tone_metered)?;
        let analysis = analyze(&capture, self.spec.bw_hz);
        let _span = obs::span("flow.power_report");
        let power = estimate(
            &self.spec,
            &activity,
            physical.wire_cap_f,
            physical.leakage_nw,
        );
        let report = AdcReport::from_parts(
            self.spec.tech.id(),
            self.spec.fs_hz,
            self.spec.bw_hz,
            analysis.sndr_db,
            power.total_w(),
            power.digital_fraction(),
            physical.area_mm2,
        );
        Ok(Electrical {
            capture,
            analysis,
            power,
            report,
        })
    }

    /// Step 4 of [`Self::run`] without the power: the post-layout
    /// transient of this flow's input tone on a physical design, and its
    /// single-tone analysis (the transient itself is spanned as
    /// `flow.transient` inside the simulator, spectrum and tone metrics
    /// inside the capture analysis).
    ///
    /// The simulator reads only the spec and the extracted VCTRL
    /// capacitance of the summary, and the amplitude and input frequency
    /// are resolved here exactly as in `run()`. So on the summary of a
    /// flow with the same [`PhysicalKey`], this returns bit for bit the
    /// capture and analysis of a fresh `run()` with this flow's amplitude,
    /// frequency and capture length, without repeating netlist
    /// generation, APR and timing. It counts no switching activity
    /// ([`AdcSimulator::run`]).
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn simulate(
        &self,
        physical: &PhysicalSummary,
    ) -> Result<(SimCapture, ToneAnalysis), CoreError> {
        let capture = self.transient(physical, AdcSimulator::run_tone)?;
        let analysis = analyze(&capture, self.spec.bw_hz);
        Ok((capture, analysis))
    }

    /// The post-layout transient of this flow's tone on `physical`,
    /// taken by `run` (`AdcSimulator::run_tone` or `run_tone_metered`).
    fn transient<T>(
        &self,
        physical: &PhysicalSummary,
        run: impl FnOnce(&mut AdcSimulator, f64, f64, usize) -> T,
    ) -> Result<T, CoreError> {
        let mut sim =
            AdcSimulator::with_parasitics(self.spec.clone(), VctrlCap(physical.vctrl_cap_f))?;
        let amplitude = self.amplitude_rel * self.spec.full_scale_v();
        Ok(run(
            &mut sim,
            self.input_frequency_hz(),
            amplitude,
            self.sim_samples,
        ))
    }
}

/// The single-tone analysis of a flow's capture. Sweep/optimizer loops
/// run many flows per worker thread; the thread-local scratch makes every
/// analysis after the first allocation-free (bit-identical — see
/// `SpectrumScratch`).
fn analyze(capture: &SimCapture, bw_hz: f64) -> ToneAnalysis {
    DSP_SCRATCH.with(|s| capture.analyze_with(bw_hz, &mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-cost flow for debug-mode tests.
    fn quick_flow() -> DesignFlow {
        let mut spec = AdcSpec::paper_40nm().unwrap();
        spec.steps_per_cycle = 8;
        DesignFlow::new(spec).with_samples(4096)
    }

    #[test]
    fn full_flow_produces_consistent_outcome() {
        let outcome = quick_flow().run().unwrap();
        // HDL exists and mentions the paper's modules.
        assert!(outcome.verilog.contains("module comparator"));
        assert!(outcome.verilog.contains("module adc_top"));
        // Layout is clean (the methodology's guarantee).
        assert!(outcome.layout.checks.is_clean());
        assert!(outcome.layout.area_mm2 > 0.0);
        // Post-layout SNDR is healthy at a 4096-point quick look.
        assert!(
            outcome.analysis.sndr_db > 45.0,
            "post-layout SNDR {}",
            outcome.analysis.sndr_db
        );
        // Timing closes at the paper's clock.
        assert!(outcome.timing.met(), "{}", outcome.timing);
        assert!(
            outcome.timing.endpoints > 50,
            "latches analysed: {}",
            outcome.timing.endpoints
        );
        assert!(outcome.timing.loops_cut > 0, "SR latches produce cut loops");
        // Report numbers are self-consistent.
        assert!((outcome.report.power_mw / 1e3 - outcome.power.total_w()).abs() < 1e-9);
        assert!(outcome.report.fom_fj > 0.0);
        assert!(!outcome.to_string().is_empty());
    }

    /// Bit-for-bit equality of two captures and their analyses (`Debug`
    /// prints every `f64` round-trip exactly, `-0.0` included).
    fn assert_same_capture(a: (&SimCapture, &ToneAnalysis), b: (&SimCapture, &ToneAnalysis)) {
        let bits = |c: &SimCapture| c.output.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.0), bits(b.0), "output");
        assert_eq!(a.0.slice_codes, b.0.slice_codes, "slice_codes");
        assert_eq!(format!("{:?}", a.1), format!("{:?}", b.1));
    }

    #[test]
    fn simulate_on_an_existing_layout_is_exactly_a_fresh_run() {
        // `run()` meters its transient and `simulate` does not, so this
        // also holds the codes-only kernel to the metered one.
        let outcome = quick_flow().run().unwrap();
        let (capture, analysis) = quick_flow().simulate(&outcome.physical).unwrap();
        assert_same_capture((&capture, &analysis), (&outcome.capture, &outcome.analysis));

        // The Fig. 18 reuse: another amplitude on the same layout.
        let low = quick_flow().with_amplitude(0.05);
        let fresh = low.run().unwrap();
        assert_eq!(fresh.layout, outcome.layout, "the layout ignores the tone");
        let (capture, analysis) = low.simulate(&outcome.physical).unwrap();
        assert_same_capture((&capture, &analysis), (&fresh.capture, &fresh.analysis));
        assert_ne!(capture.output, outcome.capture.output);
    }

    #[test]
    fn input_frequency_is_coherent() {
        let flow = quick_flow();
        let fin = flow.input_frequency_hz();
        let bin = fin * 4096.0 / flow.spec.fs_hz;
        assert!((bin - bin.round()).abs() < 1e-9, "fin must land on a bin");
        assert!(bin >= 1.0);
        // Near BW/5 = 1 MHz, like the paper.
        assert!((fin - 1e6).abs() < 200e3, "fin {fin}");
    }

    #[test]
    fn explicit_input_frequency_snaps() {
        let flow = quick_flow().with_input_frequency(1.23e6);
        let fin = flow.input_frequency_hz();
        let bin = fin * 4096.0 / flow.spec.fs_hz;
        assert!((bin - bin.round()).abs() < 1e-9);
    }
}
