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

use crate::error::CoreError;
use crate::netgen;
use crate::power::{estimate, PowerBreakdown};
use crate::report::AdcReport;
use crate::sim::{AdcSimulator, SimCapture};
use crate::spec::AdcSpec;
use std::fmt;
use tdsigma_dsp::metrics::ToneAnalysis;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_layout::{analyze_timing, synthesize, AprOptions, LayoutResult, TimingReport};
use tdsigma_netlist::{verilog, Design, PowerPlan};
use tdsigma_obs as obs;

std::thread_local! {
    /// Per-thread DSP scratch for the flow's capture analysis: window
    /// coefficients, windowed buffer, and FFT twiddles survive across the
    /// many flow runs a sweep worker executes.
    static DSP_SCRATCH: std::cell::RefCell<SpectrumScratch> =
        std::cell::RefCell::new(SpectrumScratch::new());
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

    /// The spec this flow will implement.
    pub fn spec(&self) -> &AdcSpec {
        &self.spec
    }

    /// The coherent input frequency the flow will use.
    pub fn input_frequency_hz(&self) -> f64 {
        let target = self.fin_hz.unwrap_or(self.spec.bw_hz / 5.0);
        // Snap to a non-zero FFT bin of the capture.
        let bin = (target * self.sim_samples as f64 / self.spec.fs_hz)
            .round()
            .max(1.0);
        bin * self.spec.fs_hz / self.sim_samples as f64
    }

    /// Runs the complete flow.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, netlist, and layout errors.
    pub fn run(&self) -> Result<FlowOutcome, CoreError> {
        // Every stage runs under an observability span: wall time always
        // lands in the `flow.*` histograms (atomic adds only), and each
        // stage emits one JSON trace line when tracing is enabled.

        // 1. Netlist + HDL generation.
        let (design, verilog_text, flat) = {
            let _span = obs::span("flow.netgen").attr("node", self.spec.tech.id());
            let design = netgen::generate(&self.spec)?;
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
            synthesize(&flat, &power_plan, &self.spec.tech, &self.apr)?
        };
        let timing = {
            let _span = obs::span("flow.timing");
            analyze_timing(&flat, &layout.parasitics, &self.spec.tech, self.spec.fs_hz)?
        };
        // The leakage sum is the last reader of the flat netlist, which is
        // the largest allocation of the flow (a few `String`s and a map per
        // cell, ≈10× the hierarchical design); dropping it here keeps it out
        // of the transient's heap.
        let leakage_nw: f64 = {
            let _span = obs::span("flow.power_report");
            let catalog = self.spec.tech.catalog();
            flat.cells
                .iter()
                .map(|c| catalog.cell(&c.cell).map(|s| s.leakage_nw()).unwrap_or(0.0))
                .sum()
        };
        drop(flat);

        // 4. Post-layout simulation.
        let (capture, analysis) = self.simulate(&layout)?;

        // 5. Power and the Table-3 row.
        let _span = obs::span("flow.power_report");
        let wire_cap = layout.parasitics.total_capacitance_f();
        let power = estimate(&self.spec, &capture.activity, wire_cap, leakage_nw);
        let report = AdcReport::from_parts(
            self.spec.tech.id(),
            self.spec.fs_hz,
            self.spec.bw_hz,
            analysis.sndr_db,
            power.total_w(),
            power.digital_fraction(),
            layout.area_mm2,
        );

        Ok(FlowOutcome {
            design,
            verilog: verilog_text,
            power_plan,
            layout,
            timing,
            capture,
            analysis,
            power,
            report,
        })
    }

    /// Step 4 of [`Self::run`]: the post-layout transient of this flow's
    /// input tone on `layout`, and its single-tone analysis (the transient
    /// itself is spanned as `flow.transient` inside the simulator,
    /// spectrum and tone metrics inside the capture analysis).
    ///
    /// The simulator reads only the spec and the extracted VCTRL
    /// capacitance of `layout`, and the amplitude and input frequency are
    /// resolved here exactly as in `run()`. So on a layout that a flow of
    /// the same spec and APR options produced, this returns bit for bit
    /// the capture and analysis of a fresh `run()` with this flow's
    /// amplitude, frequency and capture length, without repeating netlist
    /// generation, APR and timing.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn simulate(&self, layout: &LayoutResult) -> Result<(SimCapture, ToneAnalysis), CoreError> {
        let mut sim = AdcSimulator::with_parasitics(self.spec.clone(), &layout.parasitics)?;
        let fin = self.input_frequency_hz();
        let amplitude = self.amplitude_rel * self.spec.full_scale_v();
        let capture = sim.run_tone(fin, amplitude, self.sim_samples);
        // Sweep/optimizer loops run many flows per worker thread; the
        // thread-local scratch makes every analysis after the first
        // allocation-free (bit-identical — see `SpectrumScratch`).
        let analysis =
            DSP_SCRATCH.with(|s| capture.analyze_with(self.spec.bw_hz, &mut s.borrow_mut()));
        Ok((capture, analysis))
    }
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
        assert_eq!(format!("{:?}", a.0.activity), format!("{:?}", b.0.activity));
        assert_eq!(format!("{:?}", a.1), format!("{:?}", b.1));
    }

    #[test]
    fn simulate_on_an_existing_layout_is_exactly_a_fresh_run() {
        let outcome = quick_flow().run().unwrap();
        let (capture, analysis) = quick_flow().simulate(&outcome.layout).unwrap();
        assert_same_capture((&capture, &analysis), (&outcome.capture, &outcome.analysis));

        // The Fig. 18 reuse: another amplitude on the same layout.
        let low = quick_flow().with_amplitude(0.05);
        let fresh = low.run().unwrap();
        assert_eq!(fresh.layout, outcome.layout, "the layout ignores the tone");
        let (capture, analysis) = low.simulate(&outcome.layout).unwrap();
        assert_same_capture((&capture, &analysis), (&fresh.capture, &fresh.analysis));
        assert_ne!(capture.output, outcome.capture.output);
    }

    #[test]
    fn input_frequency_is_coherent() {
        let flow = quick_flow();
        let fin = flow.input_frequency_hz();
        let bin = fin * 4096.0 / flow.spec().fs_hz;
        assert!((bin - bin.round()).abs() < 1e-9, "fin must land on a bin");
        assert!(bin >= 1.0);
        // Near BW/5 = 1 MHz, like the paper.
        assert!((fin - 1e6).abs() < 200e3, "fin {fin}");
    }

    #[test]
    fn explicit_input_frequency_snaps() {
        let flow = quick_flow().with_input_frequency(1.23e6);
        let fin = flow.input_frequency_hz();
        let bin = fin * 4096.0 / flow.spec().fs_hz;
        assert!((bin - bin.round()).abs() < 1e-9);
    }
}
