//! Continuous-time behavioral simulation of the proposed ADC.
//!
//! Architecture simulated (paper Fig. 4: each slice is a self-contained
//! first-order loop; the digital outputs sum):
//!
//! * Per slice, two resistive summing nodes `VCTRLP`/`VCTRLN`: the input
//!   resistor injects the signal, the DAC resistor injects the feedback,
//!   and the node capacitance (device + extracted wire) low-passes it.
//! * A pseudo-differential ring-VCO pair integrates the node voltages
//!   into phase (`dφ/dt = 2π(f0 + K_vco·V)`); staggered initial phases
//!   decorrelate the slices' quantisation errors, so summing the N slice
//!   bits averages the noise like a multi-level quantizer.
//! * A buffer shifts the VCO swing to the ~0.25·VDD common mode; the
//!   NOR3-based SAFF samples it at `clk`; the XOR of the two SAFF outputs
//!   is the slice bit; retiming latches update the DAC half a cycle later
//!   (excess loop delay).
//! * The slice DAC (inverter + resistor) pulls its node branch to VREFP or
//!   ground — closing a first-order delta-sigma loop per slice whose
//!   quantisation error, VCO mismatch and comparator offset are all
//!   high-pass shaped.

use crate::error::CoreError;
use crate::spec::AdcSpec;
use std::f64::consts::PI;
use std::fmt;
use tdsigma_circuit::comparator::{ClockedComparator, CommonModeWindow, ComparatorParams};
use tdsigma_circuit::mismatch::MismatchModel;
use tdsigma_circuit::noise::SimRng;
use tdsigma_circuit::transient::{Clock, EdgeKind};
use tdsigma_circuit::vco::VcoParams;
use tdsigma_dsp::metrics::ToneAnalysis;
use tdsigma_dsp::spectrum::{Spectrum, SpectrumScratch};
use tdsigma_dsp::window::Window;
use tdsigma_layout::Parasitics;
use tdsigma_obs as obs;

/// The comparator flavour used in the SAFFs.
///
/// The paper's §2.2.1 story: the buffer output common mode is ~0.25 V, so
/// a comparator must regenerate at *low* common mode. The proposed NOR3
/// comparator does; the NAND3 comparator of Weaver et al. \[16\] needs a
/// *high* common mode and fails here; the strongARM works but is not a
/// standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComparatorFlavor {
    /// Proposed: two cross-coupled 3-input NOR gates (synthesis friendly,
    /// PMOS-input-like, valid at low common mode).
    #[default]
    Nor3,
    /// Conventional strongARM (works, but a custom AMS cell).
    StrongArm,
    /// NAND3-based comparator of \[16\] (synthesis friendly but requires a
    /// high input common mode).
    Nand3,
}

impl ComparatorFlavor {
    /// The comparator's valid input common-mode window at a given supply.
    pub fn cm_window(self, vdd_v: f64) -> CommonModeWindow {
        match self {
            // PMOS-input style: works from ground up to ~0.45·VDD.
            ComparatorFlavor::Nor3 => CommonModeWindow {
                min_v: 0.0,
                max_v: 0.45 * vdd_v,
            },
            // StrongARM with PMOS input pair: wide low-CM range.
            ComparatorFlavor::StrongArm => CommonModeWindow {
                min_v: 0.0,
                max_v: 0.7 * vdd_v,
            },
            // NMOS-input NAND3 style: needs CM well above threshold.
            ComparatorFlavor::Nand3 => CommonModeWindow {
                min_v: 0.55 * vdd_v,
                max_v: vdd_v,
            },
        }
    }

    /// Whether the flavour exists in a digital standard-cell library.
    pub fn is_synthesis_friendly(self) -> bool {
        !matches!(self, ComparatorFlavor::StrongArm)
    }
}

impl fmt::Display for ComparatorFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComparatorFlavor::Nor3 => "NOR3 (proposed)",
            ComparatorFlavor::StrongArm => "strongARM",
            ComparatorFlavor::Nand3 => "NAND3 [16]",
        };
        f.write_str(s)
    }
}

// The per-timestep state lives in structure-of-arrays form (see the
// fields of [`AdcSimulator`]): contiguous `Vec<f64>` per quantity,
// interleaved `[p0, n0, p1, n1, …]` over the 2N node/VCO "sides" so the
// layout matches the scalar engine's per-slice p-then-n order — which
// is also the RNG draw-order contract (below). The old array-of-structs
// `Vec<Slice>` walked six heap objects per slice per step; the SoA form
// keeps the node and phase updates in straight-line array arithmetic
// the compiler can vectorize, and hoists every per-step-constant
// (RC decay factor, thermal σ, phase-noise σ, f0·(1+δ)) out of the loop.
//
// # RNG draw-order contract
//
// Bit-exactness across engine refactors hinges on consuming the
// `SimRng` stream in a fixed documented order. Per time step:
//
// 1. For each slice `i` ascending, when thermal noise is enabled:
//    one standard normal for node P, one for node N.
//    When phase noise is enabled: one standard normal for VCO P, one
//    for VCO N. (Interleaved per slice: `nodeP, nodeN, vcoP, vcoN`.)
// 2. On a rising clock edge: one Gaussian jitter draw when
//    `clock_jitter_rms_s > 0`, then for each slice `i` ascending, for
//    each tap: the P comparator's draws, then the N comparator's
//    (a comparator draws per its own noise/metastability rules).
//
// Build-time order (per slice `i` ascending): VCO P mismatch, VCO N
// mismatch, P comparator offsets (one per tap), N comparator offsets,
// P DAC resistor mismatches (one per tap), N DAC resistor mismatches.

const TWO_PI: f64 = 2.0 * PI;

/// The window every single-tone analysis of a capture uses.
pub const ANALYSIS_WINDOW: Window = Window::Hann;

/// Incremental tracker for the VCO tap-0 level predicate
/// `phase.rem_euclid(2π) < π` — bit-identical to calling `rem_euclid`,
/// but ~10× cheaper on the hot path.
///
/// `fmod` is exact, so the predicate depends only on where the exact
/// remainder falls relative to {0, π, 2π}. We track an approximate
/// remainder plus a conservative error bound: while the approximation
/// sits clear of every boundary by more than the bound, its comparison
/// result is provably the exact one; when it gets close (or the phase
/// jumps by ≥2π in one step), we fall back to the exact `rem_euclid`
/// and reset the bound. The fallback triggers only within ~1e-14 rad of
/// a boundary — measure-zero territory the sim hits essentially never,
/// but correctness never depends on that.
#[derive(Debug, Clone, Copy)]
struct PhaseWrap {
    rem: f64,
    err: f64,
}

impl PhaseWrap {
    fn new(phase: f64) -> Self {
        PhaseWrap {
            rem: phase.rem_euclid(TWO_PI),
            err: 0.0,
        }
    }

    /// Level of `phase`, where `inc` is the realized float increment
    /// from the previously passed phase (`ph_new - ph_old`).
    #[inline]
    fn level(&mut self, phase: f64, inc: f64) -> bool {
        // Per-step error growth: the realized-increment subtraction and
        // the remainder addition each round to ≤½ ulp of an O(2π)
        // quantity; 1e-15 over-covers both.
        let e = self.err + 1e-15;
        if inc.abs() < TWO_PI {
            let mut r = self.rem + inc;
            if r >= TWO_PI {
                r -= TWO_PI;
            } else if r < 0.0 {
                r += TWO_PI;
            }
            // Margin: doubled bound plus a flat guard so the threshold
            // arithmetic's own rounding can never un-conservative us.
            let m = 2e-14 + 2.0 * e;
            if r >= m && r < PI - m {
                self.rem = r;
                self.err = e;
                return true;
            }
            if r >= PI + m && r < TWO_PI - m {
                self.rem = r;
                self.err = e;
                return false;
            }
        }
        let r = phase.rem_euclid(TWO_PI);
        self.rem = r;
        self.err = 0.0;
        r < PI
    }
}

/// Switching-activity counters accumulated during a run (the inputs to the
/// power model).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Activity {
    /// Total VCO output transitions across all VCOs.
    pub vco_edges: u64,
    /// Clock cycles simulated.
    pub clk_cycles: u64,
    /// DAC inverter output toggles across all slices.
    pub dac_toggles: u64,
    /// Slice-bit (XOR output) toggles across all slices.
    pub d_toggles: u64,
    /// Comparator decisions across all slices.
    pub comparator_decisions: u64,
    /// Energy dissipated in the resistor network, joules.
    pub resistor_energy_j: f64,
    /// Simulated time, seconds.
    pub duration_s: f64,
}

/// The result of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCapture {
    /// Modulator output words `d[n] ∈ [0, slices·taps]`, one per clock.
    pub output: Vec<f64>,
    /// Per-slice codes, flattened with stride `n_slices`.
    pub slice_codes: Vec<u8>,
    /// Sampling clock, Hz.
    pub fs_hz: f64,
    /// Slice count.
    pub n_slices: usize,
    /// Quantizer taps per slice (= VCO stages).
    pub taps_per_slice: usize,
    /// Activity counters for the power model.
    pub activity: Activity,
}

impl SimCapture {
    /// The output spectrum, normalised so a full-scale input tone reads
    /// 0 dBFS.
    pub fn spectrum(&self, window: Window) -> Spectrum {
        self.spectrum_with(window, &mut SpectrumScratch::new())
    }

    /// [`Self::spectrum`] with caller-owned DSP scratch buffers — the
    /// window coefficients, windowed copy, and FFT twiddles are reused
    /// across captures instead of reallocated. Bit-identical to
    /// [`Self::spectrum`]; sweeps and optimizer loops that analyze many
    /// captures of the same length should hold one scratch.
    pub fn spectrum_with(&self, window: Window, scratch: &mut SpectrumScratch) -> Spectrum {
        let _span = obs::span("flow.spectrum").attr("samples", self.output.len());
        Spectrum::from_samples_scratch(
            &self.output,
            self.fs_hz,
            window,
            (self.n_slices * self.taps_per_slice) as f64 / 2.0,
            scratch,
        )
    }

    /// The code of `slice` at clock `sample`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn slice_code(&self, sample: usize, slice: usize) -> u8 {
        assert!(slice < self.n_slices, "slice index out of range");
        self.slice_codes[sample * self.n_slices + slice]
    }

    /// Single-tone analysis limited to `bw_hz`.
    pub fn analyze(&self, bw_hz: f64) -> ToneAnalysis {
        self.analyze_with(bw_hz, &mut SpectrumScratch::new())
    }

    /// [`Self::analyze`] with caller-owned DSP scratch buffers (see
    /// [`Self::spectrum_with`]). Bit-identical to [`Self::analyze`].
    pub fn analyze_with(&self, bw_hz: f64, scratch: &mut SpectrumScratch) -> ToneAnalysis {
        let spectrum = self.spectrum_with(ANALYSIS_WINDOW, scratch);
        let _span = obs::span("flow.tone_metrics");
        ToneAnalysis::of(&spectrum, Some(bw_hz))
    }

    /// Mean output code.
    pub fn mean_code(&self) -> f64 {
        self.output.iter().sum::<f64>() / self.output.len().max(1) as f64
    }
}

impl fmt::Display for SimCapture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "capture of {} samples @ {:.1} MHz ({} slices)",
            self.output.len(),
            self.fs_hz / 1e6,
            self.n_slices
        )
    }
}

/// The behavioral ADC simulator.
///
/// ```no_run
/// use tdsigma_core::{sim::AdcSimulator, spec::AdcSpec};
///
/// # fn main() -> Result<(), tdsigma_core::CoreError> {
/// let spec = AdcSpec::paper_40nm()?;
/// let mut sim = AdcSimulator::new(spec.clone())?;
/// let capture = sim.run_tone(1e6, 0.1, 16_384);
/// println!("{}", capture.analyze(spec.bw_hz)); // SNDR, ENOB, ...
/// # Ok(())
/// # }
/// ```
pub struct AdcSimulator {
    spec: AdcSpec,
    flavor: ComparatorFlavor,
    clock: Clock,
    rng: SimRng,
    time_s: f64,
    buf_swing_v: f64,
    buf_cm_v: f64,
    /// Node thermal draws happen (spec flag and C > 0).
    thermal: bool,
    /// VCO phase-noise draws happen (σ_f > 0).
    phase_noise: bool,
    /// White-FM frequency σ per step, `pn·f0/√dt` — one scalar, the
    /// phase-noise spec is uniform across VCOs.
    sigma_f: f64,
    // --- SoA state over the 2N "sides", interleaved [p0, n0, p1, n1, …].
    /// Summing-node voltages.
    node_v: Vec<f64>,
    /// Per-step RC decay factor `exp(−dt/τ)` (constants of the grid).
    node_decay: Vec<f64>,
    /// Per-step thermal σ, `√(kT/C·(1−a²))`.
    node_sigma: Vec<f64>,
    /// Total node conductance `Σ 1/R`.
    node_gsum: Vec<f64>,
    /// Thevenin resistance of the slice DAC bank.
    dac_r: Vec<f64>,
    /// Current DAC Thevenin drive voltage.
    dac_drive: Vec<f64>,
    /// Cached `dac_drive/dac_r` current term (refreshed only when the
    /// retimed code changes on a falling edge).
    dac_term: Vec<f64>,
    /// Code→drive tables, stride `stages+1`, side-major.
    dac_table: Vec<f64>,
    /// Unwrapped VCO phases, radians.
    phase: Vec<f64>,
    /// Mismatch-shifted centre frequencies `f0·(1+δ)`.
    fbase: Vec<f64>,
    /// Tap-0 logic level (edge-count bookkeeping).
    vco_level: Vec<bool>,
    /// Incremental `rem_euclid(2π)` trackers for the level predicate.
    wrap: Vec<PhaseWrap>,
    // --- per-step scratch (allocated once, reused every step).
    z_node: Vec<f64>,
    z_vco: Vec<f64>,
    z_all: Vec<f64>,
    pow: Vec<f64>,
    // --- per-slice digital state (length N).
    code: Vec<u8>,
    dac_code: Vec<u8>,
    // --- activity counters (cumulative since construction).
    vco_edges: u64,
    dac_toggles: u64,
    d_toggles: u64,
    /// SAFFs, flattened `[slice·stages + tap]`, one bank per side.
    cmp_p: Vec<ClockedComparator>,
    cmp_n: Vec<ClockedComparator>,
}

impl AdcSimulator {
    /// Builds a schematic-level simulator (no layout parasitics).
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn new(spec: AdcSpec) -> Result<Self, CoreError> {
        Self::build(spec, ComparatorFlavor::Nor3, 0.0)
    }

    /// Builds a simulator with a specific comparator flavour (for the
    /// §2.2.1 ablation).
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn with_comparator(spec: AdcSpec, flavor: ComparatorFlavor) -> Result<Self, CoreError> {
        Self::build(spec, flavor, 0.0)
    }

    /// Builds a post-layout simulator: the extracted capacitance of the
    /// control-node nets is added to the summing nodes.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors.
    pub fn with_parasitics(spec: AdcSpec, parasitics: &Parasitics) -> Result<Self, CoreError> {
        let vctrl_cap = parasitics.total_capacitance_where(|n| n.contains("VCTRL"));
        // Split between the P and N nodes.
        Self::build(spec, ComparatorFlavor::Nor3, vctrl_cap / 2.0)
    }

    fn build(
        spec: AdcSpec,
        flavor: ComparatorFlavor,
        extra_node_cap_f: f64,
    ) -> Result<Self, CoreError> {
        let spec = spec.validated()?;
        let mut rng = SimRng::new(spec.seed);
        let vdd = spec.tech.vdd().value();
        // Extracted VCTRL wire capacitance is distributed over the slices'
        // 2·N control nodes.
        let node_cap = spec.node_cap_f + extra_node_cap_f / spec.n_slices as f64;
        let dt = 1.0 / spec.fs_hz / spec.steps_per_cycle as f64;

        let vco_params = VcoParams {
            f0_hz: spec.vco_f0_hz,
            kvco_hz_per_v: spec.kvco_hz_per_v,
            vcm_v: spec.vctrl_cm_v,
            n_stages: spec.vco_stages,
            phase_noise_per_sqrt_hz: spec.phase_noise_per_sqrt_hz,
        }
        .validated();
        let vco_mm = MismatchModel::new(spec.vco_mismatch_sigma);
        let cm_window = flavor.cm_window(vdd);

        let n = spec.n_slices;
        let stages = spec.vco_stages;
        let sides = 2 * n;
        let mut phase = Vec::with_capacity(sides);
        let mut fbase = Vec::with_capacity(sides);
        let mut dac_r = Vec::with_capacity(sides);
        let mut dac_table = Vec::with_capacity(sides * (stages + 1));
        let mut cmp_p = Vec::with_capacity(n * stages);
        let mut cmp_n = Vec::with_capacity(n * stages);
        for i in 0..n {
            // Staggered initial phases: the common phase spreads over 2π
            // and the per-slice phase difference spreads over the XOR
            // detection range (0, π), decorrelating the slices'
            // quantisation errors so the summed output averages them.
            let common = 2.0 * PI * i as f64 / n as f64;
            let ladder = PI * (i as f64 + 0.5) / n as f64;
            phase.push(common + ladder);
            phase.push(common);
            // Build-time RNG order (see the draw-order contract above):
            // VCO P, VCO N, comparator offsets P then N, DAC mismatch
            // P then N.
            let delta_p = vco_mm.draw(&mut rng);
            let delta_n = vco_mm.draw(&mut rng);
            fbase.push(vco_params.f0_hz * (1.0 + delta_p));
            fbase.push(vco_params.f0_hz * (1.0 + delta_n));
            let mk_cmp = |rng: &mut SimRng| {
                ClockedComparator::new(ComparatorParams {
                    offset_v: rng.gaussian(spec.comparator_offset_sigma_v),
                    noise_rms_v: spec.comparator_noise_v,
                    metastability_window_v: 20e-6,
                    cm_window,
                })
            };
            for _ in 0..stages {
                cmp_p.push(mk_cmp(&mut rng));
            }
            for _ in 0..stages {
                cmp_n.push(mk_cmp(&mut rng));
            }
            // Thermometer DAC: `stages` parallel inverter+resistor branches
            // per side — Thevenin equivalent driven at the conductance-
            // weighted mix of VREFP/ground. Each branch resistance carries
            // a mismatch draw; the code→drive tables bake that in.
            let dac_mm = MismatchModel::new(spec.dac_mismatch_sigma);
            let mk_dac = |rng: &mut SimRng, pull_up_when_low: bool| -> (f64, Vec<f64>) {
                let g: Vec<f64> = dac_mm
                    .draw_many(rng, spec.vco_stages)
                    .into_iter()
                    .map(|d| 1.0 / (spec.rdac_ohm * (1.0 + d)))
                    .collect();
                let g_total: f64 = g.iter().sum();
                let r_thev = 1.0 / g_total;
                // P-side: code-high branches pull LOW (inverter), so the
                // drive is the conductance share of the still-high ones.
                // N-side is the complement.
                let drives = (0..=spec.vco_stages)
                    .map(|code| {
                        let hi: f64 = if pull_up_when_low {
                            g.iter().skip(code).sum()
                        } else {
                            g.iter().take(code).sum()
                        };
                        spec.vrefp_v * hi / g_total
                    })
                    .collect();
                (r_thev, drives)
            };
            let (r_thev_p, drives_p) = mk_dac(&mut rng, true);
            let (r_thev_n, drives_n) = mk_dac(&mut rng, false);
            dac_r.push(r_thev_p);
            dac_r.push(r_thev_n);
            dac_table.extend_from_slice(&drives_p);
            dac_table.extend_from_slice(&drives_n);
        }

        // Hoisted per-step constants. The expression shapes mirror
        // `SummingNode::advance` term by term (sum order, division vs
        // reciprocal) so the SoA engine is bit-identical to stepping the
        // node objects: `gsum = 0 + g_in + g_dac`, `τ = (1/gsum)·C`,
        // `a = exp(−dt/τ)`, `σ² = kT/C·(1−a²)`.
        let thermal = spec.thermal_noise && node_cap > 0.0;
        let g_in = 1.0 / spec.rin_ohm;
        let mid = stages / 2;
        let stride = stages + 1;
        let mut node_gsum = Vec::with_capacity(sides);
        let mut node_decay = Vec::with_capacity(sides);
        let mut node_sigma = Vec::with_capacity(sides);
        let mut dac_drive = Vec::with_capacity(sides);
        let mut dac_term = Vec::with_capacity(sides);
        for j in 0..sides {
            let gsum = 0.0 + g_in + 1.0 / dac_r[j];
            let tau = if node_cap == 0.0 {
                0.0
            } else {
                1.0 / gsum * node_cap
            };
            // τ = 0 (capacitance-free node) settles instantly: decay 0
            // reproduces `v = target` exactly, and no thermal draw.
            let a = if tau == 0.0 { 0.0 } else { (-dt / tau).exp() };
            let sigma = if thermal {
                let kt_over_c = tdsigma_tech::units::BOLTZMANN
                    * tdsigma_tech::units::NOMINAL_TEMPERATURE_K
                    / node_cap;
                (kt_over_c * (1.0 - a * a)).sqrt()
            } else {
                0.0
            };
            node_gsum.push(gsum);
            node_decay.push(a);
            node_sigma.push(sigma);
            let drive = dac_table[j * stride + mid];
            dac_drive.push(drive);
            dac_term.push(drive / dac_r[j]);
        }
        let sigma_f = if spec.phase_noise_per_sqrt_hz > 0.0 {
            spec.phase_noise_per_sqrt_hz * spec.vco_f0_hz / dt.sqrt()
        } else {
            0.0
        };
        let wrap: Vec<PhaseWrap> = phase.iter().map(|&ph| PhaseWrap::new(ph)).collect();
        let vco_level = wrap.iter().map(|w| w.rem < PI).collect();

        // Fixed step grid: `steps_per_cycle` equal steps per clock
        // period, so edges are derived from the integer step index and
        // can neither skip nor double-fire from FP drift (ISSUE 8).
        let clock = Clock::new(spec.fs_hz).with_steps_per_period(spec.steps_per_cycle as u64);
        Ok(AdcSimulator {
            buf_swing_v: 0.5 * vdd,
            buf_cm_v: 0.23 * vdd,
            thermal,
            phase_noise: sigma_f > 0.0,
            sigma_f,
            node_v: vec![spec.vctrl_cm_v; sides],
            node_decay,
            node_sigma,
            node_gsum,
            dac_r,
            dac_drive,
            dac_term,
            dac_table,
            phase,
            fbase,
            vco_level,
            wrap,
            z_node: vec![0.0; sides],
            z_vco: vec![0.0; sides],
            z_all: vec![0.0; 2 * sides],
            pow: vec![0.0; sides],
            code: vec![0; n],
            dac_code: vec![0; n],
            vco_edges: 0,
            dac_toggles: 0,
            d_toggles: 0,
            cmp_p,
            cmp_n,
            spec,
            flavor,
            clock,
            rng,
            time_s: 0.0,
        })
    }

    /// The spec this simulator was built from.
    pub fn spec(&self) -> &AdcSpec {
        &self.spec
    }

    /// The comparator flavour in use.
    pub fn flavor(&self) -> ComparatorFlavor {
        self.flavor
    }

    /// Fixed-grid steps taken since construction (drift diagnostics).
    pub fn clock_steps(&self) -> u64 {
        self.clock.step_count()
    }

    /// Rising clock edges seen since construction.
    pub fn clock_rising_edges(&self) -> u64 {
        self.clock.rising_edge_count()
    }

    /// Runs the modulator for `n_samples` clock cycles with the given
    /// differential input voltage as a function of time (seconds).
    ///
    /// The first ~64 cycles are a settling prefix and are still recorded;
    /// analyses should use power-of-two captures where the prefix is a
    /// negligible fraction.
    pub fn run<F: Fn(f64) -> f64>(&mut self, input: F, n_samples: usize) -> SimCapture {
        let _span = obs::span("flow.transient").attr("samples", n_samples);
        // Borrow-split the SoA state into locals once, so the hot loops
        // below index plain slices.
        let Self {
            spec,
            clock,
            rng,
            time_s,
            buf_swing_v,
            buf_cm_v,
            thermal,
            phase_noise,
            sigma_f,
            node_v,
            node_decay,
            node_sigma,
            node_gsum,
            dac_r,
            dac_drive,
            dac_term,
            dac_table,
            phase,
            fbase,
            vco_level,
            wrap,
            z_node,
            z_vco,
            z_all,
            pow,
            code,
            dac_code,
            vco_edges,
            dac_toggles,
            d_toggles,
            cmp_p,
            cmp_n,
            ..
        } = self;
        let (thermal, phase_noise, sigma_f) = (*thermal, *phase_noise, *sigma_f);
        let n = spec.n_slices;
        let stages = spec.vco_stages;
        let sides = 2 * n;
        let stride = stages + 1;
        let dt = 1.0 / spec.fs_hz / spec.steps_per_cycle as f64;
        let r_in = spec.rin_ohm;
        let kvco = spec.kvco_hz_per_v;
        let vcm = spec.vctrl_cm_v;
        let half = *buf_swing_v / 2.0;
        let buf_cm = *buf_cm_v;
        let mut output = Vec::with_capacity(n_samples);
        let mut slice_codes = Vec::with_capacity(n_samples * n);
        let mut resistor_energy = 0.0f64;
        let start_time = *time_s;
        // Time is derived from the integer step index (`start + k·dt`),
        // never accumulated `time += dt` — repeated FP addition drifts
        // by an ulp every few steps, which over a 10⁷-step run is
        // enough to move a clock edge by a whole step (ISSUE 8).
        let mut step: u64 = 0;

        while output.len() < n_samples {
            step += 1;
            *time_s = start_time + step as f64 * dt;
            let vin = input(*time_s);
            let drives = [spec.input_cm_v + vin / 2.0, spec.input_cm_v - vin / 2.0];
            let in_term = [drives[0] / r_in, drives[1] / r_in];

            // Batched noise draws, honouring the per-slice draw order
            // of the RNG contract: node P, node N, VCO P, VCO N.
            if thermal && phase_noise {
                rng.fill_standard_normals(z_all);
                for i in 0..n {
                    z_node[2 * i] = z_all[4 * i];
                    z_node[2 * i + 1] = z_all[4 * i + 1];
                    z_vco[2 * i] = z_all[4 * i + 2];
                    z_vco[2 * i + 1] = z_all[4 * i + 3];
                }
            } else if thermal {
                rng.fill_standard_normals(z_node);
            } else if phase_noise {
                rng.fill_standard_normals(z_vco);
            }

            // Node pass: exact exponential RC update toward the
            // conductance-weighted target, discretised OU thermal noise.
            for j in 0..sides {
                let isum = in_term[j & 1] + dac_term[j];
                let target = isum / node_gsum[j];
                let mut v = target + (node_v[j] - target) * node_decay[j];
                if thermal {
                    v += z_node[j] * node_sigma[j];
                }
                node_v[j] = v;
                let dv_in = drives[j & 1] - v;
                let dv_dac = dac_drive[j] - v;
                pow[j] = dv_in * dv_in / r_in + dv_dac * dv_dac / dac_r[j];
            }
            // Energy accumulates in slice order (P+N per slice, then ·dt)
            // to keep the rounding sequence of the scalar engine.
            for i in 0..n {
                resistor_energy += (pow[2 * i] + pow[2 * i + 1]) * dt;
            }

            // VCO pass: dφ = 2π·f·dt with white-FM noise on f.
            for j in 0..sides {
                let mut f = (fbase[j] + kvco * (node_v[j] - vcm)).max(0.0);
                if phase_noise {
                    f += z_vco[j] * sigma_f;
                }
                let ph_old = phase[j];
                let ph = ph_old + 2.0 * PI * f * dt;
                phase[j] = ph;
                let level = wrap[j].level(ph, ph - ph_old);
                if level != vco_level[j] {
                    *vco_edges += 1;
                    vco_level[j] = level;
                }
            }

            match clock.advance(dt) {
                EdgeKind::Rising => {
                    let mut sum = 0.0;
                    // Clock jitter is common to every SAFF (one clock
                    // tree); each VCO's sampled phase shifts by 2π·f·δt,
                    // so the XOR sees only the *difference* frequency
                    // times δt — the TD architecture's jitter tolerance.
                    let jitter_s = if spec.clock_jitter_rms_s > 0.0 {
                        rng.gaussian(spec.clock_jitter_rms_s)
                    } else {
                        0.0
                    };
                    for i in 0..n {
                        // Multi-phase quantizer: every differential tap
                        // pair of both rings is buffered and sampled, and
                        // the per-tap XORs are summed — the slice code
                        // resolves the phase difference to π/stages.
                        let mut c = 0u8;
                        let fp = (fbase[2 * i] + kvco * (node_v[2 * i] - vcm)).max(0.0);
                        let fnn = (fbase[2 * i + 1] + kvco * (node_v[2 * i + 1] - vcm)).max(0.0);
                        let jp = 2.0 * PI * fp * jitter_s;
                        let jn = 2.0 * PI * fnn * jitter_s;
                        for tap in 0..stages {
                            let offset = PI * tap as f64 / stages as f64;
                            // Buffer output: soft-clipped sine around the
                            // low common mode (the VCO slews through its
                            // transitions, where offset and noise act).
                            let sp = ((phase[2 * i] + jp + offset).sin() * 3.0).clamp(-1.0, 1.0);
                            let sn =
                                ((phase[2 * i + 1] + jn + offset).sin() * 3.0).clamp(-1.0, 1.0);
                            let q1 = cmp_p[i * stages + tap].sample(
                                buf_cm + half * sp,
                                buf_cm - half * sp,
                                rng,
                            );
                            let q2 = cmp_n[i * stages + tap].sample(
                                buf_cm + half * sn,
                                buf_cm - half * sn,
                                rng,
                            );
                            if q1 ^ q2 {
                                c += 1;
                            }
                        }
                        if c != code[i] {
                            *d_toggles += 1;
                        }
                        code[i] = c;
                        sum += c as f64;
                    }
                    output.push(sum);
                    slice_codes.extend_from_slice(code);
                }
                EdgeKind::Falling => {
                    // The retiming latches are transparent in the low
                    // phase: the thermometer code reaches the DAC half a
                    // cycle after the decision (excess loop delay).
                    for i in 0..n {
                        if code[i] != dac_code[i] {
                            *dac_toggles += code[i].abs_diff(dac_code[i]) as u64;
                            dac_code[i] = code[i];
                            // code high → pull VCTRLP down, VCTRLN up
                            // (negative feedback through the inverters);
                            // drive tables include the resistor mismatch.
                            let c = dac_code[i] as usize;
                            for j in [2 * i, 2 * i + 1] {
                                dac_drive[j] = dac_table[j * stride + c];
                                dac_term[j] = dac_drive[j] / dac_r[j];
                            }
                        }
                    }
                }
                EdgeKind::None => {}
            }
        }

        let activity = Activity {
            vco_edges: *vco_edges,
            clk_cycles: n_samples as u64,
            dac_toggles: *dac_toggles,
            d_toggles: *d_toggles,
            comparator_decisions: cmp_p
                .iter()
                .chain(cmp_n.iter())
                .map(|c| c.decision_count())
                .sum(),
            resistor_energy_j: resistor_energy,
            duration_s: *time_s - start_time,
        };

        SimCapture {
            output,
            slice_codes,
            fs_hz: self.spec.fs_hz,
            n_slices: self.spec.n_slices,
            taps_per_slice: self.spec.vco_stages,
            activity,
        }
    }

    /// Convenience: runs a single-tone test at `fin_hz` with differential
    /// amplitude `amplitude_v` for `n_samples` cycles.
    pub fn run_tone(&mut self, fin_hz: f64, amplitude_v: f64, n_samples: usize) -> SimCapture {
        let w = 2.0 * PI * fin_hz;
        self.run(|t| amplitude_v * (w * t).sin(), n_samples)
    }
}

impl fmt::Debug for AdcSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdcSimulator")
            .field("slices", &self.spec.n_slices)
            .field("fs_hz", &self.spec.fs_hz)
            .field("flavor", &self.flavor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> AdcSpec {
        let mut s = AdcSpec::paper_40nm().unwrap();
        s.steps_per_cycle = 8; // keep debug-mode tests fast
        s
    }

    #[test]
    fn zero_input_sits_at_midcode() {
        let mut sim = AdcSimulator::new(quick_spec()).unwrap();
        let cap = sim.run(|_| 0.0, 2048);
        let mean = cap.mean_code();
        assert!(
            (mean - 16.0).abs() < 1.0,
            "midcode should be slices·stages/2 = 16, got {mean}"
        );
    }

    #[test]
    fn dc_transfer_is_monotonic_and_centred() {
        let spec = quick_spec();
        let fsv = spec.full_scale_v();
        let mut means = Vec::new();
        for frac in [-0.6, -0.3, 0.0, 0.3, 0.6] {
            let mut sim = AdcSimulator::new(spec.clone()).unwrap();
            let cap = sim.run(|_| frac * fsv, 2048);
            means.push(cap.mean_code());
        }
        for pair in means.windows(2) {
            assert!(pair[1] > pair[0] + 1.0, "transfer must increase: {means:?}");
        }
        // Symmetric around midcode (N·stages/2 = 16).
        assert!((means[0] + means[4] - 32.0).abs() < 2.0, "{means:?}");
        // Slope: mean = 16·(1 + v/FS) → at 0.6·FS expect 25.6.
        assert!((means[4] - 25.6).abs() < 1.6, "{means:?}");
    }

    #[test]
    fn tone_appears_at_input_frequency() {
        let mut spec = quick_spec();
        spec.thermal_noise = false;
        spec.phase_noise_per_sqrt_hz = 0.0;
        let fsv = spec.full_scale_v();
        let n = 4096;
        // Coherent bin: fin = bin · fs / n.
        let bin = 11;
        let fin = bin as f64 * spec.fs_hz / n as f64;
        let mut sim = AdcSimulator::new(spec).unwrap();
        let cap = sim.run_tone(fin, 0.5 * fsv, n);
        let spectrum = cap.spectrum(Window::Hann);
        assert_eq!(spectrum.peak_bin(), bin);
        // Amplitude: 0.5 FS → about −6 dBFS (the CT loop's signal
        // transfer function adds a little gain in band).
        let level = spectrum.dbfs(bin);
        assert!((level + 6.0).abs() < 3.0, "tone level {level} dBFS");
    }

    #[test]
    fn noise_is_shaped_sndr_improves_with_osr() {
        let spec = quick_spec();
        let fsv = spec.full_scale_v();
        let n = 8192;
        let fin = 7.0 * spec.fs_hz / n as f64;
        let mut sim = AdcSimulator::new(spec.clone()).unwrap();
        let cap = sim.run_tone(fin, 0.7 * fsv, n);
        let wide = cap.analyze(spec.fs_hz / 4.0);
        let narrow = cap.analyze(spec.bw_hz);
        assert!(
            narrow.sndr_db > wide.sndr_db + 10.0,
            "shaping must reward oversampling: narrow {} vs wide {}",
            narrow.sndr_db,
            wide.sndr_db
        );
        assert!(
            narrow.sndr_db > 45.0,
            "in-band SNDR too low: {}",
            narrow.sndr_db
        );
    }

    #[test]
    fn nand3_comparator_fails_at_low_cm() {
        let spec = quick_spec();
        let fsv = spec.full_scale_v();
        let n = 2048;
        let fin = 5.0 * spec.fs_hz / n as f64;
        let mut good = AdcSimulator::with_comparator(spec.clone(), ComparatorFlavor::Nor3).unwrap();
        let mut bad = AdcSimulator::with_comparator(spec, ComparatorFlavor::Nand3).unwrap();
        let cap_good = good.run_tone(fin, 0.5 * fsv, n);
        let cap_bad = bad.run_tone(fin, 0.5 * fsv, n);
        let sndr_good = cap_good.analyze(5e6).sndr_db;
        let sndr_bad = cap_bad.analyze(5e6).sndr_db;
        assert!(
            sndr_good > sndr_bad + 20.0,
            "NAND3 at 0.25 V CM must collapse: good {sndr_good}, bad {sndr_bad}"
        );
    }

    #[test]
    fn strongarm_and_nor3_are_equivalent_here() {
        // §2.2.1: "the proposed comparator is functionally identical to the
        // strongARM comparator" at the low buffer CM.
        let spec = quick_spec();
        let fsv = spec.full_scale_v();
        let n = 2048;
        let fin = 5.0 * spec.fs_hz / n as f64;
        let mut a = AdcSimulator::with_comparator(spec.clone(), ComparatorFlavor::Nor3).unwrap();
        let mut b = AdcSimulator::with_comparator(spec, ComparatorFlavor::StrongArm).unwrap();
        let sndr_a = a.run_tone(fin, 0.5 * fsv, n).analyze(5e6).sndr_db;
        let sndr_b = b.run_tone(fin, 0.5 * fsv, n).analyze(5e6).sndr_db;
        assert!(
            (sndr_a - sndr_b).abs() < 3.0,
            "NOR3 {sndr_a} vs strongARM {sndr_b}"
        );
    }

    #[test]
    fn activity_counters_are_plausible() {
        let spec = quick_spec();
        let mut sim = AdcSimulator::new(spec.clone()).unwrap();
        let n = 1024;
        let cap = sim.run(|_| 0.0, n);
        let a = &cap.activity;
        assert_eq!(a.clk_cycles, n as u64);
        // 16 VCOs at f0 = fs/5 → edges ≈ 16 · 2 · (n/5).
        let expected_edges = 16.0 * 2.0 * n as f64 / 5.0;
        assert!(
            (a.vco_edges as f64 / expected_edges - 1.0).abs() < 0.25,
            "vco edges {} vs expected {expected_edges}",
            a.vco_edges
        );
        // 2 · stages comparator decisions per slice per cycle.
        assert_eq!(a.comparator_decisions, 64 * n as u64);
        assert!(a.resistor_energy_j > 0.0);
        assert!(a.duration_s > 0.0);
        assert!(a.dac_toggles > 0);
    }

    #[test]
    fn capture_bookkeeping() {
        let mut sim = AdcSimulator::new(quick_spec()).unwrap();
        let cap = sim.run(|_| 0.0, 256);
        assert_eq!(cap.output.len(), 256);
        assert_eq!(cap.slice_codes.len(), 256 * 8);
        for (n, &sum) in cap.output.iter().enumerate() {
            let codes: f64 = (0..8).map(|i| cap.slice_code(n, i) as f64).sum();
            assert_eq!(codes, sum, "codes must match the summed word");
            for i in 0..8 {
                assert!(cap.slice_code(n, i) <= 4, "code within 0..=stages");
            }
        }
        assert!(cap.to_string().contains("256 samples"));
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = quick_spec();
        let mut a = AdcSimulator::new(spec.clone()).unwrap();
        let mut b = AdcSimulator::new(spec).unwrap();
        let ca = a.run(|t| 0.1 * (1e7 * t).sin(), 512);
        let cb = b.run(|t| 0.1 * (1e7 * t).sin(), 512);
        assert_eq!(ca.output, cb.output);
    }

    #[test]
    fn phase_wrap_filter_matches_rem_euclid_exactly() {
        use tdsigma_circuit::noise::SimRng;
        // The incremental level tracker must agree with the direct
        // predicate on every step of phase-like random walks: typical
        // sim increments, near-boundary grazing, negative excursions,
        // and ≥2π jumps (the exact-resync path).
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut phase = rng.uniform() * 10.0;
            let mut w = PhaseWrap::new(phase);
            for step in 0..200_000 {
                let inc = match step % 7 {
                    // Typical: ~2π·f·dt ≈ 0.08 rad, noise-modulated.
                    0..=3 => 0.078 + 0.02 * rng.standard_normal(),
                    // Grazing: tiny increments that creep across π.
                    4 => 1e-9 * rng.uniform(),
                    // Backwards (phase noise can make f negative).
                    5 => -0.05 * rng.uniform(),
                    // Jump: exercises the |inc| ≥ 2π fallback.
                    _ => TWO_PI * (1.0 + rng.uniform()),
                };
                let old = phase;
                phase += inc;
                let got = w.level(phase, phase - old);
                let expect = phase.rem_euclid(TWO_PI) < PI;
                assert_eq!(got, expect, "seed {seed} step {step} phase {phase}");
            }
        }
    }

    #[test]
    fn clock_edges_are_exact_over_ten_million_steps() {
        // ISSUE 8 regression: with accumulated `time += dt` the clock
        // phase drifted by an ulp every few steps, enough to skip or
        // double-fire an edge over a long run. Edges now derive from the
        // integer step index, so the counts must be *exact*. Noise is
        // disabled to keep the debug-mode runtime sane; the clock path
        // is identical either way.
        let mut spec = AdcSpec::paper_40nm().unwrap();
        spec.steps_per_cycle = 4;
        spec.thermal_noise = false;
        spec.phase_noise_per_sqrt_hz = 0.0;
        spec.clock_jitter_rms_s = 0.0;
        spec.comparator_noise_v = 0.0;
        let spc = spec.steps_per_cycle as u64;
        let n_samples = 2_500_000usize; // 10^7 steps at 4 steps/cycle
        let mut sim = AdcSimulator::new(spec).unwrap();
        let cap = sim.run(|_| 0.0, n_samples);
        assert_eq!(cap.output.len(), n_samples);
        assert_eq!(sim.clock_rising_edges(), n_samples as u64);
        assert_eq!(sim.clock_steps(), n_samples as u64 * spc);
        assert_eq!(cap.activity.clk_cycles, n_samples as u64);
    }

    #[test]
    fn flavor_properties() {
        assert!(ComparatorFlavor::Nor3.is_synthesis_friendly());
        assert!(ComparatorFlavor::Nand3.is_synthesis_friendly());
        assert!(!ComparatorFlavor::StrongArm.is_synthesis_friendly());
        assert!(ComparatorFlavor::Nor3.cm_window(1.1).contains(0.25));
        assert!(!ComparatorFlavor::Nand3.cm_window(1.1).contains(0.25));
        assert!(ComparatorFlavor::Nor3.to_string().contains("proposed"));
    }
}
