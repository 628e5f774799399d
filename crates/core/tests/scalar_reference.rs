//! Scalar-reference equivalence: the SoA hot loop vs the original
//! array-of-structs engine, bit for bit.
//!
//! `RefSim` below is a frozen copy of the pre-SoA engine (pointer-chasing
//! `Slice` structs, one `advance` call per component per step) with only
//! the integer-step clock fix applied. It exercises the *component*
//! implementations (`SummingNode`, `RingVco`, `ClockedComparator`)
//! exactly the way `AdcSimulator::run` did before the restructure, and
//! consumes the RNG stream through the same documented draw order. If
//! the SoA engine ever reorders an operation, hoists a computation past
//! a rounding step, or drops/duplicates a draw, these comparisons fail
//! on the first divergent output word.
//!
//! Unlike the checksum fixtures in `golden.rs` (which freeze specific
//! values), this suite proves the equivalence *construction* — including
//! the post-layout path, where extracted parasitics land as extra node
//! capacitance. Besides the output words and slice codes it compares the
//! activity counters the power model reads (VCO edges, comparator
//! decisions, DAC and slice-bit toggles), at the paper points and at
//! corners off them: 1, 3 and 16 slices, 3 and 5 stages, loop gain 2.0,
//! 16 steps per cycle, and thermal and phase noise off. Every case runs
//! the engine twice, metered (`run_tone_metered`) and codes-only
//! (`run_tone`), and holds both to the reference.

use std::f64::consts::PI;
use tdsigma_circuit::comparator::ComparatorParams;
use tdsigma_circuit::mismatch::MismatchModel;
use tdsigma_circuit::network::{BranchId, SummingNode};
use tdsigma_circuit::noise::SimRng;
use tdsigma_circuit::transient::{Clock, EdgeKind};
use tdsigma_circuit::vco::{RingVco, VcoParams};
use tdsigma_circuit::ClockedComparator;
use tdsigma_core::netgen;
use tdsigma_core::sim::{AdcSimulator, ComparatorFlavor};
use tdsigma_core::spec::AdcSpec;
use tdsigma_layout::{synthesize, AprOptions};
use tdsigma_netlist::PowerPlan;

struct RefSlice {
    node_p: SummingNode,
    node_n: SummingNode,
    in_p: BranchId,
    in_n: BranchId,
    dac_p: BranchId,
    dac_n: BranchId,
    dac_drive_p: Vec<f64>,
    dac_drive_n: Vec<f64>,
    vco_p: RingVco,
    vco_n: RingVco,
    cmp_p: Vec<ClockedComparator>,
    cmp_n: Vec<ClockedComparator>,
    code: u8,
    retimed_code: u8,
    dac_code: u8,
}

/// The activity counters `RefSim` keeps beside its components' own:
/// `[VCO edges, comparator decisions, DAC toggles, slice-bit toggles]`.
type RefActivity = [u64; 4];

struct RefSim {
    spec: AdcSpec,
    slices: Vec<RefSlice>,
    clock: Clock,
    rng: SimRng,
    time_s: f64,
    buf_swing_v: f64,
    buf_cm_v: f64,
    dac_toggles: u64,
    d_toggles: u64,
    /// The largest phase advance of any VCO from one rising clock edge to
    /// the next, as the float difference a codes-only run hands its level
    /// tracker.
    max_cycle_advance: f64,
}

impl RefSim {
    fn build(spec: AdcSpec, extra_node_cap_f: f64) -> RefSim {
        let spec = spec.validated().unwrap();
        let mut rng = SimRng::new(spec.seed);
        let vdd = spec.tech.vdd().value();
        let node_cap = spec.node_cap_f + extra_node_cap_f / spec.n_slices as f64;
        let vco_params = VcoParams {
            f0_hz: spec.vco_f0_hz,
            kvco_hz_per_v: spec.kvco_hz_per_v,
            vcm_v: spec.vctrl_cm_v,
            n_stages: spec.vco_stages,
            phase_noise_per_sqrt_hz: spec.phase_noise_per_sqrt_hz,
        };
        let vco_mm = MismatchModel::new(spec.vco_mismatch_sigma);
        let cm_window = ComparatorFlavor::Nor3.cm_window(vdd);
        let n = spec.n_slices;
        let mut slices = Vec::with_capacity(n);
        for i in 0..n {
            let common = 2.0 * PI * i as f64 / n as f64;
            let ladder = PI * (i as f64 + 0.5) / n as f64;
            let mut node_p = SummingNode::new(node_cap, spec.vctrl_cm_v);
            let mut node_n = SummingNode::new(node_cap, spec.vctrl_cm_v);
            if spec.thermal_noise && node_cap > 0.0 {
                node_p = node_p.with_thermal_noise();
                node_n = node_n.with_thermal_noise();
            }
            let in_p = node_p.add_branch(spec.rin_ohm, spec.input_cm_v);
            let in_n = node_n.add_branch(spec.rin_ohm, spec.input_cm_v);
            let vco_p = RingVco::with_mismatch(vco_params, &vco_mm, &mut rng, common + ladder);
            let vco_n = RingVco::with_mismatch(vco_params, &vco_mm, &mut rng, common);
            let mk_cmp = |rng: &mut SimRng| {
                ClockedComparator::new(ComparatorParams {
                    offset_v: rng.gaussian(spec.comparator_offset_sigma_v),
                    noise_rms_v: spec.comparator_noise_v,
                    metastability_window_v: 20e-6,
                    cm_window,
                })
            };
            let cmp_p: Vec<ClockedComparator> =
                (0..spec.vco_stages).map(|_| mk_cmp(&mut rng)).collect();
            let cmp_n: Vec<ClockedComparator> =
                (0..spec.vco_stages).map(|_| mk_cmp(&mut rng)).collect();
            let dac_mm = MismatchModel::new(spec.dac_mismatch_sigma);
            let mk_dac = |rng: &mut SimRng, pull_up_when_low: bool| -> (f64, Vec<f64>) {
                let g: Vec<f64> = dac_mm
                    .draw_many(rng, spec.vco_stages)
                    .into_iter()
                    .map(|d| 1.0 / (spec.rdac_ohm * (1.0 + d)))
                    .collect();
                let g_total: f64 = g.iter().sum();
                let r_thev = 1.0 / g_total;
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
            let (r_thev_p, dac_drive_p) = mk_dac(&mut rng, true);
            let (r_thev_n, dac_drive_n) = mk_dac(&mut rng, false);
            let mid = spec.vco_stages / 2;
            let dac_p = node_p.add_branch(r_thev_p, dac_drive_p[mid]);
            let dac_n = node_n.add_branch(r_thev_n, dac_drive_n[mid]);
            slices.push(RefSlice {
                node_p,
                node_n,
                in_p,
                in_n,
                dac_p,
                dac_n,
                dac_drive_p,
                dac_drive_n,
                vco_p,
                vco_n,
                cmp_p,
                cmp_n,
                code: 0,
                retimed_code: 0,
                dac_code: 0,
            });
        }
        let clock = Clock::new(spec.fs_hz).with_steps_per_period(spec.steps_per_cycle as u64);
        RefSim {
            buf_swing_v: 0.5 * vdd,
            buf_cm_v: 0.23 * vdd,
            spec,
            slices,
            clock,
            rng,
            time_s: 0.0,
            dac_toggles: 0,
            d_toggles: 0,
            max_cycle_advance: 0.0,
        }
    }

    /// Counters since construction, summed over the components.
    fn activity(&self) -> RefActivity {
        let vco_edges = self
            .slices
            .iter()
            .map(|s| s.vco_p.edge_count() + s.vco_n.edge_count())
            .sum();
        let decisions = self
            .slices
            .iter()
            .flat_map(|s| s.cmp_p.iter().chain(&s.cmp_n))
            .map(ClockedComparator::decision_count)
            .sum();
        [vco_edges, decisions, self.dac_toggles, self.d_toggles]
    }

    /// The output words and the slice codes (stride `n_slices`).
    fn run<F: Fn(f64) -> f64>(&mut self, input: F, n_samples: usize) -> (Vec<f64>, Vec<u8>) {
        let dt = 1.0 / self.spec.fs_hz / self.spec.steps_per_cycle as f64;
        let mut output = Vec::with_capacity(n_samples);
        let mut slice_codes = Vec::with_capacity(n_samples * self.slices.len());
        let mut last_edge: Vec<[f64; 2]> = self
            .slices
            .iter()
            .map(|s| [s.vco_p.phase(), s.vco_n.phase()])
            .collect();
        let start_time = self.time_s;
        let mut step: u64 = 0;
        while output.len() < n_samples {
            step += 1;
            self.time_s = start_time + step as f64 * dt;
            let vin = input(self.time_s);
            let drive_p = self.spec.input_cm_v + vin / 2.0;
            let drive_n = self.spec.input_cm_v - vin / 2.0;
            for slice in &mut self.slices {
                slice.node_p.set_drive(slice.in_p, drive_p);
                slice.node_n.set_drive(slice.in_n, drive_n);
                slice.node_p.advance(dt, &mut self.rng);
                slice.node_n.advance(dt, &mut self.rng);
                let vp = slice.node_p.voltage();
                let vn = slice.node_n.voltage();
                slice.vco_p.advance(dt, vp, &mut self.rng);
                slice.vco_n.advance(dt, vn, &mut self.rng);
            }
            match self.clock.advance(dt) {
                EdgeKind::Rising => {
                    for (slice, last) in self.slices.iter().zip(&mut last_edge) {
                        let now = [slice.vco_p.phase(), slice.vco_n.phase()];
                        for s in 0..2 {
                            self.max_cycle_advance =
                                self.max_cycle_advance.max((now[s] - last[s]).abs());
                        }
                        *last = now;
                    }
                    let mut sum = 0.0;
                    let stages = self.spec.vco_stages;
                    let half = self.buf_swing_v / 2.0;
                    let jitter_s = if self.spec.clock_jitter_rms_s > 0.0 {
                        self.rng.gaussian(self.spec.clock_jitter_rms_s)
                    } else {
                        0.0
                    };
                    for slice in self.slices.iter_mut() {
                        let mut code = 0u8;
                        let jp =
                            2.0 * PI * slice.vco_p.frequency_hz(slice.node_p.voltage()) * jitter_s;
                        let jn =
                            2.0 * PI * slice.vco_n.frequency_hz(slice.node_n.voltage()) * jitter_s;
                        for tap in 0..stages {
                            let offset = PI * tap as f64 / stages as f64;
                            let sp =
                                ((slice.vco_p.phase() + jp + offset).sin() * 3.0).clamp(-1.0, 1.0);
                            let sn =
                                ((slice.vco_n.phase() + jn + offset).sin() * 3.0).clamp(-1.0, 1.0);
                            let q1 = slice.cmp_p[tap].sample(
                                self.buf_cm_v + half * sp,
                                self.buf_cm_v - half * sp,
                                &mut self.rng,
                            );
                            let q2 = slice.cmp_n[tap].sample(
                                self.buf_cm_v + half * sn,
                                self.buf_cm_v - half * sn,
                                &mut self.rng,
                            );
                            if q1 ^ q2 {
                                code += 1;
                            }
                        }
                        if code != slice.code {
                            self.d_toggles += 1;
                        }
                        slice.code = code;
                        slice_codes.push(code);
                        sum += code as f64;
                    }
                    output.push(sum);
                }
                EdgeKind::Falling => {
                    for slice in &mut self.slices {
                        slice.retimed_code = slice.code;
                        if slice.retimed_code != slice.dac_code {
                            self.dac_toggles +=
                                u64::from(slice.retimed_code.abs_diff(slice.dac_code));
                            slice.dac_code = slice.retimed_code;
                            let code = slice.dac_code as usize;
                            slice.node_p.set_drive(slice.dac_p, slice.dac_drive_p[code]);
                            slice.node_n.set_drive(slice.dac_n, slice.dac_drive_n[code]);
                        }
                    }
                }
                EdgeKind::None => {}
            }
        }
        (output, slice_codes)
    }
}

/// Coherent-bin input near BW/5, the same snap as the jobs layer.
fn tone(spec: &AdcSpec, samples: usize) -> (f64, f64) {
    let bin = (spec.bw_hz / 5.0 * samples as f64 / spec.fs_hz)
        .round()
        .max(1.0);
    let fin = bin * spec.fs_hz / samples as f64;
    (fin, 0.79 * spec.full_scale_v())
}

/// Runs `build()`'s engine metered and codes-only against the reference
/// and returns the reference's largest per-cycle VCO phase advance.
fn assert_equivalent(
    spec: AdcSpec,
    extra_cap_f: f64,
    build: impl Fn() -> AdcSimulator,
    samples: usize,
) -> f64 {
    let what = format!(
        "{} slices, {} stages, kvco {:e}, {} steps, seed {}",
        spec.n_slices, spec.vco_stages, spec.kvco_hz_per_v, spec.steps_per_cycle, spec.seed
    );
    let (fin, amp) = tone(&spec, samples);
    let (cap, a) = build().run_tone_metered(fin, amp, samples);
    let codes_only = build().run_tone(fin, amp, samples);
    let mut reference = RefSim::build(spec, extra_cap_f);
    let w = 2.0 * PI * fin;
    let (ref_out, ref_codes) = reference.run(|t| amp * (w * t).sin(), samples);
    assert_eq!(ref_out.len(), samples);
    for (kind, cap) in [("metered", &cap), ("codes-only", &codes_only)] {
        assert_eq!(cap.output.len(), samples, "{what}: {kind}");
        for (k, (r, s)) in ref_out.iter().zip(&cap.output).enumerate() {
            assert_eq!(
                r.to_bits(),
                s.to_bits(),
                "{what}: {kind} engine diverges at sample {k}: ref={r} soa={s}"
            );
        }
        assert!(
            ref_codes == cap.slice_codes,
            "{what}: {kind} engine's slice codes diverge"
        );
    }
    assert_eq!(
        reference.activity(),
        [
            a.vco_edges,
            a.comparator_decisions,
            a.dac_toggles,
            a.d_toggles
        ],
        "{what}: activity [vco edges, decisions, dac toggles, bit toggles]"
    );
    reference.max_cycle_advance
}

#[test]
fn soa_engine_matches_scalar_reference_40nm() {
    let mut spec = AdcSpec::paper_40nm().unwrap();
    spec.steps_per_cycle = 8;
    spec.seed = 7;
    assert_equivalent(
        spec.clone(),
        0.0,
        || AdcSimulator::new(spec.clone()).unwrap(),
        2048,
    );
}

#[test]
fn soa_engine_matches_scalar_reference_180nm_4_slices() {
    let mut spec = AdcSpec::paper_180nm().unwrap().with_slices(4).unwrap();
    spec.steps_per_cycle = 8;
    spec.seed = 42;
    assert_equivalent(
        spec.clone(),
        0.0,
        || AdcSimulator::new(spec.clone()).unwrap(),
        2048,
    );
}

/// The 40 nm point (8 steps per cycle, seed 7) with one knob moved.
fn corner(edit: impl FnOnce(&mut AdcSpec)) -> AdcSpec {
    let mut spec = AdcSpec::paper_40nm().unwrap();
    spec.steps_per_cycle = 8;
    spec.seed = 7;
    edit(&mut spec);
    spec.validated().unwrap()
}

#[test]
fn soa_engine_matches_scalar_reference_across_slice_counts() {
    for slices in [1, 3, 16] {
        let spec = corner(|s| s.n_slices = slices);
        assert_equivalent(
            spec.clone(),
            0.0,
            || AdcSimulator::new(spec.clone()).unwrap(),
            1024,
        );
    }
}

#[test]
fn soa_engine_matches_scalar_reference_across_stages_and_gain() {
    for spec in [
        corner(|s| s.vco_stages = 3),
        corner(|s| s.vco_stages = 5),
        corner(|s| s.kvco_hz_per_v *= 2.0),
        // The optimizer's branch-heaviest reach.
        corner(|s| {
            s.n_slices = 16;
            s.vco_stages = 3;
            s.kvco_hz_per_v *= 2.0;
        }),
    ] {
        assert_equivalent(
            spec.clone(),
            0.0,
            || AdcSimulator::new(spec.clone()).unwrap(),
            1024,
        );
    }
}

#[test]
fn codes_only_engine_matches_scalar_reference_across_full_turn_cycles() {
    // A codes-only run syncs each VCO's level tracker once per cycle,
    // and a cycle's increment of 2π or more takes the tracker's exact
    // `rem_euclid` fallback. Loop gain 2.0 does not get there: its
    // fastest VCO advances ≈ 2.4 rad a cycle. A centre frequency of
    // 0.9·fs at loop gain 2.0 does, on the positive half of the swing.
    let gain2 = corner(|s| s.kvco_hz_per_v *= 2.0);
    let max = assert_equivalent(
        gain2.clone(),
        0.0,
        || AdcSimulator::new(gain2.clone()).unwrap(),
        1024,
    );
    assert!(max < 2.0 * PI, "loop gain 2.0 advances {max} rad a cycle");
    let fast = corner(|s| {
        s.vco_f0_hz = 0.9 * s.fs_hz;
        s.kvco_hz_per_v *= 2.0;
    });
    let max = assert_equivalent(
        fast.clone(),
        0.0,
        || AdcSimulator::new(fast.clone()).unwrap(),
        1024,
    );
    assert!(
        max >= 2.0 * PI,
        "f0 = 0.9·fs advances only {max} rad a cycle"
    );
}

#[test]
fn soa_engine_matches_scalar_reference_at_16_steps_and_without_noise() {
    for spec in [
        corner(|s| s.steps_per_cycle = 16),
        corner(|s| {
            s.thermal_noise = false;
            s.phase_noise_per_sqrt_hz = 0.0;
        }),
    ] {
        assert_equivalent(
            spec.clone(),
            0.0,
            || AdcSimulator::new(spec.clone()).unwrap(),
            1024,
        );
    }
}

#[test]
fn soa_engine_matches_scalar_reference_with_parasitics() {
    let mut spec = AdcSpec::paper_40nm().unwrap();
    spec.steps_per_cycle = 8;
    spec.seed = 2017;
    // Real extracted parasitics via the layout pipeline, split across
    // the P/N control nodes exactly like `AdcSimulator::with_parasitics`.
    let design = netgen::generate(&spec).unwrap();
    let flat = design.flatten();
    let plan = PowerPlan::infer(&flat).unwrap();
    let layout = synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).unwrap();
    let vctrl = layout
        .parasitics
        .total_capacitance_where(|n| n.contains("VCTRL"));
    let build = || AdcSimulator::with_parasitics(spec.clone(), &layout.parasitics).unwrap();
    assert_equivalent(spec.clone(), vctrl / 2.0, build, 1024);
}
