//! Property-based tests across the workspace's core invariants.
//!
//! The workspace builds fully offline, so instead of a property-testing
//! dependency these run each invariant over a deterministic fan of
//! randomized cases drawn from the in-house [`Rng64`] stream. Failures
//! print the case seed, so any counterexample is exactly reproducible.

use tdsigma::dsp::{
    boxcar_decimate, dft_reference, fft_real, ifft_in_place, CicDecimator, Complex, Spectrum,
    Window,
};
use tdsigma::layout::{half_perimeter, Point, Rect};
use tdsigma::netlist::{verilog, Design, Module, PortDirection};
use tdsigma::tech::Rng64;

/// One RNG per case, seeded from the test name hash and case index so
/// every case is independent and reproducible.
fn case_rng(test: &str, case: u64) -> Rng64 {
    let tag: u64 = test.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Rng64::seed_from_u64(tag ^ (case.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

fn uniform(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

fn uniform_usize(rng: &mut Rng64, lo: usize, hi: usize) -> usize {
    lo + rng.gen_range(hi - lo)
}

fn uniform_i64(rng: &mut Rng64, lo: i64, hi: i64) -> i64 {
    lo + rng.gen_range((hi - lo) as usize) as i64
}

fn vec_f64(rng: &mut Rng64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| uniform(rng, lo, hi)).collect()
}

/// Parseval's theorem holds for arbitrary real signals.
#[test]
fn fft_parseval() {
    for case in 0..64u64 {
        let mut rng = case_rng("fft_parseval", case);
        let samples = vec_f64(&mut rng, 256, -1e3, 1e3);
        let time: f64 = samples.iter().map(|x| x * x).sum();
        let spec = fft_real(&samples);
        let freq: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / samples.len() as f64;
        assert!(
            (time - freq).abs() <= 1e-6 * time.abs().max(1.0),
            "case {case}: time {time} vs freq {freq}"
        );
    }
}

/// FFT matches the O(n²) DFT on random complex input.
#[test]
fn fft_matches_dft() {
    for case in 0..64u64 {
        let mut rng = case_rng("fft_matches_dft", case);
        let input: Vec<Complex> = (0..32)
            .map(|_| {
                Complex::new(
                    uniform(&mut rng, -10.0, 10.0),
                    uniform(&mut rng, -10.0, 10.0),
                )
            })
            .collect();
        let mut fast = input.clone();
        tdsigma::dsp::fft_in_place(&mut fast);
        let slow = dft_reference(&input);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-7, "case {case}");
        }
    }
}

/// IFFT inverts FFT for arbitrary signals.
#[test]
fn fft_roundtrip() {
    for case in 0..64u64 {
        let mut rng = case_rng("fft_roundtrip", case);
        let samples = vec_f64(&mut rng, 128, -1e2, 1e2);
        let mut buf: Vec<Complex> = samples.iter().map(|&x| Complex::from_real(x)).collect();
        tdsigma::dsp::fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (orig, got) in samples.iter().zip(&buf) {
            assert!((orig - got.re).abs() < 1e-9, "case {case}");
            assert!(got.im.abs() < 1e-9, "case {case}");
        }
    }
}

/// A full-scale coherent tone always reads ~0 dBFS regardless of bin,
/// window, and sample rate.
#[test]
fn spectrum_normalisation() {
    for case in 0..64u64 {
        let mut rng = case_rng("spectrum_normalisation", case);
        let bin = uniform_usize(&mut rng, 5, 200);
        let rate = uniform(&mut rng, 1e5, 1e9);
        let n = 1024;
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * bin as f64 * i as f64 / n as f64).sin())
            .collect();
        for window in [Window::Rectangular, Window::Hann, Window::Hamming] {
            let s = Spectrum::from_samples(&samples, rate, window);
            assert_eq!(s.peak_bin(), bin, "case {case}");
            assert!(
                s.dbfs(bin).abs() < 0.2,
                "case {case}: window {} read {}",
                window,
                s.dbfs(bin)
            );
        }
    }
}

/// CIC decimation preserves DC exactly for any order/ratio.
#[test]
fn cic_dc_gain() {
    for case in 0..64u64 {
        let mut rng = case_rng("cic_dc_gain", case);
        let order = uniform_usize(&mut rng, 1, 5);
        let ratio = uniform_usize(&mut rng, 2, 32);
        let dc = uniform(&mut rng, -10.0, 10.0);
        let cic = CicDecimator::new(order, ratio);
        let input = vec![dc; ratio * 32];
        let out = cic.decimate(&input);
        let settled = &out[order + 1..];
        for &v in settled {
            assert!((v - dc).abs() < 1e-9, "case {case}: {v} vs {dc}");
        }
    }
}

/// Boxcar decimation never exceeds the input range.
#[test]
fn boxcar_bounded() {
    for case in 0..64u64 {
        let mut rng = case_rng("boxcar_bounded", case);
        let samples = vec_f64(&mut rng, 64, -5.0, 5.0);
        let ratio = uniform_usize(&mut rng, 1, 16);
        let out = boxcar_decimate(&samples, ratio);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in out {
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "case {case}");
        }
    }
}

/// HPWL is translation invariant and non-negative.
#[test]
fn hpwl_invariants() {
    for case in 0..64u64 {
        let mut rng = case_rng("hpwl_invariants", case);
        let n = uniform_usize(&mut rng, 1, 12);
        let points: Vec<Point> = (0..n)
            .map(|_| {
                Point::new(
                    uniform_i64(&mut rng, -1000, 1000),
                    uniform_i64(&mut rng, -1000, 1000),
                )
            })
            .collect();
        let dx = uniform_i64(&mut rng, -500, 500);
        let dy = uniform_i64(&mut rng, -500, 500);
        let moved: Vec<Point> = points
            .iter()
            .map(|p| Point::new(p.x + dx, p.y + dy))
            .collect();
        let a = half_perimeter(&points);
        assert!(a >= 0, "case {case}");
        assert_eq!(a, half_perimeter(&moved), "case {case}");
    }
}

/// Rect union always contains both operands; overlap is symmetric.
#[test]
fn rect_invariants() {
    for case in 0..64u64 {
        let mut rng = case_rng("rect_invariants", case);
        let rect = |rng: &mut Rng64| {
            let x = uniform_i64(rng, -100, 100);
            let y = uniform_i64(rng, -100, 100);
            let w = uniform_i64(rng, 1, 50);
            let h = uniform_i64(rng, 1, 50);
            Rect::new(x, y, x + w, y + h)
        };
        let a = rect(&mut rng);
        let b = rect(&mut rng);
        let u = a.union(&b);
        assert!(u.contains_rect(&a), "case {case}");
        assert!(u.contains_rect(&b), "case {case}");
        assert_eq!(a.overlaps(&b), b.overlaps(&a), "case {case}");
    }
}

/// Verilog round trip is loss-free for arbitrary inverter-chain
/// netlists (length, drive strengths, port names).
#[test]
fn verilog_roundtrip() {
    for case in 0..64u64 {
        let mut rng = case_rng("verilog_roundtrip", case);
        let length = uniform_usize(&mut rng, 1, 20);
        let drives: Vec<usize> = (0..20).map(|_| uniform_usize(&mut rng, 0, 3)).collect();
        let mut m = Module::new("chain");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let mut prev = m.add_port("IN", PortDirection::Input);
        let out = m.add_port("OUT", PortDirection::Output);
        for i in 0..length {
            let next = if i == length - 1 {
                out
            } else {
                m.add_net(format!("n{i}"))
            };
            let cell = ["INVX1", "INVX2", "INVX4"][drives[i % drives.len()]];
            m.add_leaf(
                format!("I{i}"),
                cell,
                [("A", prev), ("Y", next), ("VDD", vdd), ("VSS", vss)],
            )
            .expect("legal netlist");
            prev = next;
        }
        let design = Design::new(m).expect("valid design");
        let text = verilog::write_design(&design).expect("write");
        let back = verilog::read_design(&text).expect("read");
        assert_eq!(
            verilog::write_design(&back).expect("write"),
            text,
            "case {case}"
        );
        assert_eq!(back.flatten().len(), length, "case {case}");
    }
}

/// The placer always produces a legal placement (no overlaps, region
/// containment) for random multi-domain netlists.
#[test]
fn placement_always_legal() {
    use std::collections::BTreeMap;
    use tdsigma::layout::{place, Floorplan, PhysicalLibrary};
    use tdsigma::netlist::PowerPlan;
    use tdsigma::tech::{NodeId, Technology};

    for case in 0..12u64 {
        let mut rng = case_rng("placement_always_legal", case);
        let n_a = uniform_usize(&mut rng, 2, 20);
        let n_b = uniform_usize(&mut rng, 2, 20);
        let seed = rng.gen_range(50) as u64;

        let mut m = Module::new("rand");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vc = m.add_port("VC", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let mut nets = vec![m.add_port("IN", PortDirection::Input)];
        for i in 0..(n_a + n_b) {
            nets.push(m.add_net(format!("n{i}")));
        }
        for i in 0..n_a {
            m.add_leaf(
                format!("A{i}"),
                "INVX1",
                [
                    ("A", nets[i]),
                    ("Y", nets[i + 1]),
                    ("VDD", vdd),
                    ("VSS", vss),
                ],
            )
            .expect("legal");
        }
        for i in 0..n_b {
            m.add_leaf(
                format!("B{i}"),
                "NOR2X1",
                [
                    ("A", nets[i]),
                    ("B", nets[i + 1]),
                    ("Y", nets[n_a + i + 1]),
                    ("VDD", vc),
                    ("VSS", vss),
                ],
            )
            .expect("legal");
        }
        let flat = Design::new(m).expect("valid").flatten();
        let plan = PowerPlan::infer(&flat).expect("plan");
        let lib =
            PhysicalLibrary::for_technology(&Technology::for_node(NodeId::N40).expect("node"));
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.8).expect("floorplan");
        let assignments: BTreeMap<String, String> = flat
            .cells
            .iter()
            .map(|c| {
                (
                    c.path.clone(),
                    plan.region_of(&c.path).expect("assigned").name.clone(),
                )
            })
            .collect();
        let p = place(&flat, &assignments, &fp, &lib, seed).expect("placement");

        // Legality: pairwise non-overlap + region containment.
        let report = tdsigma::layout::check_placement(&flat, &p);
        assert!(report.is_clean(), "case {case}: {report}");
        for cell in &p.cells {
            let region = fp.region(&cell.region).expect("region exists");
            let r = Rect::new(
                cell.x_nm,
                cell.y_nm,
                cell.x_nm + cell.width_nm,
                cell.y_nm + cell.height_nm,
            );
            assert!(region.rect.contains_rect(&r), "case {case}");
        }
    }
}

/// The netlist generator yields an error-free, power-plan-valid design
/// for any slice/stage combination, and its size follows the closed
/// form — asserted via the generator-independent recount below.
#[test]
fn netgen_always_clean() {
    use std::collections::BTreeSet;
    use tdsigma::core::{netgen, AdcSpec};
    use tdsigma::netlist::{lint_flat, PowerPlan};

    for case in 0..10u64 {
        let mut rng = case_rng("netgen_always_clean", case);
        let slices = uniform_usize(&mut rng, 1, 6);
        let stages = uniform_usize(&mut rng, 2, 6);

        let mut spec = AdcSpec::paper_40nm().expect("base spec");
        spec.n_slices = slices;
        spec.vco_stages = stages;
        // Keep the closed-form count simple: exclude the adder back end
        // (it has its own exhaustive gate-level tests).
        spec.include_output_adder = false;
        let spec = spec.validated().expect("valid");
        let design = netgen::generate(&spec).expect("netlist generates");
        let flat = design.flatten();

        // Closed-form cell count per slice:
        //   VCO: 2 rings × stages × 4 inv
        //   buffers: 2 × stages × 4 inv
        //   pd_VDD: stages × (8 + 1 XOR + 2 latches + 1 inv) + 1 clk inv
        //   DAC: 2 × stages inverters
        //   DAC resistors: 4 × stages cells × 4 fragments
        //   input resistors: 2 × 4 fragments
        let per_slice = 8 * stages + 8 * stages + (12 * stages + 1) + 2 * stages + 16 * stages + 8;
        assert_eq!(
            flat.len(),
            slices * per_slice + 3,
            "case {case}: plus 3 clock buffers"
        );

        // Lint: warnings only (cross-coupled analog cells).
        let externals: BTreeSet<String> = design
            .top()
            .ports()
            .iter()
            .map(|p| p.name.clone())
            .collect();
        let report = lint_flat(&flat, &externals).expect("lint runs");
        assert!(!report.has_errors(), "case {case}: {report}");

        // Power plan covers every cell and validates.
        let plan = PowerPlan::infer(&flat).expect("plan infers");
        plan.validate(&flat).expect("plan validates");
        assert_eq!(plan.domain_count(), 3 + 2 * slices, "case {case}");

        // Verilog round-trips.
        let text = tdsigma::netlist::verilog::write_design(&design).expect("write");
        let back = tdsigma::netlist::verilog::read_design(&text).expect("read");
        assert_eq!(back.flatten().len(), flat.len(), "case {case}");
    }
}

/// The behavioral simulator's DC transfer stays monotone for any legal
/// slice count and input level (no overload inside ±0.7 FS).
#[test]
fn sim_dc_transfer_monotone() {
    use tdsigma::core::{sim::AdcSimulator, AdcSpec};
    for case in 0..10u64 {
        let mut rng = case_rng("sim_dc_transfer_monotone", case);
        let slices = uniform_usize(&mut rng, 1, 5);
        let seed = rng.gen_range(20) as u64;
        let mut spec = AdcSpec::paper_40nm().expect("spec");
        spec.n_slices = slices;
        spec.steps_per_cycle = 8;
        spec.seed = seed;
        let spec = spec.validated().expect("valid");
        let fsv = spec.full_scale_v();
        let mut last = f64::NEG_INFINITY;
        for frac in [-0.7, -0.35, 0.0, 0.35, 0.7] {
            let mut sim = AdcSimulator::new(spec.clone()).expect("sim");
            let mean = sim.run(|_| frac * fsv, 1024).mean_code();
            assert!(
                mean > last,
                "case {case}: transfer must increase: {mean} after {last}"
            );
            last = mean;
        }
    }
}

/// `Job::to_spec` is total: whatever a peer puts in any numeric field,
/// it answers `Ok` or `JobError::Invalid` and never panics, and every
/// spec it accepts is inside the bounds and builds a simulator.
#[test]
fn job_to_spec_is_total_and_its_specs_build() {
    use tdsigma::core::sim::AdcSimulator;
    use tdsigma::core::{MAX_SLICES, MAX_STEPS_PER_CYCLE, MAX_VCO_STAGES};
    use tdsigma::jobs::job::{MAX_SAMPLES, MAX_WORK};
    use tdsigma::jobs::{Job, JobError};

    const HUGE: f64 = (1u64 << 50) as f64;
    let ints = |bound: usize| vec![0, 1, bound, bound + 1, 1 << 50];
    let floats = |bound: f64| {
        vec![
            0.0,
            1.0,
            bound,
            bound + 1.0,
            HUGE,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
    };
    type Set = fn(&mut Job, f64);
    let fields: Vec<(&str, Vec<f64>, Set)> = vec![
        ("node_nm", floats(180.0), |j, x| j.node_nm = x),
        ("fs_hz", floats(750e6), |j, x| j.fs_hz = x),
        ("bw_hz", floats(5e6), |j, x| j.bw_hz = x),
        ("amplitude_rel", floats(1.0), |j, x| j.amplitude_rel = x),
        ("fin_hz", floats(375e6), |j, x| j.fin_hz = Some(x)),
        ("loop_gain", floats(1.0), |j, x| j.loop_gain = x),
        ("rdac_ohm", floats(22e3), |j, x| j.rdac_ohm = x),
        (
            "slices",
            ints(MAX_SLICES).into_iter().map(|n| n as f64).collect(),
            |j, x| j.slices = x as usize,
        ),
        (
            "samples",
            ints(MAX_SAMPLES).into_iter().map(|n| n as f64).collect(),
            |j, x| j.samples = x as usize,
        ),
        (
            "steps_per_cycle",
            ints(MAX_STEPS_PER_CYCLE)
                .into_iter()
                .map(|n| n as f64)
                .collect(),
            |j, x| j.steps_per_cycle = x as usize,
        ),
        (
            "vco_stages",
            ints(MAX_VCO_STAGES).into_iter().map(|n| n as f64).collect(),
            |j, x| j.vco_stages = x as usize,
        ),
    ];
    let base = Job {
        slices: 2,
        samples: 2048,
        steps_per_cycle: 4,
        ..Job::sim(40.0, 750e6, 5e6)
    };
    let check = |job: &Job, what: &str| match job.to_spec() {
        Err(JobError::Invalid(_)) => false,
        Err(e) => panic!("{what}: expected Ok or Invalid, got {e:?}"),
        Ok(spec) => {
            assert!((1..=MAX_SLICES).contains(&spec.n_slices), "{what}");
            assert!((1..=MAX_VCO_STAGES).contains(&spec.vco_stages), "{what}");
            assert!(
                (4..=MAX_STEPS_PER_CYCLE).contains(&spec.steps_per_cycle),
                "{what}"
            );
            assert!(
                job.samples <= MAX_SAMPLES && job.samples.is_power_of_two(),
                "{what}"
            );
            assert!(
                job.samples * spec.steps_per_cycle * spec.n_slices <= MAX_WORK,
                "{what}"
            );
            assert!(
                job.amplitude_rel > 0.0 && job.amplitude_rel <= 1.0,
                "{what}"
            );
            for x in [
                spec.fs_hz,
                spec.bw_hz,
                spec.vco_f0_hz,
                spec.kvco_hz_per_v,
                spec.rin_ohm,
                spec.rdac_ohm,
                spec.vrefp_v,
            ] {
                assert!(x.is_finite() && x > 0.0, "{what}: {x}");
            }
            AdcSimulator::new(spec).unwrap_or_else(|e| panic!("{what}: {e}"));
            true
        }
    };
    // Every value of every field on its own…
    let mut accepted = 0;
    for (name, values, set) in &fields {
        for &x in values {
            let mut job = base.clone();
            set(&mut job, x);
            accepted += usize::from(check(&job, &format!("{name} = {x}")));
        }
    }
    assert!(accepted > 10, "the bounds themselves must be accepted");
    // Every knob inside its own bound, but their product above MAX_WORK.
    let greedy = Job {
        slices: MAX_SLICES,
        samples: MAX_SAMPLES,
        steps_per_cycle: MAX_STEPS_PER_CYCLE,
        ..base.clone()
    };
    assert!(!check(&greedy, "all three maxima"), "must be refused");
    // …and random combinations of two to four of them.
    for case in 0..400u64 {
        let mut rng = case_rng("job_to_spec_is_total_and_its_specs_build", case);
        let mut job = base.clone();
        let mut what = format!("case {case}:");
        for _ in 0..uniform_usize(&mut rng, 2, 5) {
            let (name, values, set) = &fields[rng.gen_range(fields.len())];
            let x = values[rng.gen_range(values.len())];
            set(&mut job, x);
            what += &format!(" {name} = {x}");
        }
        check(&job, &what);
    }
}
