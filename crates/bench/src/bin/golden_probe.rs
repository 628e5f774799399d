//! Dumps bit-level checksums of simulator captures — the regeneration
//! tool for the golden bit-exactness fixtures in
//! `crates/core/tests/golden.rs`.
//!
//! For 3 seeds × 2 paper nodes, and for the corners off the 40 nm point
//! that `golden.rs` lists (slice count, stages, loop gain, steps per
//! cycle, noise off), it runs a metered tone capture and prints one line per
//! case: FNV-1a checksums over the output-word bit patterns
//! and the slice codes, every integer activity counter, and the bit
//! patterns of the float accumulators. Any engine change that alters a
//! single bit of the transient shows up here.

use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::window::Window;
use tdsigma_tech::{fnv1a64, FNV1A64_BASIS};

/// FNV-1a over a byte stream (the same checksum the golden test uses).
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    fnv1a64(&bytes.collect::<Vec<u8>>(), FNV1A64_BASIS)
}

/// The fixture cases, in the order `golden.rs` lists them.
fn cases() -> Vec<(String, AdcSpec)> {
    let mut cases = Vec::new();
    for (node, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        for seed in [2017u64, 1, 42] {
            let mut spec = spec.clone();
            spec.steps_per_cycle = 8;
            spec.seed = seed;
            cases.push((node.to_string(), spec));
        }
    }
    let corner = |label: &str, edit: &dyn Fn(&mut AdcSpec)| {
        let mut spec = AdcSpec::paper_40nm().expect("spec");
        spec.steps_per_cycle = 8;
        edit(&mut spec);
        (
            format!("40nm {label}"),
            spec.validated().expect("corner spec"),
        )
    };
    cases.extend([
        corner("slices=1", &|s| s.n_slices = 1),
        corner("slices=3", &|s| s.n_slices = 3),
        corner("slices=16", &|s| s.n_slices = 16),
        corner("stages=3", &|s| s.vco_stages = 3),
        corner("stages=5", &|s| s.vco_stages = 5),
        corner("gain=2", &|s| s.kvco_hz_per_v *= 2.0),
        corner("steps=16", &|s| s.steps_per_cycle = 16),
        corner("quiet", &|s| {
            s.thermal_noise = false;
            s.phase_noise_per_sqrt_hz = 0.0;
        }),
        corner("slices=16 stages=3 gain=2", &|s| {
            s.n_slices = 16;
            s.vco_stages = 3;
            s.kvco_hz_per_v *= 2.0;
        }),
    ]);
    cases
}

fn main() {
    for (label, spec) in cases() {
        let seed = spec.seed;
        let n = 1024usize;
        let fin = 11.0 * spec.fs_hz / n as f64;
        let amp = 0.79 * spec.full_scale_v();
        let mut sim = AdcSimulator::new(spec).expect("sim");
        let (cap, a) = sim.run_tone_metered(fin, amp, n);
        let out_sum = fnv1a(cap.output.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        let code_sum = fnv1a(cap.slice_codes.iter().copied());
        let psd = cap.spectrum(Window::Hann);
        let psd_sum = fnv1a(psd.powers().iter().flat_map(|v| v.to_bits().to_le_bytes()));
        println!(
            "{label} seed={seed} output={out_sum:016x} codes={code_sum:016x} \
             spectrum={psd_sum:016x} vco={} clk={} dac={} d={} cmp={} \
             energy={:016x} dur={:016x}",
            a.vco_edges,
            a.clk_cycles,
            a.dac_toggles,
            a.d_toggles,
            a.comparator_decisions,
            a.resistor_energy_j.to_bits(),
            a.duration_s.to_bits(),
        );
    }
}
