//! Golden bit-exactness suite: the transient engine's output, down to the
//! last bit, for 3 seeds × 2 paper nodes.
//!
//! The SoA hot-loop refactor (and any future one) must reproduce the
//! scalar engine's floating-point stream *exactly* — same-seed runs are a
//! documented reproducibility contract (`sweep.json` / `optimize.json`
//! are byte-stable across releases unless a change note says otherwise).
//! These fixtures freeze that contract: FNV-1a checksums over the output
//! words, the per-slice codes, and the spectrum bins, plus every activity
//! counter and the bit patterns of the float accumulators.
//!
//! If an *intentional* numerical change lands (like the fixed-grid clock
//! bugfix that created these values), regenerate with:
//!
//! ```text
//! cargo run --release -p tdsigma-bench --bin golden_probe
//! ```
//!
//! and paste the output into `GOLDEN` below, noting the change in
//! CHANGELOG.md. Never regenerate to paper over an unexplained diff.

use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_dsp::window::Window;
use tdsigma_tech::{fnv1a64, FNV1A64_BASIS};

/// Output of `golden_probe` at the fixed-grid clock baseline.
const GOLDEN: &str = "\
40nm seed=2017 output=cc76301122254c4b codes=3dfd03a8f0b3e77a spectrum=492bfe724e77b596 vco=6567 clk=1024 dac=4741 d=4736 cmp=65536 energy=3e011908a8d5eece dur=3eb6e80fe033c8c6
40nm seed=1 output=5c07688c02ec726d codes=b167f62eb4d81de8 spectrum=ee30fa8f0832115f vco=6564 clk=1024 dac=4812 d=4804 cmp=65536 energy=3e012067d781cb25 dur=3eb6e80fe033c8c6
40nm seed=42 output=7a05f9749123ae8b codes=961d67c8af409682 spectrum=adc4cb71d53002cc vco=6558 clk=1024 dac=4771 d=4766 cmp=65536 energy=3e011f8f78fa9940 dur=3eb6e80fe033c8c6
180nm seed=2017 output=d5ff91101bc77dbf codes=ff2865efd06db2da spectrum=30dbe65a56964c4e vco=6559 clk=1024 dac=4699 d=4695 cmp=65536 energy=3e3125bfe3f6ebfb dur=3ed12e0be826d695
180nm seed=1 output=f901ff416ca76c7d codes=83a3d26f61e9e319 spectrum=1616adf82772d995 vco=6559 clk=1024 dac=4716 d=4711 cmp=65536 energy=3e3126c742c68aa3 dur=3ed12e0be826d695
180nm seed=42 output=3eaef3ad5c781cd3 codes=b8297ed579abdd67 spectrum=b7aaf9809b99aa65 vco=6556 clk=1024 dac=4792 d=4782 cmp=65536 energy=3e3134c29a0781df dur=3ed12e0be826d695
";

/// FNV-1a over a byte stream — the checksum `golden_probe` prints.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    fnv1a64(&bytes.collect::<Vec<u8>>(), FNV1A64_BASIS)
}

fn golden_line(node: &str, spec: &AdcSpec, seed: u64, scratch: &mut SpectrumScratch) -> String {
    let mut spec = spec.clone();
    spec.steps_per_cycle = 8;
    spec.seed = seed;
    let n = 1024usize;
    let fin = 11.0 * spec.fs_hz / n as f64;
    let amp = 0.79 * spec.full_scale_v();
    let mut sim = AdcSimulator::new(spec).expect("sim");
    let cap = sim.run_tone(fin, amp, n);
    let out_sum = fnv1a(cap.output.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    let code_sum = fnv1a(cap.slice_codes.iter().copied());
    let psd = cap.spectrum_with(Window::Hann, scratch);
    let psd_sum = fnv1a(psd.powers().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    let a = &cap.activity;
    format!(
        "{node} seed={seed} output={out_sum:016x} codes={code_sum:016x} \
         spectrum={psd_sum:016x} vco={} clk={} dac={} d={} cmp={} \
         energy={:016x} dur={:016x}",
        a.vco_edges,
        a.clk_cycles,
        a.dac_toggles,
        a.d_toggles,
        a.comparator_decisions,
        a.resistor_energy_j.to_bits(),
        a.duration_s.to_bits(),
    )
}

#[test]
fn transient_engine_matches_golden_fixtures_bit_for_bit() {
    // One SpectrumScratch reused across all six cases — the spectrum
    // checksums therefore also pin the scratch path's bit-exactness
    // across re-plans (1024-sample captures at two sample rates).
    let mut scratch = SpectrumScratch::new();
    let mut got = String::new();
    for (node, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        for seed in [2017u64, 1, 42] {
            got.push_str(&golden_line(node, &spec, seed, &mut scratch));
            got.push('\n');
        }
    }
    for (want, have) in GOLDEN.lines().zip(got.lines()) {
        assert_eq!(
            want, have,
            "golden mismatch — the engine's bit stream changed; if this \
             was an intentional numerical change, regenerate the fixtures \
             with golden_probe and document it in CHANGELOG.md"
        );
    }
    assert_eq!(GOLDEN.lines().count(), got.lines().count());
}

#[test]
fn spectrum_scratch_reuse_matches_fresh_scratch() {
    // Alternating fresh/reused scratch and alternating capture shapes:
    // any hidden state in the scratch would break one of the comparisons.
    let mut reused = SpectrumScratch::new();
    for (node, n) in [("40nm", 512usize), ("180nm", 1024), ("40nm", 1024)] {
        let mut spec = match node {
            "40nm" => AdcSpec::paper_40nm().expect("spec"),
            _ => AdcSpec::paper_180nm().expect("spec"),
        };
        spec.steps_per_cycle = 8;
        let fin = 7.0 * spec.fs_hz / n as f64;
        let amp = 0.5 * spec.full_scale_v();
        let mut sim = AdcSimulator::new(spec).expect("sim");
        let cap = sim.run_tone(fin, amp, n);
        let fresh = cap.spectrum(Window::Hann);
        let with = cap.spectrum_with(Window::Hann, &mut reused);
        assert_eq!(fresh.len(), with.len());
        for (a, b) in fresh.powers().iter().zip(with.powers()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{node} n={n}");
        }
        // Analysis through the same scratch agrees too. (Bandwidth wide
        // enough to leave in-band bins even for the 512-point capture.)
        let bw = cap.fs_hz / 8.0;
        let a = cap.analyze(bw);
        let b = cap.analyze_with(bw, &mut reused);
        assert_eq!(a.sndr_db.to_bits(), b.sndr_db.to_bits());
        assert_eq!(a.signal_dbfs.to_bits(), b.signal_dbfs.to_bits());
    }
}
