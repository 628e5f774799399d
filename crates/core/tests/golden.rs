//! Golden bit-exactness suite: the transient engine's output, down to the
//! last bit, for 3 seeds × 2 paper nodes and for corners off the paper
//! point (1, 3 and 16 slices; 3 and 5 stages; loop gain 2.0; 16 steps
//! per cycle; thermal and phase noise off).
//!
//! The SoA hot-loop refactor (and any future one) must reproduce the
//! scalar engine's floating-point stream *exactly* — same-seed runs are a
//! documented reproducibility contract (`sweep.json` / `optimize.json`
//! are byte-stable across releases unless a change note says otherwise).
//! These fixtures freeze that contract: FNV-1a checksums over the output
//! words, the per-slice codes, and the spectrum bins, plus every activity
//! counter and the bit patterns of the float accumulators. The lines are
//! recorded from metered runs (`run_tone_metered`); the codes-only run
//! (`run_tone`) must reproduce their output and code checksums.
//!
//! If an *intentional* numerical change lands (like the ziggurat normal
//! sampler that created these values), regenerate with:
//!
//! ```text
//! cargo run --release -p tdsigma-bench --bin golden_probe
//! ```
//!
//! and paste the output into `GOLDEN` below, noting the change in
//! CHANGELOG.md. Never regenerate to paper over an unexplained diff.

use tdsigma_core::sim::{AdcSimulator, SimCapture};
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_dsp::window::Window;
use tdsigma_tech::{fnv1a64, FNV1A64_BASIS};

/// Output of `golden_probe` at the ziggurat normal-sampler baseline; the
/// corner lines (from `40nm slices=1` on) were recorded from the same
/// engine before the pass-split kernel landed.
const GOLDEN: &str = "\
40nm seed=2017 output=dbce5b99669aabd8 codes=1cc940a55cd8b8a6 spectrum=1b442bf66223366c vco=6558 clk=1024 dac=4698 d=4691 cmp=65536 energy=3e011ac8fc0df2d4 dur=3eb6e80fe033c8c6
40nm seed=1 output=e13d92af997472a1 codes=1680194c920dd459 spectrum=fbac778bc712985e vco=6554 clk=1024 dac=4769 d=4765 cmp=65536 energy=3e011a1ec059981d dur=3eb6e80fe033c8c6
40nm seed=42 output=4529f10078f0f2f7 codes=b6635c0290826397 spectrum=1c35a0624fcdc0d3 vco=6537 clk=1024 dac=4808 d=4803 cmp=65536 energy=3e011f9c62c2970d dur=3eb6e80fe033c8c6
180nm seed=2017 output=c0c7455f070571c6 codes=a3e37a411de99c6e spectrum=fdc1b9b038955d8f vco=6554 clk=1024 dac=4767 d=4762 cmp=65536 energy=3e312efbc36a004d dur=3ed12e0be826d695
180nm seed=1 output=bd8165c2673ae722 codes=25d0e3eec081e55f spectrum=aa9796b634e4a20d vco=6552 clk=1024 dac=4809 d=4800 cmp=65536 energy=3e312b850c07cd74 dur=3ed12e0be826d695
180nm seed=42 output=0ee0d308b2912c4e codes=15fd6cfe917b2aff spectrum=98ff72da5ac87845 vco=6546 clk=1024 dac=4811 d=4804 cmp=65536 energy=3e312cd80d96f720 dur=3ed12e0be826d695
40nm slices=1 seed=2017 output=a3c35cf1b8e2cbb0 codes=ef873ecaf3170563 spectrum=7c4c8212277337dc vco=817 clk=1024 dac=610 d=609 cmp=8192 energy=3dd11d25a03338bd dur=3eb6e80fe033c8c6
40nm slices=3 seed=2017 output=774b70a589d662a1 codes=15d5430933e78fa4 spectrum=19cb0d2090e09bdb vco=2459 clk=1024 dac=1810 d=1806 cmp=24576 energy=3de9b575541f613a dur=3eb6e80fe033c8c6
40nm slices=16 seed=2017 output=129164b6a55276e7 codes=16785bddd39db749 spectrum=db1e56922ed9074b vco=13124 clk=1024 dac=9489 d=9479 cmp=131072 energy=3e111b82f0021fdf dur=3eb6e80fe033c8c6
40nm stages=3 seed=2017 output=85f8b0be1157e7e6 codes=62c4b850c4e47434 spectrum=1884ef01accd10d3 vco=6557 clk=1024 dac=3130 d=3124 cmp=49152 energy=3dfb408a699b3e5b dur=3eb6e80fe033c8c6
40nm stages=5 seed=2017 output=bc377bb64217ee7f codes=686b9a8bb88bcda9 spectrum=3e5bd8004c181b60 vco=6544 clk=1024 dac=3192 d=2730 cmp=81920 energy=3e04c2007ebe8084 dur=3eb6e80fe033c8c6
40nm gain=2 seed=2017 output=90a5ec664271b6b5 codes=8e75a37eb88c97a3 spectrum=98e50c297e21125e vco=6560 clk=1024 dac=5094 d=5013 cmp=65536 energy=3e019055ca35b6da dur=3eb6e80fe033c8c6
40nm steps=16 seed=2017 output=39336e13fb4cffd7 codes=ce3a7ddc154b6dea spectrum=8bf4e9748d4d1011 vco=6560 clk=1024 dac=4709 d=4704 cmp=65536 energy=3e0119a0657490a9 dur=3eb6e80fe033c8c6
40nm quiet seed=2017 output=485453efba2c1df6 codes=6f137f6e0d0fe7ea spectrum=ea9056430083fe58 vco=6559 clk=1024 dac=4675 d=4670 cmp=65536 energy=3e011458762b9258 dur=3eb6e80fe033c8c6
40nm slices=16 stages=3 gain=2 seed=2017 output=5f90b2ce0c442612 codes=9fa6326efb72da0f spectrum=f0e517c176dfd563 vco=13106 clk=1024 dac=6490 d=6380 cmp=98304 energy=3e0bc12cbe3500c5 dur=3eb6e80fe033c8c6
";

/// FNV-1a over a byte stream — the checksum `golden_probe` prints.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    fnv1a64(&bytes.collect::<Vec<u8>>(), FNV1A64_BASIS)
}

/// Every fixture case, in `GOLDEN` order: a label and the spec it runs.
/// The paper points run at 8 steps per cycle for 3 seeds; each corner is
/// the 40 nm point at seed 2017 with one knob moved (the last moves the
/// three the optimizer's search makes most branch-heavy).
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

/// Every case's tone: bin 11 of 1024 samples at −2 dBFS.
const SAMPLES: usize = 1024;

fn tone(spec: &AdcSpec) -> (f64, f64) {
    (
        11.0 * spec.fs_hz / SAMPLES as f64,
        0.79 * spec.full_scale_v(),
    )
}

fn golden_line(label: &str, spec: &AdcSpec, scratch: &mut SpectrumScratch) -> String {
    let (fin, amp) = tone(spec);
    let seed = spec.seed;
    let mut sim = AdcSimulator::new(spec.clone()).expect("sim");
    let (cap, a) = sim.run_tone_metered(fin, amp, SAMPLES);
    let psd = cap.spectrum_with(Window::Hann, scratch);
    let psd_sum = fnv1a(psd.powers().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    format!(
        "{label} seed={seed} {} spectrum={psd_sum:016x} vco={} clk={} dac={} d={} cmp={} \
         energy={:016x} dur={:016x}",
        codes_fields(&cap),
        a.vco_edges,
        a.clk_cycles,
        a.dac_toggles,
        a.d_toggles,
        a.comparator_decisions,
        a.resistor_energy_j.to_bits(),
        a.duration_s.to_bits(),
    )
}

/// The `output=… codes=…` fields of a fixture line for `cap`.
fn codes_fields(cap: &SimCapture) -> String {
    let out_sum = fnv1a(cap.output.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    let code_sum = fnv1a(cap.slice_codes.iter().copied());
    format!("output={out_sum:016x} codes={code_sum:016x}")
}

#[test]
fn transient_engine_matches_golden_fixtures_bit_for_bit() {
    // One SpectrumScratch reused across every case — the spectrum
    // checksums therefore also pin the scratch path's bit-exactness
    // across re-plans (1024-sample captures at two sample rates).
    let mut scratch = SpectrumScratch::new();
    let mut got = String::new();
    for (label, spec) in cases() {
        got.push_str(&golden_line(&label, &spec, &mut scratch));
        got.push('\n');
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
fn codes_only_engine_matches_golden_output_and_codes() {
    for ((label, spec), line) in cases().iter().zip(GOLDEN.lines()) {
        let (fin, amp) = tone(spec);
        let cap = AdcSimulator::new(spec.clone())
            .expect("sim")
            .run_tone(fin, amp, SAMPLES);
        let fields = format!("{label} seed={} {}", spec.seed, codes_fields(&cap));
        assert!(
            line.starts_with(&fields),
            "codes-only run of {label}: {fields}, fixture {line}"
        );
    }
    assert_eq!(cases().len(), GOLDEN.lines().count());
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
