//! Gate-level netlist generation for the proposed ADC.
//!
//! Reproduces the paper's structural decomposition exactly:
//!
//! * [`comparator_module`] — Table 1: two cross-coupled `NOR3X4` (the
//!   proposed synthesis-friendly comparator) plus the `NOR2X1` SR latch.
//! * `vco_stage_module` — Fig. 5: one pseudo-differential delay stage
//!   built from 4 inverters whose power pins connect to `VCTRL` (that is
//!   what makes the ring a voltage-controlled integrator — and what breaks
//!   naive APR).
//! * `buffer_module` — the kick-back isolation buffer (same structure,
//!   powered from `VBUF`).
//! * [`pd_vdd_module`] / [`pd_vrefp_module`] — Table 2's `pd_VDD` (SAFFs,
//!   XOR, retiming latch) and `pd_VREFP` (the DAC inverters) blocks.
//! * `resistor_module` — `res_cell`: four identical fragments in series
//!   (§3.1: "each resistor is decomposed into several identical
//!   fragments").
//! * `slice_module` — Table 2's `ADC_slice`.
//! * [`generate`] — the full ADC: shared control/buffer nodes, input
//!   resistors, N slices, clock tree.
//!
//! The netlist depends on an [`AdcStructure`] only: the slice count, the
//! ring length and the output adder. Every electrical knob of the spec
//! (loop gain, resistor values, noise, seed, simulation steps) leaves the
//! HDL unchanged.

use crate::error::CoreError;
use crate::spec::AdcSpec;
use tdsigma_netlist::{Design, Module, NetId, PortDirection};

/// Number of identical fragments composing one resistor (paper Fig. 11).
pub(crate) const FRAGMENTS_PER_RESISTOR: usize = 4;

/// The part of an [`AdcSpec`] the gate-level netlist is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdcStructure {
    /// Number of slices.
    pub n_slices: usize,
    /// Delay stages per ring VCO (paper Fig. 5 shows the 4-inverter
    /// stage; this sets how many are chained).
    pub vco_stages: usize,
    /// Include the thermometer-to-binary ones counter and output register.
    pub include_output_adder: bool,
}

impl From<&AdcSpec> for AdcStructure {
    fn from(spec: &AdcSpec) -> Self {
        AdcStructure {
            n_slices: spec.n_slices,
            vco_stages: spec.vco_stages,
            include_output_adder: spec.include_output_adder,
        }
    }
}

/// Builds the Table 1 comparator: cross-coupled NOR3 pair + NOR2 SR latch.
pub fn comparator_module() -> Module {
    let mut m = Module::new("comparator");
    let q = m.add_port("Q", PortDirection::Output);
    let qb = m.add_port("QB", PortDirection::Output);
    let vdd = m.add_port("VDD", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let clk = m.add_port("CLK", PortDirection::Input);
    let inm = m.add_port("INM", PortDirection::Input);
    let inp = m.add_port("INP", PortDirection::Input);
    let outp = m.add_net("OUTP");
    let outm = m.add_net("OUTM");
    m.add_leaf(
        "I0",
        "NOR3X4",
        [
            ("Y", outp),
            ("VDD", vdd),
            ("VSS", vss),
            ("A", outm),
            ("B", inp),
            ("C", clk),
        ],
    )
    .expect("static construction");
    m.add_leaf(
        "I1",
        "NOR3X4",
        [
            ("Y", outm),
            ("VDD", vdd),
            ("VSS", vss),
            ("A", outp),
            ("B", inm),
            ("C", clk),
        ],
    )
    .expect("static construction");
    m.add_leaf(
        "I2",
        "NOR2X1",
        [("Y", q), ("VDD", vdd), ("VSS", vss), ("A", outp), ("B", qb)],
    )
    .expect("static construction");
    m.add_leaf(
        "I3",
        "NOR2X1",
        [("Y", qb), ("VDD", vdd), ("VSS", vss), ("A", outm), ("B", q)],
    )
    .expect("static construction");
    m
}

/// Builds the Fig. 5 VCO delay stage: two forward inverters plus two
/// cross-coupled inverters, all supplied from `VCTRL`.
pub(crate) fn vco_stage_module() -> Module {
    let mut m = Module::new("VCO_cell");
    let on = m.add_port("ON", PortDirection::Output);
    let op = m.add_port("OP", PortDirection::Output);
    let vctrl = m.add_port("VCTRL", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let inn = m.add_port("IN", PortDirection::Input);
    let inp = m.add_port("IP", PortDirection::Input);
    let pairs: [(&str, NetId, NetId); 4] = [
        ("FWD0", inp, on),
        ("FWD1", inn, op),
        ("XC0", op, on),
        ("XC1", on, op),
    ];
    for (name, a, y) in pairs {
        m.add_leaf(
            name,
            "INVX1",
            [("A", a), ("Y", y), ("VDD", vctrl), ("VSS", vss)],
        )
        .expect("static construction");
    }
    m
}

/// Builds the kick-back isolation buffer (`buf_cell` in Table 2): the same
/// 4-inverter structure with a fixed bias supply `VCTRL` (bonded to VBUF
/// at the top).
pub(crate) fn buffer_module() -> Module {
    let mut m = Module::new("buf_cell");
    let bon = m.add_port("BON", PortDirection::Output);
    let bop = m.add_port("BOP", PortDirection::Output);
    let vctrl = m.add_port("VCTRL", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let bin = m.add_port("BIN", PortDirection::Input);
    let bip = m.add_port("BIP", PortDirection::Input);
    let pairs: [(&str, NetId, NetId); 4] = [
        ("FWD0", bip, bon),
        ("FWD1", bin, bop),
        ("XC0", bop, bon),
        ("XC1", bon, bop),
    ];
    for (name, a, y) in pairs {
        m.add_leaf(
            name,
            "INVX2",
            [("A", a), ("Y", y), ("VDD", vctrl), ("VSS", vss)],
        )
        .expect("static construction");
    }
    m
}

/// Builds Table 2's `pd_VDD` block for `stages` quantizer taps: per tap,
/// a SAFF pair (one per ring), an XOR phase detector, a retiming latch
/// pair, and the complement driver — everything supplied from the
/// ordinary `VDD`. Outputs are the thermometer code bits `T0..` and their
/// complements `TB0..`.
pub fn pd_vdd_module(stages: usize) -> Module {
    let mut m = Module::new("pd_VDD");
    let clk = m.add_port("CLK", PortDirection::Input);
    let vdd = m.add_port("VDD", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let clkb = m.add_net("CLKB");
    m.add_leaf(
        "CKI0",
        "INVX1",
        [("A", clk), ("Y", clkb), ("VDD", vdd), ("VSS", vss)],
    )
    .expect("static construction");
    for t in 0..stages {
        let bop = m.add_port(format!("BOP{t}"), PortDirection::Input);
        let bon = m.add_port(format!("BON{t}"), PortDirection::Input);
        let bop2 = m.add_port(format!("BOP2_{t}"), PortDirection::Input);
        let bon2 = m.add_port(format!("BON2_{t}"), PortDirection::Input);
        let d = m.add_port(format!("T{t}"), PortDirection::Output);
        let db = m.add_port(format!("TB{t}"), PortDirection::Output);
        let qp = m.add_net(format!("QP{t}"));
        let qpb = m.add_net(format!("QPB{t}"));
        let qm = m.add_net(format!("QM{t}"));
        let qmb = m.add_net(format!("QMB{t}"));
        let x = m.add_net(format!("X{t}"));
        let xr = m.add_net(format!("XR{t}"));
        m.add_submodule(
            format!("CMP_P{t}"),
            "comparator",
            [
                ("Q", qp),
                ("QB", qpb),
                ("VDD", vdd),
                ("VSS", vss),
                ("CLK", clk),
                ("INM", bon),
                ("INP", bop),
            ],
        )
        .expect("static construction");
        m.add_submodule(
            format!("CMP_N{t}"),
            "comparator",
            [
                ("Q", qm),
                ("QB", qmb),
                ("VDD", vdd),
                ("VSS", vss),
                ("CLK", clk),
                ("INM", bon2),
                ("INP", bop2),
            ],
        )
        .expect("static construction");
        m.add_leaf(
            format!("XOR{t}"),
            "XOR2X1",
            [("A", qp), ("B", qm), ("Y", x), ("VDD", vdd), ("VSS", vss)],
        )
        .expect("static construction");
        // Retiming latch pair (Fig. 4): capture in the low phase, hold
        // through the high phase — half-cycle excess loop delay.
        m.add_leaf(
            format!("RETA{t}"),
            "LATCHX1",
            [
                ("D", x),
                ("EN", clkb),
                ("Q", xr),
                ("VDD", vdd),
                ("VSS", vss),
            ],
        )
        .expect("static construction");
        m.add_leaf(
            format!("RETB{t}"),
            "LATCHX1",
            [("D", xr), ("EN", clk), ("Q", d), ("VDD", vdd), ("VSS", vss)],
        )
        .expect("static construction");
        m.add_leaf(
            format!("TBI{t}"),
            "INVX2",
            [("A", d), ("Y", db), ("VDD", vdd), ("VSS", vss)],
        )
        .expect("static construction");
    }
    m
}

/// Builds Table 2's `pd_VREFP` block: the thermometer DAC — one inverter
/// per code bit and side, supplied from the reference (§2.2.2, Fig. 8b;
/// "synthesize a DAC through proper instantiation").
pub fn pd_vrefp_module(stages: usize) -> Module {
    let mut m = Module::new("pd_VREFP");
    let vrefp = m.add_port("VREFP", PortDirection::Inout);
    let vrefn = m.add_port("VREFN", PortDirection::Inout);
    for t in 0..stages {
        let d = m.add_port(format!("T{t}"), PortDirection::Input);
        let db = m.add_port(format!("TB{t}"), PortDirection::Input);
        let dac_out = m.add_port(format!("DAC_OUT{t}"), PortDirection::Output);
        let dac_out_b = m.add_port(format!("DAC_OUT_B{t}"), PortDirection::Output);
        // Code bit high → DAC_OUT low (pulls VCTRLP down: negative
        // feedback) and DAC_OUT_B high (pulls VCTRLN up).
        m.add_leaf(
            format!("DACP{t}"),
            "INVX2",
            [("A", d), ("Y", dac_out), ("VDD", vrefp), ("VSS", vrefn)],
        )
        .expect("static construction");
        m.add_leaf(
            format!("DACN{t}"),
            "INVX2",
            [("A", db), ("Y", dac_out_b), ("VDD", vrefp), ("VSS", vrefn)],
        )
        .expect("static construction");
    }
    m
}

/// Builds a `res_cell`: [`FRAGMENTS_PER_RESISTOR`] identical fragments in
/// series. `fragment` is `"RESLO"` (1 kΩ input resistor) or `"RESHI"`
/// (11 kΩ DAC resistor).
///
/// # Panics
///
/// Panics if `fragment` is not a resistor cell name.
pub(crate) fn resistor_module(name: &str, fragment: &str) -> Module {
    assert!(
        fragment == "RESLO" || fragment == "RESHI",
        "fragment must be RESLO or RESHI"
    );
    let mut m = Module::new(name);
    let t1 = m.add_port("T1", PortDirection::Inout);
    let t2 = m.add_port("T2", PortDirection::Inout);
    let mut prev = t1;
    for i in 0..FRAGMENTS_PER_RESISTOR {
        let next = if i == FRAGMENTS_PER_RESISTOR - 1 {
            t2
        } else {
            m.add_net(format!("M{i}"))
        };
        m.add_leaf(format!("F{i}"), fragment, [("T1", prev), ("T2", next)])
            .expect("static construction");
        prev = next;
    }
    m
}

/// Builds a full adder from standard cells: `SUM = A ⊕ B ⊕ CIN`,
/// `COUT = AB + CIN·(A ⊕ B)` — two XOR2 and three NAND2 gates.
pub(crate) fn full_adder_module() -> Module {
    let mut m = Module::new("full_adder");
    let a = m.add_port("A", PortDirection::Input);
    let b = m.add_port("B", PortDirection::Input);
    let cin = m.add_port("CIN", PortDirection::Input);
    let sum = m.add_port("SUM", PortDirection::Output);
    let cout = m.add_port("COUT", PortDirection::Output);
    let vdd = m.add_port("VDD", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let axb = m.add_net("AXB");
    let n1 = m.add_net("N1");
    let n2 = m.add_net("N2");
    m.add_leaf(
        "X0",
        "XOR2X1",
        [("A", a), ("B", b), ("Y", axb), ("VDD", vdd), ("VSS", vss)],
    )
    .expect("static construction");
    m.add_leaf(
        "X1",
        "XOR2X1",
        [
            ("A", axb),
            ("B", cin),
            ("Y", sum),
            ("VDD", vdd),
            ("VSS", vss),
        ],
    )
    .expect("static construction");
    m.add_leaf(
        "D0",
        "NAND2X1",
        [("A", a), ("B", b), ("Y", n1), ("VDD", vdd), ("VSS", vss)],
    )
    .expect("static construction");
    m.add_leaf(
        "D1",
        "NAND2X1",
        [
            ("A", axb),
            ("B", cin),
            ("Y", n2),
            ("VDD", vdd),
            ("VSS", vss),
        ],
    )
    .expect("static construction");
    m.add_leaf(
        "D2",
        "NAND2X1",
        [
            ("A", n1),
            ("B", n2),
            ("Y", cout),
            ("VDD", vdd),
            ("VSS", vss),
        ],
    )
    .expect("static construction");
    m
}

/// Builds a half adder: `SUM = A ⊕ B`, `COUT = A·B` (XOR2 + NAND2 + INV).
pub(crate) fn half_adder_module() -> Module {
    let mut m = Module::new("half_adder");
    let a = m.add_port("A", PortDirection::Input);
    let b = m.add_port("B", PortDirection::Input);
    let sum = m.add_port("SUM", PortDirection::Output);
    let cout = m.add_port("COUT", PortDirection::Output);
    let vdd = m.add_port("VDD", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let nn = m.add_net("NN");
    m.add_leaf(
        "X0",
        "XOR2X1",
        [("A", a), ("B", b), ("Y", sum), ("VDD", vdd), ("VSS", vss)],
    )
    .expect("static construction");
    m.add_leaf(
        "D0",
        "NAND2X1",
        [("A", a), ("B", b), ("Y", nn), ("VDD", vdd), ("VSS", vss)],
    )
    .expect("static construction");
    m.add_leaf(
        "I0",
        "INVX1",
        [("A", nn), ("Y", cout), ("VDD", vdd), ("VSS", vss)],
    )
    .expect("static construction");
    m
}

/// Number of binary output bits of a ones counter over `n` inputs.
pub(crate) fn ones_counter_width(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

/// Builds a ones counter: `SUM[..] = popcount(IN0..IN{n-1})`, as a
/// carry-save compressor tree of full/half adders — the thermometer-to-
/// binary back end that turns the slices' tap bits into the ADC's binary
/// output word, still nothing but standard cells.
///
/// # Panics
///
/// Panics if `n < 2`.
pub(crate) fn ones_counter_module(n: usize) -> Module {
    assert!(n >= 2, "a ones counter needs at least 2 inputs");
    let width = ones_counter_width(n);
    let mut m = Module::new("ones_counter");
    let vdd = m.add_port("VDD", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    let inputs: Vec<NetId> = (0..n)
        .map(|i| m.add_port(format!("IN{i}"), PortDirection::Input))
        .collect();
    let outputs: Vec<NetId> = (0..width)
        .map(|w| m.add_port(format!("SUM{w}"), PortDirection::Output))
        .collect();

    // Wallace-style carry-save reduction: per weight, compress the
    // column layer by layer (3→2 with FAs, a trailing pair with an HA),
    // so the logic depth is O(log n) rather than a ripple chain.
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); width + 1];
    columns[0] = inputs;
    let mut uid = 0usize;
    for w in 0..width {
        while columns[w].len() > 1 {
            let layer: Vec<NetId> = std::mem::take(&mut columns[w]);
            let mut next: Vec<NetId> = Vec::new();
            let mut chunks = layer.chunks_exact(3);
            for chunk in chunks.by_ref() {
                let sum = m.add_net(format!("S{uid}"));
                let cout = m.add_net(format!("C{uid}"));
                m.add_submodule(
                    format!("FA{uid}"),
                    "full_adder",
                    [
                        ("A", chunk[0]),
                        ("B", chunk[1]),
                        ("CIN", chunk[2]),
                        ("SUM", sum),
                        ("COUT", cout),
                        ("VDD", vdd),
                        ("VSS", vss),
                    ],
                )
                .expect("static construction");
                next.push(sum);
                columns[w + 1].push(cout);
                uid += 1;
            }
            match chunks.remainder() {
                [a, b] => {
                    let sum = m.add_net(format!("S{uid}"));
                    let cout = m.add_net(format!("C{uid}"));
                    m.add_submodule(
                        format!("HA{uid}"),
                        "half_adder",
                        [
                            ("A", *a),
                            ("B", *b),
                            ("SUM", sum),
                            ("COUT", cout),
                            ("VDD", vdd),
                            ("VSS", vss),
                        ],
                    )
                    .expect("static construction");
                    next.push(sum);
                    columns[w + 1].push(cout);
                    uid += 1;
                }
                [a] => next.push(*a),
                _ => {}
            }
            columns[w] = next;
        }
        // One bit remains: buffer it onto the output port.
        if let Some(bit) = columns[w].pop() {
            m.add_leaf(
                format!("OB{w}"),
                "BUFX2",
                [("A", bit), ("Y", outputs[w]), ("VDD", vdd), ("VSS", vss)],
            )
            .expect("static construction");
        }
    }
    // The reduction keeps Σ 2^w·(ones in column w) = popcount ≤ n <
    // 2^width, so a carry that lands in column `width` (for n = 14, 15,
    // 28–31, …) is constant zero and is left unconnected.
    m
}

/// Builds Table 2's `ADC_slice`: two ring VCOs (each `vco_stages` chained
/// Fig.-5 stages closing the ring), one buffer per ring tap, the `pd_VDD`
/// quantizer block, the `pd_VREFP` thermometer DAC with its resistors, and
/// the slice's own input resistors into its private control nodes.
pub(crate) fn slice_module(stages: usize) -> Module {
    let mut m = Module::new("ADC_slice");
    let clk = m.add_port("CLK", PortDirection::Input);
    let vinp = m.add_port("VINP", PortDirection::Input);
    let vinn = m.add_port("VINN", PortDirection::Input);
    let d_ports: Vec<NetId> = (0..stages)
        .map(|t| m.add_port(format!("D{t}"), PortDirection::Output))
        .collect();
    let vbuf = m.add_port("VBUF", PortDirection::Inout);
    let vdd = m.add_port("VDD", PortDirection::Inout);
    let vrefp = m.add_port("VREFP", PortDirection::Inout);
    let vss = m.add_port("VSS", PortDirection::Inout);
    // Each slice owns its control nodes (its private first-order loop).
    let vctrlp = m.add_net("VCTRLP");
    let vctrln = m.add_net("VCTRLN");
    m.add_submodule("RIN_P", "res_in", [("T1", vinp), ("T2", vctrlp)])
        .expect("static construction");
    m.add_submodule("RIN_N", "res_in", [("T1", vinn), ("T2", vctrln)])
        .expect("static construction");

    // Two rings: VCO1 on VCTRLP, VCO2 on VCTRLN; every stage output pair
    // is a quantizer tap.
    let mut ring_taps: Vec<Vec<(NetId, NetId)>> = Vec::new();
    for (ring, vctrl) in [("V1", vctrlp), ("V2", vctrln)] {
        let taps: Vec<(NetId, NetId)> = (0..stages)
            .map(|sx| {
                let op = m.add_net(format!("{ring}_OP{sx}"));
                let on = m.add_net(format!("{ring}_ON{sx}"));
                (op, on)
            })
            .collect();
        for sx in 0..stages {
            // Input of stage s is the output of stage s-1; the ring closes
            // with a polarity twist (differential ring oscillator).
            let (ip, inn) = if sx == 0 {
                let (last_op, last_on) = taps[stages - 1];
                (last_on, last_op) // twist
            } else {
                taps[sx - 1]
            };
            let (op, on) = taps[sx];
            m.add_submodule(
                format!("{ring}S{sx}"),
                "VCO_cell",
                [
                    ("ON", on),
                    ("OP", op),
                    ("VCTRL", vctrl),
                    ("VSS", vss),
                    ("IN", inn),
                    ("IP", ip),
                ],
            )
            .expect("static construction");
        }
        ring_taps.push(taps);
    }

    // One buffer per tap (powered from VBUF) and the quantizer block.
    let mut dig_conns: Vec<(String, NetId)> = vec![
        ("CLK".to_string(), clk),
        ("VDD".to_string(), vdd),
        ("VSS".to_string(), vss),
    ];
    for t in 0..stages {
        let (p_op, p_on) = ring_taps[0][t];
        let (n_op, n_on) = ring_taps[1][t];
        let bop = m.add_net(format!("BOP{t}"));
        let bon = m.add_net(format!("BON{t}"));
        let bop2 = m.add_net(format!("BOP2_{t}"));
        let bon2 = m.add_net(format!("BON2_{t}"));
        m.add_submodule(
            format!("BP{t}"),
            "buf_cell",
            [
                ("BIN", p_on),
                ("BIP", p_op),
                ("BON", bon),
                ("BOP", bop),
                ("VCTRL", vbuf),
                ("VSS", vss),
            ],
        )
        .expect("static construction");
        m.add_submodule(
            format!("BN{t}"),
            "buf_cell",
            [
                ("BIN", n_on),
                ("BIP", n_op),
                ("BON", bon2),
                ("BOP", bop2),
                ("VCTRL", vbuf),
                ("VSS", vss),
            ],
        )
        .expect("static construction");
        dig_conns.push((format!("BOP{t}"), bop));
        dig_conns.push((format!("BON{t}"), bon));
        dig_conns.push((format!("BOP2_{t}"), bop2));
        dig_conns.push((format!("BON2_{t}"), bon2));
        dig_conns.push((format!("T{t}"), d_ports[t]));
    }
    let mut dac_conns: Vec<(String, NetId)> =
        vec![("VREFP".to_string(), vrefp), ("VREFN".to_string(), vss)];
    for (t, &d_port) in d_ports.iter().enumerate() {
        let db = m.add_net(format!("TB{t}"));
        dig_conns.push((format!("TB{t}"), db));
        let dac_out = m.add_net(format!("DAC_OUT{t}"));
        let dac_out_b = m.add_net(format!("DAC_OUT_B{t}"));
        dac_conns.push((format!("T{t}"), d_port));
        dac_conns.push((format!("TB{t}"), db));
        dac_conns.push((format!("DAC_OUT{t}"), dac_out));
        dac_conns.push((format!("DAC_OUT_B{t}"), dac_out_b));
        // Two 11 kΩ resistor cells in series per branch: 22 kΩ.
        let mid_p = m.add_net(format!("RDM_P{t}"));
        let mid_n = m.add_net(format!("RDM_N{t}"));
        m.add_submodule(
            format!("RD_P{t}A"),
            "res_dac",
            [("T1", dac_out), ("T2", mid_p)],
        )
        .expect("static construction");
        m.add_submodule(
            format!("RD_P{t}B"),
            "res_dac",
            [("T1", mid_p), ("T2", vctrlp)],
        )
        .expect("static construction");
        m.add_submodule(
            format!("RD_N{t}A"),
            "res_dac",
            [("T1", dac_out_b), ("T2", mid_n)],
        )
        .expect("static construction");
        m.add_submodule(
            format!("RD_N{t}B"),
            "res_dac",
            [("T1", mid_n), ("T2", vctrln)],
        )
        .expect("static construction");
    }
    m.add_submodule(
        "DIG0",
        "pd_VDD",
        dig_conns.iter().map(|(p, n)| (p.as_str(), *n)),
    )
    .expect("static construction");
    m.add_submodule(
        "DAC",
        "pd_VREFP",
        dac_conns.iter().map(|(p, n)| (p.as_str(), *n)),
    )
    .expect("static construction");
    m
}

/// Generates the complete ADC design: all library blocks, input resistors,
/// `n_slices` slices sharing the control/buffer nodes, a clock buffer
/// tree, and the top-level ports. Takes an [`AdcStructure`] or anything
/// that converts to one, such as `&AdcSpec`.
///
/// # Errors
///
/// Propagates netlist construction errors (cannot occur for a validated
/// spec; kept fallible for forward compatibility).
pub fn generate(structure: impl Into<AdcStructure>) -> Result<Design, CoreError> {
    let s: AdcStructure = structure.into();
    let mut top = Module::new("adc_top");
    let clk = top.add_port("CLK", PortDirection::Input);
    let vinp = top.add_port("VINP", PortDirection::Input);
    let vinn = top.add_port("VINN", PortDirection::Input);
    let vdd = top.add_port("VDD", PortDirection::Inout);
    let vbuf = top.add_port("VBUF", PortDirection::Inout);
    let vrefp = top.add_port("VREFP", PortDirection::Inout);
    let vss = top.add_port("VSS", PortDirection::Inout);
    let d_ports: Vec<Vec<NetId>> = (0..s.n_slices)
        .map(|i| {
            (0..s.vco_stages)
                .map(|t| top.add_port(format!("D{i}_{t}"), PortDirection::Output))
                .collect()
        })
        .collect();

    // Clock tree: a three-buffer spine on VDD.
    let mut clk_net = clk;
    for i in 0..3 {
        let next = top.add_net(format!("CLK_B{i}"));
        top.add_leaf(
            format!("CKBUF{i}"),
            "BUFX4",
            [("A", clk_net), ("Y", next), ("VDD", vdd), ("VSS", vss)],
        )?;
        clk_net = next;
    }

    for (i, d_slice) in d_ports.iter().enumerate() {
        let mut conns: Vec<(String, NetId)> = vec![
            ("CLK".to_string(), clk_net),
            ("VINP".to_string(), vinp),
            ("VINN".to_string(), vinn),
            ("VBUF".to_string(), vbuf),
            ("VDD".to_string(), vdd),
            ("VREFP".to_string(), vrefp),
            ("VSS".to_string(), vss),
        ];
        for (t, &d) in d_slice.iter().enumerate() {
            conns.push((format!("D{t}"), d));
        }
        top.add_submodule(
            format!("S{i}"),
            "ADC_slice",
            conns.iter().map(|(p, n)| (p.as_str(), *n)),
        )?;
    }

    // Optional on-chip thermometer-to-binary back end: a ones counter over
    // every slice tap bit, registered at the clock — the ADC's binary
    // output word SUM[width-1:0].
    if s.include_output_adder {
        let n_bits = s.n_slices * s.vco_stages;
        let width = ones_counter_width(n_bits);
        let mut conns: Vec<(String, NetId)> =
            vec![("VDD".to_string(), vdd), ("VSS".to_string(), vss)];
        for (i, d_slice) in d_ports.iter().enumerate() {
            for (t, &d) in d_slice.iter().enumerate() {
                conns.push((format!("IN{}", i * s.vco_stages + t), d));
            }
        }
        let raw_sums: Vec<NetId> = (0..width)
            .map(|w| top.add_net(format!("RAW_SUM{w}")))
            .collect();
        for (w, &raw) in raw_sums.iter().enumerate() {
            conns.push((format!("SUM{w}"), raw));
        }
        top.add_submodule(
            "CNT0",
            "ones_counter",
            conns.iter().map(|(p, n)| (p.as_str(), *n)),
        )?;
        for (w, &raw) in raw_sums.iter().enumerate() {
            let q = top.add_port(format!("SUM{w}"), PortDirection::Output);
            top.add_leaf(
                format!("OREG{w}"),
                "DFFX1",
                [
                    ("D", raw),
                    ("CK", clk_net),
                    ("Q", q),
                    ("VDD", vdd),
                    ("VSS", vss),
                ],
            )?;
        }
    }

    let mut modules = vec![
        comparator_module(),
        vco_stage_module(),
        buffer_module(),
        pd_vdd_module(s.vco_stages),
        pd_vrefp_module(s.vco_stages),
        resistor_module("res_in", "RESLO"),
        resistor_module("res_dac", "RESHI"),
        slice_module(s.vco_stages),
    ];
    if s.include_output_adder {
        modules.push(full_adder_module());
        modules.push(half_adder_module());
        modules.push(ones_counter_module(s.n_slices * s.vco_stages));
    }
    modules.push(top);
    let design = Design::with_modules(modules, "adc_top")?;
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tdsigma_netlist::{lint_flat, verilog, PowerPlan};

    fn spec() -> AdcSpec {
        AdcSpec::paper_40nm().unwrap()
    }

    #[test]
    fn comparator_matches_table1_structure() {
        let m = comparator_module();
        let cells: Vec<&str> = m.instances().iter().filter_map(|i| i.leaf_cell()).collect();
        assert_eq!(cells, vec!["NOR3X4", "NOR3X4", "NOR2X1", "NOR2X1"]);
        // Verilog text contains the exact Table 1 instantiation style.
        let d = Design::new(m).unwrap();
        let v = verilog::write_design(&d).unwrap();
        assert!(v.contains("NOR3X4 I0"));
        assert!(v.contains(".C(CLK)"));
    }

    #[test]
    fn vco_stage_is_four_inverters_on_vctrl() {
        let m = vco_stage_module();
        assert_eq!(m.instances().len(), 4);
        for inst in m.instances() {
            assert_eq!(inst.leaf_cell(), Some("INVX1"));
            // Power pin bonded to the control node — the integrator trick.
            assert_eq!(m.net_name(inst.connections["VDD"]), "VCTRL");
        }
    }

    #[test]
    fn resistor_cells_are_fragment_chains() {
        let m = resistor_module("res_dac", "RESHI");
        assert_eq!(m.instances().len(), FRAGMENTS_PER_RESISTOR);
        // Series chain: every internal net appears exactly twice.
        let d = Design::new(m).unwrap();
        let flat = d.flatten();
        for net in ["M0", "M1", "M2"] {
            assert_eq!(flat.cells_on_net(net).count(), 2, "net {net}");
        }
    }

    #[test]
    fn full_design_flattens_to_expected_size() {
        let design = generate(&spec()).unwrap();
        let flat = design.flatten();
        // Per slice: 2 rings × 4 stages × 4 inv = 32; 8 buffers × 4 = 32;
        // pd_VDD = 4 taps × (2 comparators·4 + XOR + 2 latches + TB inv)
        // + clk inv = 49; DAC = 8 inverters; DAC resistors = 16 cells × 4
        // fragments = 64; input resistors = 8 → 193. Top: 3 clock buffers
        // plus the ones counter and its 6 output registers.
        let adder_cells = Design::with_modules(
            [
                full_adder_module(),
                half_adder_module(),
                ones_counter_module(32),
            ],
            "ones_counter",
        )
        .unwrap()
        .flatten()
        .len();
        let expected = 8 * 193 + 3 + adder_cells + 6;
        assert_eq!(flat.len(), expected, "got {}", flat.len());
        // The compressor tree itself: 32 inputs cost ~5 gates per FA.
        assert!(
            adder_cells > 100,
            "adder tree is substantial: {adder_cells}"
        );
    }

    #[test]
    fn netlist_is_lint_clean() {
        let design = generate(&spec()).unwrap();
        let flat = design.flatten();
        let externals: BTreeSet<String> = design
            .top()
            .ports()
            .iter()
            .map(|p| p.name.clone())
            .collect();
        let report = lint_flat(&flat, &externals).unwrap();
        assert!(!report.has_errors(), "{report}");
        // All findings are warnings: the intentional cross-coupled
        // contention inside the VCO/buffer cells (16 VCO nets + 16 buffer
        // nets per slice). Nothing dangles — even the comparator's
        // complementary output is read back by the SR latch.
        assert_eq!(report.warnings().len(), report.violations.len());
        assert_eq!(report.violations.len(), 32 * 8, "cross-coupled nets only");
    }

    #[test]
    fn power_plan_matches_fig12() {
        let design = generate(&spec()).unwrap();
        let flat = design.flatten();
        let plan = PowerPlan::infer(&flat).unwrap();
        let names: Vec<&str> = plan.regions().iter().map(|r| r.name.as_str()).collect();
        // Fig. 12's decomposition, with per-slice control-node domains
        // (the paper notes a PD "may be further partitioned into smaller
        // PDs"; conversely our per-slice nets are the finest partition).
        for expected in [
            "PD_VDD",
            "PD_VREFP",
            "PD_VBUF",
            "GROUP_RESLO",
            "GROUP_RESHI",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert!(names.contains(&"PD_S0_VCTRLP"), "{names:?}");
        assert!(names.contains(&"PD_S7_VCTRLN"), "{names:?}");
        // 3 shared domains + 2 control domains per slice.
        assert_eq!(plan.domain_count(), 3 + 2 * 8);
        assert_eq!(plan.group_count(), 2);
        plan.validate(&flat).unwrap();
    }

    #[test]
    fn verilog_roundtrip_of_full_adc() {
        let design = generate(&spec()).unwrap();
        let text = verilog::write_design(&design).unwrap();
        assert!(text.contains("module ADC_slice"));
        assert!(text.contains("module adc_top"));
        let back = verilog::read_design(&text).unwrap();
        assert_eq!(back.top_name(), "adc_top");
        assert_eq!(back.flatten().len(), design.flatten().len());
        // Canonical: writing again reproduces the text.
        assert_eq!(verilog::write_design(&back).unwrap(), text);
    }

    #[test]
    fn slice_count_scales_netlist() {
        let s4 = spec().with_slices(4).unwrap();
        let s16 = spec().with_slices(16).unwrap();
        let n4 = generate(&s4).unwrap().flatten().len();
        let n16 = generate(&s16).unwrap().flatten().len();
        // Slices add 193 cells each plus the growth of the ones counter.
        let adder = |slices: usize| {
            Design::with_modules(
                [
                    full_adder_module(),
                    half_adder_module(),
                    ones_counter_module(slices * 4),
                ],
                "ones_counter",
            )
            .unwrap()
            .flatten()
            .len()
        };
        let regs = |slices: usize| ones_counter_width(slices * 4);
        assert_eq!(
            n16 - n4,
            12 * 193 + (adder(16) - adder(4)) + (regs(16) - regs(4)),
            "slice scaling plus back-end growth"
        );
    }

    #[test]
    fn full_adder_truth_table_at_gate_level() {
        use tdsigma_netlist::GateSimulator;
        let d = Design::new(full_adder_module()).unwrap();
        let mut sim = GateSimulator::new(&d.flatten()).unwrap();
        for bits in 0..8u8 {
            let (a, b, c) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            sim.drive("A", a);
            sim.drive("B", b);
            sim.drive("CIN", c);
            let total = a as u8 + b as u8 + c as u8;
            assert_eq!(
                sim.value("SUM").to_bool(),
                Some(total & 1 != 0),
                "sum of {bits:03b}"
            );
            assert_eq!(
                sim.value("COUT").to_bool(),
                Some(total >= 2),
                "carry of {bits:03b}"
            );
        }
    }

    #[test]
    fn ones_counter_is_exhaustively_correct() {
        use tdsigma_netlist::{Design, GateSimulator};
        // 14 and 15 leave a constant-zero carry beyond the output width.
        for n in [2usize, 3, 5, 8, 14, 15] {
            let design = Design::with_modules(
                [
                    full_adder_module(),
                    half_adder_module(),
                    ones_counter_module(n),
                ],
                "ones_counter",
            )
            .unwrap();
            let mut sim = GateSimulator::new(&design.flatten()).unwrap();
            let width = ones_counter_width(n);
            for pattern in 0..(1u32 << n) {
                for i in 0..n {
                    sim.drive(&format!("IN{i}"), pattern & (1 << i) != 0);
                }
                let mut got = 0u32;
                for w in 0..width {
                    if sim.value(&format!("SUM{w}")).to_bool().unwrap_or(false) {
                        got |= 1 << w;
                    }
                }
                assert_eq!(
                    got,
                    pattern.count_ones(),
                    "n={n} pattern {pattern:b}: got {got}"
                );
            }
        }
    }

    #[test]
    fn ones_counter_width_formula() {
        assert_eq!(ones_counter_width(2), 2);
        assert_eq!(ones_counter_width(3), 2);
        assert_eq!(ones_counter_width(4), 3);
        assert_eq!(ones_counter_width(31), 5);
        assert_eq!(ones_counter_width(32), 6);
    }

    #[test]
    #[should_panic(expected = "RESLO or RESHI")]
    fn resistor_module_rejects_logic_cells() {
        let _ = resistor_module("bad", "INVX1");
    }
}
