//! Regenerates the checked-in `benchmarks/` circuits from the workspace
//! generators. Run from the repository root:
//!
//! ```text
//! cargo run --example gen_benchmarks
//! ```
//!
//! `benchmarks/full_adder.aag` is hand-written (it is the canonical tiny
//! example) and is *not* overwritten here.

use mig_fh::io::{aiger::Aiger, blif::Blif};

fn main() {
    std::fs::create_dir_all("benchmarks").expect("create benchmarks/");

    // 8-bit ripple-carry adder, ASCII AIGER (XOR-heavy: plenty of slack
    // for functional hashing to recover after naive AND-based ingestion).
    let adder = mig_fh::benchgen::adder(8);
    let doc = Aiger::from_mig(&adder);
    std::fs::write("benchmarks/adder8.aag", doc.to_ascii()).expect("write adder8.aag");
    println!(
        "benchmarks/adder8.aag    {} inputs, {} outputs, {} ANDs",
        doc.num_inputs(),
        doc.num_outputs(),
        doc.num_ands()
    );

    // 4-bit multiplier, binary AIGER.
    let mult = mig_fh::benchgen::multiplier(4);
    let doc = Aiger::from_mig(&mult);
    let bytes = doc.to_binary().expect("canonical document");
    std::fs::write("benchmarks/mult4.aig", bytes).expect("write mult4.aig");
    println!(
        "benchmarks/mult4.aig     {} inputs, {} outputs, {} ANDs",
        doc.num_inputs(),
        doc.num_outputs(),
        doc.num_ands()
    );

    // 4-bit adder in BLIF (majority covers preserved).
    let adder4 = mig_fh::benchgen::adder(4);
    let blif = Blif::from_mig(&adder4, "adder4");
    std::fs::write("benchmarks/adder4.blif", blif.to_text()).expect("write adder4.blif");
    println!(
        "benchmarks/adder4.blif   {} inputs, {} outputs, {} tables",
        blif.inputs().count(),
        blif.outputs().count(),
        blif.num_tables()
    );
}
