//! I/O throughput micro-benchmarks: binary/ASCII AIGER parsing, MIG
//! conversion, and BLIF reading and writing on a generated 64-bit adder,
//! plus BLIF reading, writing and the text-free rebuild
//! (`io::blif::round_trip`) of a `migd`-job-sized control circuit, so
//! interchange regressions show up in `BENCH_io.json`.
//!
//! Run with `cargo bench -p bench_harness --bench io_throughput`.

use bench_harness::microbench::{bench, bench_round_robin, write_json};
use io::aiger::Aiger;
use io::blif::Blif;
use std::hint::black_box;

fn main() {
    let adder = benchgen::adder(64);
    let doc = Aiger::from_mig(&adder);
    let ascii = doc.to_ascii();
    let binary = doc.to_binary().expect("canonical document");
    let blif_text = Blif::from_mig(&adder, "adder64").to_text();
    println!(
        "adder64: {} AND gates, {} bytes binary, {} bytes ascii, {} bytes blif",
        doc.num_ands(),
        binary.len(),
        ascii.len(),
        blif_text.len()
    );
    // `ctrl:8:16:15:3` AND-expanded, as the `migd` service pool holds
    // it: the graph the BLIF rows read back, write and rebuild.
    let ctrl = aig::to_mig(&aig::from_mig(&benchgen::random_control(8, 16, 15, 3)));
    let ctrl_text = Blif::from_mig(&ctrl, "ctrl").to_text();
    println!(
        "ctrl1k: {} gates, {} bytes blif\n",
        ctrl.num_gates(),
        ctrl_text.len()
    );

    let mut ms = Vec::new();
    ms.push(bench("io/parse_binary_adder64", || {
        Aiger::parse_binary(black_box(&binary)).unwrap().num_ands()
    }));
    ms.push(bench("io/parse_ascii_adder64", || {
        Aiger::parse_ascii(black_box(&ascii)).unwrap().num_ands()
    }));
    ms.push(bench("io/binary_to_mig_adder64", || {
        Aiger::parse_binary(black_box(&binary))
            .unwrap()
            .to_mig()
            .unwrap()
            .num_gates()
    }));
    ms.push(bench("io/write_binary_adder64", || {
        black_box(&doc).to_binary().unwrap().len()
    }));
    ms.push(bench("io/parse_blif_adder64", || {
        Blif::parse(black_box(&blif_text)).unwrap().num_tables()
    }));
    ms.push(bench("io/blif_to_mig_adder64", || {
        Blif::parse(black_box(&blif_text))
            .unwrap()
            .to_mig()
            .unwrap()
            .num_gates()
    }));
    ms.push(bench("io/write_blif_adder64", || {
        Blif::from_mig(black_box(&adder), "adder64").to_text().len()
    }));
    ms.push(bench("io/mig_to_aiger_adder64", || {
        Aiger::from_mig(black_box(&adder)).num_ands()
    }));
    // `ci.sh` holds the read and write rows to small multiples of the
    // rebuild row: all three build or walk the same graph, so the ratios
    // are what the text costs. Timed round-robin, so host speed swings
    // hit the three rows alike.
    ms.extend(bench_round_robin(&mut [
        ("io/read_blif_ctrl1k", &mut || {
            Blif::parse(black_box(&ctrl_text))
                .unwrap()
                .to_mig()
                .unwrap()
                .num_gates()
        }),
        ("io/write_blif_ctrl1k", &mut || {
            Blif::from_mig(black_box(&ctrl), "ctrl").to_text().len()
        }),
        ("io/rebuild_ctrl1k", &mut || {
            io::blif::round_trip(black_box(&ctrl)).num_gates()
        }),
    ]));

    write_json("io", &ms);
}
