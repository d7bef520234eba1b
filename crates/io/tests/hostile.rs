//! Hostile-input regression: seeded byte mutations of the checked-in
//! `benchmarks/` files go through every parser and converter, which must
//! return an error or a circuit and never panic.

use io::aiger::Aiger;
use io::blif::Blif;
use std::path::PathBuf;
use testrand::Rng;

const FILES: [&str; 4] = ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"];
/// Mutants drawn from each file.
const MUTANTS: usize = 1_000;
/// Bytes that mean something to one of the formats, so mutations reach
/// past the first token more often than uniform bytes do.
const SYNTAX: &[u8] = b"0123456789 \t\r\n-.#aigcolnmdsx\\";

fn read(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../benchmarks")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn random_byte(rng: &mut Rng) -> u8 {
    if rng.bool() {
        SYNTAX[rng.usize_below(SYNTAX.len())]
    } else {
        rng.next_u64() as u8
    }
}

/// Runs every parser on `bytes` and converts what parses; returns how
/// many conversions gave a circuit.
fn feed(bytes: &[u8]) -> usize {
    let text = String::from_utf8_lossy(bytes);
    let converted = [
        Aiger::parse_ascii(&text).and_then(|doc| doc.to_mig()),
        Aiger::parse_binary(bytes).and_then(|doc| doc.to_mig()),
        Blif::parse(&text).and_then(|doc| doc.to_mig()),
    ];
    converted.iter().filter(|r| r.is_ok()).count()
}

#[test]
fn mutated_benchmark_files_never_panic() {
    let mut rng = Rng::new(0xF022_10AD);
    for name in FILES {
        let original = read(name);
        let mut converted = 0;
        for case in 0..MUTANTS {
            let bytes = rng.mutate(&original, random_byte);
            match std::panic::catch_unwind(|| feed(&bytes)) {
                Ok(n) => converted += n,
                Err(_) => panic!(
                    "{name} mutant {case} panicked: {:?}",
                    String::from_utf8_lossy(&bytes)
                ),
            }
        }
        // Some mutants still convert, so the edits reach past the header.
        assert!(converted > 0, "{name}: no mutant converted");
    }
}

#[test]
fn oversized_headers_are_rejected() {
    for header in [
        "aag 2000000000 1 0 1 0\n2\n2\n",
        "aag 4294967295 4294967295 0 0 0\n",
        "aig 2000000000 1000000000 0 1 1000000000\n2\n",
    ] {
        assert!(Aiger::parse_ascii(header).is_err(), "{header:?}");
        assert!(
            Aiger::parse_binary(header.as_bytes()).is_err(),
            "{header:?}"
        );
    }
}
