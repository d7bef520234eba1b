//! Hostile-input regression: seeded byte mutations of the checked-in
//! `benchmarks/` files go through every parser and converter, which must
//! return an error or a circuit and never panic.

mod common;

use io::aiger::Aiger;
use io::blif::Blif;
use std::collections::HashMap;

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
    let mut converted: HashMap<String, usize> = HashMap::new();
    common::for_each_mutant(
        |name, case, bytes| match std::panic::catch_unwind(|| feed(bytes)) {
            Ok(n) => *converted.entry(name.to_string()).or_default() += n,
            Err(_) => panic!(
                "{name} mutant {case} panicked: {:?}",
                String::from_utf8_lossy(bytes)
            ),
        },
    );
    // Some mutants still convert, so the edits reach past the header.
    for name in common::FILES {
        let n = converted.get(name).copied().unwrap_or(0);
        assert!(n > 0, "{name}: no mutant converted");
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
