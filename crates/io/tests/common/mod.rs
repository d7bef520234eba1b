//! The hostile-input corpus shared by the integration tests: the
//! checked-in `benchmarks/` files and seeded byte mutants of them.

use std::path::PathBuf;
use testrand::Rng;

/// The checked-in circuits the mutants are drawn from.
pub const FILES: [&str; 4] = ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"];
/// Mutants drawn from each file.
pub const MUTANTS: usize = 1_000;
/// Bytes that mean something to one of the formats, so mutations reach
/// past the first token more often than uniform bytes do.
const SYNTAX: &[u8] = b"0123456789 \t\r\n-.#aigcolnmdsx\\";

/// The bytes of `benchmarks/<name>`.
pub fn read(name: &str) -> Vec<u8> {
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

/// Calls `f(file, case, bytes)` for every mutant, file by file, in the
/// same seeded order on every call.
pub fn for_each_mutant(mut f: impl FnMut(&str, usize, &[u8])) {
    let mut rng = Rng::new(0xF022_10AD);
    for name in FILES {
        let original = read(name);
        for case in 0..MUTANTS {
            f(name, case, &rng.mutate(&original, random_byte));
        }
    }
}
