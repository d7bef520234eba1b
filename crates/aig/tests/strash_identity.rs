//! Pins the graphs that the AIG round trip builds: `aig::to_mig` of
//! `aig::from_mig` for a few generated circuits, as `Mig::fingerprint`
//! values. The strash only deduplicates gates and nothing iterates it, so
//! its hasher must not move a node; these values were recorded with the
//! standard library's SipHash map before the strash moved to
//! `mig::fxhash::FxHashMap`.

use mig::Mig;

fn round_trip(m: &Mig) -> u64 {
    aig::to_mig(&aig::from_mig(m)).fingerprint()
}

#[test]
fn round_trip_keeps_its_recorded_graphs() {
    let cases: [(&str, Mig, u64); 5] = [
        ("mult:6", benchgen::multiplier(6), 0x4105_d024_de46_edfc),
        ("hyp:6", benchgen::hypotenuse(6), 0x2856_97cc_df6d_9580),
        (
            "ctrl:8:4:40:5",
            benchgen::random_control(8, 4, 40, 5),
            0x0302_2b56_3a4d_1ac3,
        ),
        ("mult:8", benchgen::multiplier(8), 0xe1af_1d0c_ad32_10ab),
        ("hyp:8", benchgen::hypotenuse(8), 0xa3b8_01e5_d10e_00c8),
    ];
    for (name, m, want) in &cases {
        assert_eq!(round_trip(m), *want, "{name}: 0x{:016x}", round_trip(m));
    }
}
