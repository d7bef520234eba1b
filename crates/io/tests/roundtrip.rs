//! Round-trip properties over random and generated circuits, for all
//! three formats:
//!
//! * write → parse → write is a **fixed point** (the second write is
//!   byte-identical to the first);
//! * write → parse → convert is **CEC-equivalent** to the original
//!   circuit (SAT-proved on the small instances, random-sim on larger);
//! * `blif::round_trip` builds exactly the graph the BLIF text reads
//!   back as, and the result text the optimization service stores is a
//!   fixed point of parse → convert → write.

use io::aiger::Aiger;
use io::blif::Blif;
use mig::{Mig, Signal};
use std::path::PathBuf;
use testrand::Rng;

/// A random MIG in the style of the workspace's property tests.
fn random_mig(rng: &mut Rng) -> Mig {
    let num_inputs = rng.range(1, 7);
    let num_steps = rng.range(1, 40);
    let mut m = Mig::new(num_inputs);
    let mut sigs: Vec<Signal> = vec![Signal::ZERO];
    for i in 0..num_inputs {
        sigs.push(m.input(i));
    }
    for _ in 0..num_steps {
        let a = sigs[rng.usize_below(sigs.len())].complement_if(rng.bool());
        let b = sigs[rng.usize_below(sigs.len())].complement_if(rng.bool());
        let c = sigs[rng.usize_below(sigs.len())].complement_if(rng.bool());
        let g = m.maj(a, b, c);
        sigs.push(g);
    }
    for k in 0..rng.range(1, 4) {
        let s = sigs[sigs.len() - 1 - (k % sigs.len())];
        m.add_output(s.complement_if(k % 2 == 1));
    }
    m
}

fn assert_equivalent(original: &Mig, back: &Mig, what: &str) {
    assert_eq!(back.num_inputs(), original.num_inputs(), "{what}: inputs");
    assert_eq!(
        back.num_outputs(),
        original.num_outputs(),
        "{what}: outputs"
    );
    assert!(
        cec::equivalent_random(original, back, 4, 0xDEAD),
        "{what}: random simulation mismatch"
    );
    assert_eq!(
        cec::prove_equivalent(original, back, Some(200_000)),
        cec::CecResult::Equivalent,
        "{what}: SAT proof failed"
    );
}

#[test]
fn random_circuits_roundtrip_all_formats() {
    let mut rng = Rng::new(0x10_CAFE);
    for case in 0..24 {
        let m = random_mig(&mut rng);

        // ASCII AIGER.
        let doc = Aiger::from_mig(&m);
        let text = doc.to_ascii();
        let parsed = Aiger::parse_ascii(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            parsed.to_ascii(),
            text,
            "case {case}: aag not a fixed point"
        );
        assert_equivalent(&m, &parsed.to_mig().unwrap(), &format!("case {case} aag"));

        // Binary AIGER.
        let bytes = doc
            .to_binary()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let parsed = Aiger::parse_binary(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            parsed.to_binary().unwrap(),
            bytes,
            "case {case}: aig not a fixed point"
        );
        assert_equivalent(&m, &parsed.to_mig().unwrap(), &format!("case {case} aig"));

        // BLIF.
        let blif = Blif::from_mig(&m, "rt");
        let text = blif.to_text();
        let parsed = Blif::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            parsed.to_text(),
            text,
            "case {case}: blif not a fixed point"
        );
        assert_equivalent(&m, &parsed.to_mig().unwrap(), &format!("case {case} blif"));
    }
}

#[test]
fn benchgen_circuits_roundtrip_all_formats() {
    // Real arithmetic structure (wide, multi-output), random-sim checked.
    for (name, m) in [
        ("adder8", benchgen::adder(8)),
        ("mult4", benchgen::multiplier(4)),
        ("square5", benchgen::square(5)),
        ("max4w3", benchgen::max4(3)),
    ] {
        let doc = Aiger::from_mig(&m);
        let text = doc.to_ascii();
        let parsed = Aiger::parse_ascii(&text).unwrap();
        assert_eq!(parsed.to_ascii(), text, "{name}: aag fixed point");
        let back = parsed.to_mig().unwrap();
        assert!(
            cec::equivalent_random(&m, &back, 8, 1),
            "{name}: aag equivalence"
        );

        let bytes = doc.to_binary().unwrap();
        let parsed = Aiger::parse_binary(&bytes).unwrap();
        assert_eq!(
            parsed.to_binary().unwrap(),
            bytes,
            "{name}: aig fixed point"
        );
        let back = parsed.to_mig().unwrap();
        assert!(
            cec::equivalent_random(&m, &back, 8, 2),
            "{name}: aig equivalence"
        );

        let blif = Blif::from_mig(&m, name);
        let text = blif.to_text();
        let parsed = Blif::parse(&text).unwrap();
        assert_eq!(parsed.to_text(), text, "{name}: blif fixed point");
        let back = parsed.to_mig().unwrap();
        assert!(
            cec::equivalent_random(&m, &back, 8, 3),
            "{name}: blif equivalence"
        );
    }
}

#[test]
fn ascii_and_binary_encode_the_same_document() {
    let mut rng = Rng::new(0x20_CAFE);
    for _ in 0..16 {
        let m = random_mig(&mut rng);
        let doc = Aiger::from_mig(&m);
        let via_ascii = Aiger::parse_ascii(&doc.to_ascii()).unwrap();
        let via_binary = Aiger::parse_binary(&doc.to_binary().unwrap()).unwrap();
        assert_eq!(via_ascii, via_binary);
    }
}

/// `m` written as BLIF and read back.
fn through_text(m: &Mig) -> Mig {
    Blif::parse(&Blif::from_mig(m, "rt").to_text())
        .unwrap()
        .to_mig()
        .unwrap()
}

/// Circuits as a daemon job sees them: the four checked-in benchmarks,
/// `mult:8..10`, `hyp:5..6` and three seeded `ctrl:8:16:15:*` graphs
/// (AND-expanded like the generated corpus), each read back from BLIF
/// the way a job request's circuit is.
fn job_inputs() -> Vec<(String, Mig)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let mut out: Vec<(String, Mig)> = ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"]
        .iter()
        .map(|f| (f.to_string(), io::read_mig_path(dir.join(f)).unwrap()))
        .collect();
    let and_expanded = |m: &Mig| aig::to_mig(&aig::from_mig(m));
    for w in 8..=10 {
        out.push((format!("mult:{w}"), and_expanded(&benchgen::multiplier(w))));
    }
    for w in 5..=6 {
        out.push((format!("hyp:{w}"), and_expanded(&benchgen::hypotenuse(w))));
    }
    for seed in [3, 11, 29] {
        let m = benchgen::random_control(8, 16, 15, seed);
        out.push((format!("ctrl:8:16:15:{seed}"), and_expanded(&m)));
    }
    out.into_iter()
        .map(|(name, m)| (name, through_text(&m)))
        .collect()
}

#[test]
fn round_trip_builds_the_graph_the_text_reads_back_as() {
    let mut rng = Rng::new(0x30_CAFE);
    let mut graphs: Vec<(String, Mig)> = (0..24)
        .map(|case| (format!("random {case}"), random_mig(&mut rng)))
        .collect();
    // Rewritten graphs carry history-dependent numbering: reused slots
    // and a slot order that is no longer topological.
    let passes = cli::parse_pipeline("fhash!:TFD").unwrap();
    for (name, m) in job_inputs() {
        let (rewritten, _) = cli::run_pipeline_jobs(&m, &passes, 1).unwrap();
        graphs.push((format!("{name} after fhash!:TFD"), rewritten));
        graphs.push((name, m));
    }
    let mut renumbered = 0;
    for (name, m) in &graphs {
        let direct = io::blif::round_trip(m);
        assert_eq!(
            direct.fingerprint(),
            through_text(m).fingerprint(),
            "{name}"
        );
        assert_eq!(
            Blif::from_mig(&direct, "rt").to_text(),
            Blif::from_mig(&through_text(m), "rt").to_text(),
            "{name}"
        );
        renumbered += usize::from(direct.fingerprint() != m.fingerprint());
    }
    assert!(renumbered >= 3, "only {renumbered} graphs were renumbered");
}

#[test]
fn stored_result_text_is_a_parse_write_fixed_point() {
    // Result-tier hits serve the stored text verbatim, so it must be
    // exactly what writing its own parse gives back.
    let fixed_point = |what: &str, text: &str| {
        let back = Blif::parse(text).unwrap().to_mig().unwrap();
        assert_eq!(
            Blif::from_mig(&back, "migopt").to_text(),
            text,
            "{what}: stored text is not a fixed point"
        );
    };
    let passes = cli::parse_pipeline("fhash!:TFD").unwrap();
    let service = cli::service::OptService::new(None);
    let mut rng = Rng::new(0x40_CAFE);
    let random = (0..16).map(|case| (format!("random {case}"), random_mig(&mut rng)));
    for (name, input) in job_inputs().into_iter().chain(random) {
        let job = service.run_job(&input, &passes, 1, None).unwrap();
        let text = job.circuit.expect("fhash!:TFD results are cached");
        fixed_point(&name, &text);
        assert!(
            cec::equivalent_random(&input, &job.result, 8, 5),
            "{name}: result differs from input"
        );
    }
}
