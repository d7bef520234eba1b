//! End-to-end tests of the `migopt` pipeline on the checked-in
//! `benchmarks/` circuits: the acceptance demo (read `.aag`, run
//! `strash; fhash:T; cec`, write `.blif`) plus binary-level exit-code
//! checks.

use cli::{parse_pipeline, run_pipeline, run_pipeline_jobs};
use std::path::PathBuf;
use std::process::Command;

fn benchmarks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

#[test]
fn acceptance_demo_aag_to_blif() {
    // Read the checked-in 8-bit adder AIGER.
    let input = benchmarks_dir().join("adder8.aag");
    let naive = io::read_mig_path(&input).expect("checked-in benchmark parses");
    let naive_gates = naive.cleanup().num_gates();

    // Run the pipeline of the acceptance criterion.
    let passes = parse_pipeline("strash; fhash:T; cec").unwrap();
    let (opt, reports) = run_pipeline(&naive, &passes).expect("cec must pass");
    assert!(reports[2].note.contains("equivalent"), "SAT proof ran");

    // Strictly fewer MIG nodes than the naive conversion.
    assert!(
        opt.num_gates() < naive_gates,
        "fhash must beat naive conversion: {} vs {naive_gates}",
        opt.num_gates()
    );

    // Write BLIF, read it back, and verify equivalence once more.
    let out = std::env::temp_dir().join(format!("adder8_opt_{}.blif", std::process::id()));
    io::write_mig_path(&out, &opt).unwrap();
    let back = io::read_mig_path(&out).unwrap();
    assert_eq!(
        cec::prove_equivalent(&naive, &back, None),
        cec::CecResult::Equivalent,
        "written BLIF is CEC-equivalent to the original AIGER"
    );
    std::fs::remove_file(&out).ok();
}

#[test]
fn checked_in_benchmarks_parse_and_roundtrip_byte_identically() {
    // Acceptance criterion: AIGER round-trips byte-identically on the
    // checked-in benchmarks.
    for name in ["full_adder.aag", "adder8.aag"] {
        let path = benchmarks_dir().join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = io::aiger::Aiger::parse_ascii(&text).unwrap();
        assert_eq!(doc.to_ascii(), text, "{name}");
    }
    let path = benchmarks_dir().join("mult4.aig");
    let bytes = std::fs::read(&path).unwrap();
    let doc = io::aiger::Aiger::parse_binary(&bytes).unwrap();
    assert_eq!(doc.to_binary().unwrap(), bytes, "mult4.aig");

    let path = benchmarks_dir().join("adder4.blif");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = io::blif::Blif::parse(&text).unwrap();
    assert_eq!(doc.to_text(), text, "adder4.blif");
}

#[test]
fn full_adder_optimizes_to_paper_fig1_size() {
    // The paper's Fig. 1: the full adder is 3 MIG gates, depth 2. The
    // AND-based AIGER ingestion starts at 7 gates; the bottom-up variant
    // recovers the exact minimum (top-down `T` is blocked here by the
    // shared xor cone's fanout legality, as §IV-C predicts for
    // whole-graph replacement).
    let input = benchmarks_dir().join("full_adder.aag");
    let m = io::read_mig_path(&input).unwrap();
    let passes = parse_pipeline("strash; fhash:B; cec").unwrap();
    let (opt, _) = run_pipeline(&m, &passes).unwrap();
    assert_eq!(opt.num_gates(), 3, "Fig. 1 minimum size");
    assert_eq!(opt.depth(), 2, "Fig. 1 minimum depth");
}

#[test]
fn sharded_fhash_acceptance_on_all_benchmarks() {
    // ISSUE 3 acceptance: on every checked-in benchmark, every variant of
    // the sharded engine at 4 threads is SAT-proved CEC-equivalent to
    // the input, reaches gate counts no worse than the serial in-place
    // engine, and is bit-deterministic.
    let engine = fhash::FunctionalHashing::with_default_database();
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        for v in fhash::Variant::ALL {
            let mut serial = m.clone();
            engine.pass(&mut serial, v, &mut None, 1);
            let mut sharded = m.clone();
            engine.converge(&mut sharded, v, 4);
            assert!(
                sharded.num_gates() <= serial.num_gates(),
                "{name}/{v}: sharded {} > serial {}",
                sharded.num_gates(),
                serial.num_gates()
            );
            assert_eq!(
                cec::prove_equivalent(&m, &sharded, None),
                cec::CecResult::Equivalent,
                "{name}/{v}: sharded result not equivalent"
            );
            // Determinism: a second run builds the identical netlist.
            let mut again = m.clone();
            engine.converge(&mut again, v, 4);
            assert_eq!(again.num_nodes(), sharded.num_nodes(), "{name}/{v}");
            assert_eq!(again.outputs(), sharded.outputs(), "{name}/{v}");
            let gates_a: Vec<_> = again.gates().map(|g| (g, again.fanins(g))).collect();
            let gates_b: Vec<_> = sharded.gates().map(|g| (g, sharded.fanins(g))).collect();
            assert_eq!(gates_a, gates_b, "{name}/{v}: nondeterministic netlist");
        }
    }
}

#[test]
fn event_driven_converge_never_worse_than_round_based_drivers() {
    // On every checked-in benchmark, the algebraic converge loops reach
    // their fixpoint never worse than their input under the family
    // metrics their guards enforce, and stay SAT-proved CEC-equivalent.
    // (The functional-hashing half, which compares the event-driven
    // scheduler against the private round-based driver, is a unit test
    // of `fhash`.)
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        let base = m.cleanup();
        let mut s = base.clone();
        migalg::size_converge(&mut s);
        assert!(
            migalg::script_metric(&s) <= migalg::script_metric(&base),
            "{name}: size converge worsened"
        );
        let mut d = base.clone();
        migalg::depth_converge(&mut d);
        assert!(d.depth() <= base.depth(), "{name}: depth converge worsened");
        for opt in [&s, &d] {
            assert_eq!(
                cec::prove_equivalent(&m, opt, None),
                cec::CecResult::Equivalent,
                "{name}: algebraic converge result not equivalent"
            );
        }
    }
}

#[test]
fn pipelines_keep_their_recorded_qor_on_all_benchmarks() {
    // Quality of results pinned as recorded literals: (gates, depth)
    // after each pipeline. A pipeline gives one netlist at every thread
    // count, so one value per pipeline covers them all. A change that
    // moves QoR on purpose updates this table and says so.
    const PIPELINES: [&str; 4] = [
        "strash; fhash!:TFD; algebraic; fhash!:B",
        "strash; fhash:TF; fhash:T; fhash:B",
        "strash; fhash!:T; fhash!:B",
        "strash; size!; depth!; algebraic:3",
    ];
    let recorded: [(&str, [(usize, u32); 4]); 4] = [
        ("full_adder.aag", [(3, 2), (3, 2), (3, 2), (7, 4)]),
        ("adder8.aag", [(24, 9), (24, 9), (24, 9), (54, 12)]),
        ("mult4.aig", [(52, 12), (54, 13), (52, 12), (122, 23)]),
        ("adder4.blif", [(12, 5), (12, 5), (12, 5), (12, 5)]),
    ];
    for (name, want) in recorded {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        for (spec, want) in PIPELINES.into_iter().zip(want) {
            let passes = parse_pipeline(spec).unwrap();
            let (opt, _) = run_pipeline(&m, &passes).unwrap();
            assert_eq!((opt.num_gates(), opt.depth()), want, "{name}: {spec:?}");
        }
    }
}

#[test]
fn scheduler_pipelines_keep_their_recorded_netlists() {
    // The scheduler's netlists pinned as recorded `Mig::fingerprint`s on
    // a generated multiplier, which re-partitions and compacts on the
    // way (in the fhash passes; the algebraic row pins the serial
    // engine between them). A change that moves a netlist on purpose
    // updates this table and says so.
    let recorded: [(&str, u64); 4] = [
        ("fhash!:TFD; algebraic; fhash!:B", 0xeaf0_44de_c929_68d9),
        ("fhash!:T; fhash!:B", 0xf5fc_630f_106e_4c00),
        ("size!; depth!; algebraic:3", 0x0c23_a100_78a1_175a),
        ("fhash!:BF", 0xbb7b_0aa4_2f81_bb39),
    ];
    // `gen_bench mult:8`: the multiplier AND-expanded, 8 bits wide.
    let m = aig::to_mig(&aig::from_mig(&benchgen::multiplier(8)));
    let (mut repartitions, mut compactions) = (0, 0);
    for (spec, want) in recorded {
        let passes = parse_pipeline(spec).unwrap();
        let (opt, reports) = run_pipeline(&m, &passes).unwrap();
        for r in &reports {
            repartitions += r.metrics.get(obs::Metric::SchedRepartitions);
            compactions += r.metrics.get(obs::Metric::SchedCompactions);
        }
        assert_eq!(opt.fingerprint(), want, "{spec:?}");
    }
    assert!(repartitions >= 2, "{repartitions} re-partitions");
    assert!(compactions >= 1, "{compactions} compactions");
}

#[test]
fn one_netlist_per_pipeline_at_every_thread_count() {
    // The thread count changes the speed, never the netlist: every
    // pipeline gives one `Mig::fingerprint` per input at -j 1, 2, 4, 8
    // and 16, on the checked-in benchmarks and two generated instances
    // large enough to partition (`gen_bench mult:8` and
    // `ctrl:8:16:15:3`, both AND-expanded).
    let mut pipelines = vec![
        "fhash!:TFD; algebraic; fhash!:B".to_string(),
        "strash; size!; depth!; algebraic:3".to_string(),
    ];
    for v in fhash::Variant::ALL {
        pipelines.push(format!("fhash!:{v}"));
        pipelines.push(format!("fhash:{v}"));
    }
    let mut inputs: Vec<(String, mig::Mig)> =
        ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"]
            .into_iter()
            .map(|name| {
                let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
                (name.to_string(), m)
            })
            .collect();
    let and_expanded = |m: &mig::Mig| aig::to_mig(&aig::from_mig(m));
    inputs.push(("mult:8".into(), and_expanded(&benchgen::multiplier(8))));
    inputs.push((
        "ctrl:8:16:15:3".into(),
        and_expanded(&benchgen::random_control(8, 16, 15, 3)),
    ));
    for (name, m) in &inputs {
        for spec in &pipelines {
            let passes = parse_pipeline(spec).unwrap();
            let mut at_one = None;
            for threads in [1usize, 2, 4, 8, 16] {
                let (opt, _) = run_pipeline_jobs(m, &passes, threads).unwrap();
                let want = *at_one.get_or_insert(opt.fingerprint());
                assert_eq!(
                    opt.fingerprint(),
                    want,
                    "{name}: {spec:?} at -j {threads} differs from -j 1"
                );
            }
        }
    }
}

#[test]
fn algebraic_pipelines_keep_their_recorded_netlists() {
    // The algebraic passes defer level decreases inside their sweeps and
    // settle them once per sweep (and at recycled slots of a depth
    // sweep); every decision must stay the one exact levels give. These
    // fingerprints were recorded with levels kept exact after every
    // substitution. A change that moves a netlist on purpose updates
    // this table and says so.
    const PIPELINES: [&str; 4] = ["size!", "depth!", "algebraic:3", "size; depth; size"];
    let recorded: [(&str, [u64; 4]); 5] = [
        ("full_adder.aag", [0x4077_1315_d12c_cc68; 4]),
        (
            "adder8.aag",
            [
                0xacc2_f609_feb3_7992,
                0x1632_152b_cd65_0182,
                0x7935_794b_4bed_7d18,
                0x7935_794b_4bed_7d18,
            ],
        ),
        (
            "mult4.aig",
            [
                0xd7c8_c529_2fdd_1070,
                0x42de_a200_c438_bd1f,
                0xd7c8_c529_2fdd_1070,
                0x1894_e1d3_21d1_a1f1,
            ],
        ),
        ("adder4.blif", [0x31ff_2256_d4d7_cc64; 4]),
        (
            "gen:ctrl:8:6:150:7",
            [
                0x9d49_f6e9_70a3_b46e,
                0x3190_0bda_52be_af65,
                0x9d49_f6e9_70a3_b46e,
                0x5913_030e_bfbc_6682,
            ],
        ),
    ];
    for (name, want) in recorded {
        let m = match name.strip_prefix("gen:") {
            // `gen_bench ctrl:8:6:150:7`: the control instance, AND-expanded.
            Some(_) => aig::to_mig(&aig::from_mig(&benchgen::random_control(8, 6, 150, 7))),
            None => io::read_mig_path(benchmarks_dir().join(name)).unwrap(),
        };
        for (spec, want) in PIPELINES.into_iter().zip(want) {
            let passes = parse_pipeline(spec).unwrap();
            let (opt, _) = run_pipeline_jobs(&m, &passes, 1).unwrap();
            assert_eq!(opt.fingerprint(), want, "{name}: {spec:?}");
        }
    }
}

#[test]
fn scheduler_reports_event_counters_in_pass_notes() {
    // The per-pass report of scheduler-driven passes carries the event
    // counters (regions proposed / skipped clean / retried) in the
    // applied-move-count format; the serial `size!` loop reports its
    // move counts and no scheduler counters.
    let m = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let passes = parse_pipeline("strash; fhash!:T; size!; cec").unwrap();
    let (_, reports) = run_pipeline(&m, &passes).unwrap();
    let fh = &reports[1].note;
    assert!(
        fh.contains("regions proposed") && fh.contains("skipped clean") && fh.contains("retried"),
        "fhash! note lacks scheduler counters: {fh}"
    );
    let size = &reports[2].note;
    assert!(
        size.contains("rounds") && size.contains("merges"),
        "size! note lacks move counts: {size}"
    );
    assert!(
        !size.contains("regions proposed"),
        "size! note carries scheduler counters: {size}"
    );
}

#[test]
fn sharded_pipelines_prove_equivalence_on_all_benchmarks() {
    // The `@N` pass suffix end to end: sharded top-down + bottom-up with
    // an in-pipeline SAT equivalence check on every benchmark.
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        let passes = parse_pipeline("strash; fhash!:TF@4; fhash!:B@4; cec").unwrap();
        let (opt, reports) = run_pipeline(&m, &passes)
            .unwrap_or_else(|e| panic!("{name}: sharded pipeline not equivalent: {e}"));
        assert!(reports[3].note.contains("equivalent"), "{name}");
        assert!(opt.num_gates() <= m.cleanup().num_gates(), "{name}: grew");
    }
}

#[test]
fn interleaved_algebraic_fhash_pipelines_prove_equivalence() {
    // The unified in-place stack end to end: algebraic and functional
    // hashing interleaved in one pipeline, sharing the managed network
    // (and, for the serial passes, the carried cut set), with an
    // in-pipeline SAT equivalence check on every benchmark.
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        for spec in [
            "size!; fhash!:B@2; depth!; cec",
            "strash; algebraic; fhash:TFD; cec",
            "depth; fhash:T; size; fhash:B; cec",
        ] {
            let passes = parse_pipeline(spec).unwrap();
            let (opt, reports) = run_pipeline(&m, &passes)
                .unwrap_or_else(|e| panic!("{name}: {spec:?} not equivalent: {e}"));
            let cec_report = reports.last().unwrap();
            assert!(cec_report.note.contains("equivalent"), "{name}: {spec:?}");
            let _ = opt;
        }
    }
}

#[test]
fn algebraic_pass_reports_applied_move_counts() {
    // The per-pass report of algebraic passes carries applied-move
    // counts, like the fhash passes' replacement counts.
    let m = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let passes = parse_pipeline("algebraic; size!; depth!; depth").unwrap();
    let (_, reports) = run_pipeline(&m, &passes).unwrap();
    assert!(
        reports[0].note.contains("merges") && reports[0].note.contains("distrib"),
        "algebraic note lacks move counts: {}",
        reports[0].note
    );
    assert!(
        reports[1].note.contains("rounds") && reports[1].note.contains("merges"),
        "size! note lacks move counts: {}",
        reports[1].note
    );
    assert!(
        reports[2].note.contains("rounds") && reports[2].note.contains("distrib"),
        "depth! note lacks move counts: {}",
        reports[2].note
    );
    assert!(
        reports[3].note.contains("assoc"),
        "depth note lacks move counts: {}",
        reports[3].note
    );
}

#[test]
fn compact_pass_mid_pipeline_on_all_benchmarks() {
    // ISSUE 8: a `compact` step between rewriting passes — including one
    // directly after a scheduler-driven converge pass — must leave the
    // pipeline SAT-provably equivalent and never change the final gate
    // count versus the same pipeline without the compact step.
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        for (with, without) in [
            ("fhash:TF; compact; fhash:T; cec", "fhash:TF; fhash:T"),
            (
                "fhash!:B@2; compact; algebraic; cec",
                "fhash!:B@2; algebraic",
            ),
        ] {
            let (opt, reports) = run_pipeline(&m, &parse_pipeline(with).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {with:?} not equivalent: {e}"));
            assert!(
                reports.last().unwrap().note.contains("equivalent"),
                "{name}: {with:?}"
            );
            let (plain, _) = run_pipeline(&m, &parse_pipeline(without).unwrap()).unwrap();
            assert_eq!(
                opt.num_gates(),
                plain.num_gates(),
                "{name}: compact changed the result of {with:?}"
            );
        }
    }
}

#[test]
fn compact_is_sat_proved_equivalent_after_churn() {
    // ISSUE 8: the compaction property test at full SAT strength — churn
    // a graph with in-place rewriting (scattering live nodes through
    // free-list slots), renumber with `Mig::compact`, and prove the
    // result equivalent to the original with an unbudgeted SAT proof.
    let engine = fhash::FunctionalHashing::with_default_database();
    for name in ["adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        let mut churned = m.clone();
        engine.pass(&mut churned, fhash::Variant::TopDown, &mut None, 1);
        let _ = churned.drain_dirty();
        let map = churned.compact();
        assert_eq!(
            usize::try_from(churned.dead_slot_pct()).unwrap(),
            0,
            "{name}: compact left holes"
        );
        let _ = map;
        assert_eq!(
            cec::prove_equivalent(&m, &churned, None),
            cec::CecResult::Equivalent,
            "{name}: compacted graph not equivalent"
        );
    }
}

#[test]
fn binary_runs_the_demo_pipeline() {
    let out = std::env::temp_dir().join(format!("migopt_e2e_{}.blif", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("-i")
        .arg(benchmarks_dir().join("adder8.aag"))
        .arg("-p")
        .arg("strash; fhash:T; cec")
        .arg("-o")
        .arg(&out)
        .output()
        .expect("spawn migopt");
    assert!(
        status.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&status.stdout),
        String::from_utf8_lossy(&status.stderr)
    );
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("fhash:T"), "per-pass report printed");
    assert!(stdout.contains("equivalent"), "cec verdict printed");
    let written = std::fs::read_to_string(&out).unwrap();
    assert!(written.starts_with(".model"), "BLIF written");
    std::fs::remove_file(&out).ok();
}

#[test]
fn binary_rejects_bad_pipeline_and_missing_file() {
    let r = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .args(["-i", "nonexistent.aag", "-p", "strash"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(1));

    let r = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("-i")
        .arg(benchmarks_dir().join("full_adder.aag"))
        .args(["-p", "frobnicate"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&r.stderr).contains("unknown pass"));

    // The algebraic passes take no thread suffix.
    for (spec, pass) in [("size!@2", "size!"), ("algebraic:3@2", "algebraic")] {
        let r = Command::new(env!("CARGO_BIN_EXE_migopt"))
            .arg("-i")
            .arg(benchmarks_dir().join("full_adder.aag"))
            .args(["-p", spec])
            .output()
            .unwrap();
        assert_eq!(r.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert!(
            stderr.contains(&format!("{pass:?} takes no @N")),
            "{stderr}"
        );
    }

    let r = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("-i")
        .arg(benchmarks_dir().join("full_adder.aag"))
        .args(["-j", "257", "-p", "fhash!:B"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&r.stderr).contains("at most 256"));

    // The daemon's worker pool has the same bound, checked before the
    // socket is bound.
    let sock = std::env::temp_dir().join(format!("workers_{}.sock", std::process::id()));
    let r = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("--serve")
        .arg(&sock)
        .args(["--workers", "257"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&r.stderr).contains("at most 256"));
    assert!(!sock.exists(), "no socket for a refused daemon");
}

#[test]
fn binary_reports_positioned_parse_errors() {
    let bad = std::env::temp_dir().join(format!("bad_{}.aag", std::process::id()));
    std::fs::write(&bad, "aag 1 1 0 0 0\nnotalit\n").unwrap();
    let r = Command::new(env!("CARGO_BIN_EXE_migopt"))
        .arg("-i")
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(
        stderr.contains("line 2"),
        "error must carry a position, got: {stderr}"
    );
    std::fs::remove_file(&bad).ok();
}
