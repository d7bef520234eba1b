//! End-to-end tests of the `migopt` pipeline on the checked-in
//! `benchmarks/` circuits: the acceptance demo (read `.aag`, run
//! `strash; fhash:T; cec`, write `.blif`) plus binary-level exit-code
//! checks.

use cli::{parse_pipeline, run_pipeline};
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
fn inplace_fhash_acceptance_on_all_benchmarks() {
    // ISSUE 2 acceptance: on every checked-in benchmark, every variant of
    // the (now in-place) fhash engine produces CEC-equivalent output with
    // gate counts no worse than the rebuild-based reference engine, and
    // `fhash!:B` converges.
    let engine = fhash::FunctionalHashing::with_default_database();
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        for v in fhash::Variant::ALL {
            let rebuild = engine.run_rebuild(&m, v);
            let mut inplace = m.clone();
            engine.run_in_place(&mut inplace, v);
            assert!(
                inplace.num_gates() <= rebuild.num_gates(),
                "{name}/{v}: in-place {} > rebuild {}",
                inplace.num_gates(),
                rebuild.num_gates()
            );
            assert_eq!(
                cec::prove_equivalent(&m, &inplace, None),
                cec::CecResult::Equivalent,
                "{name}/{v}: in-place result not equivalent"
            );
        }
        let mut conv = m.clone();
        let (_, rounds) = engine.run_converge(&mut conv, fhash::Variant::BottomUp, 50);
        assert!(rounds < 50, "{name}: fhash!:B did not converge");
        assert!(conv.num_gates() <= m.cleanup().num_gates(), "{name}: grew");
        assert_eq!(
            cec::prove_equivalent(&m, &conv, None),
            cec::CecResult::Equivalent,
            "{name}: fhash!:B result not equivalent"
        );
    }
}

#[test]
fn sharded_fhash_acceptance_on_all_benchmarks() {
    // ISSUE 3 acceptance: on every checked-in benchmark, every variant of
    // the sharded engine at 4 threads is SAT-proved CEC-equivalent to
    // the input, reaches gate counts no worse than the serial in-place
    // engine, and is bit-deterministic for a fixed thread count.
    let engine = fhash::FunctionalHashing::with_default_database();
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        for v in fhash::Variant::ALL {
            let mut serial = m.clone();
            engine.run_in_place(&mut serial, v);
            let mut sharded = m.clone();
            engine.run_threads(&mut sharded, v, 4);
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
            engine.run_threads(&mut again, v, 4);
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
    // ISSUE 5 acceptance: on every checked-in benchmark and every
    // variant, the event-driven convergence scheduler reaches quiescence
    // with gate counts never worse than the round-based full-sweep
    // driver (`run_converge_serial`), stays SAT-proved CEC-equivalent,
    // and is bit-deterministic per thread count.
    let engine = fhash::FunctionalHashing::with_default_database();
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        for v in fhash::Variant::ALL {
            let mut rounds_based = m.clone();
            engine.run_converge_serial(&mut rounds_based, v, 50);
            for threads in [1usize, 4] {
                let mut event = m.clone();
                let (stats, _) = engine.run_converge_threads(&mut event, v, 50, threads);
                assert!(
                    event.num_gates() <= rounds_based.num_gates(),
                    "{name}/{v}@{threads}: event-driven {} > round-based {}",
                    event.num_gates(),
                    rounds_based.num_gates()
                );
                assert_eq!(
                    cec::prove_equivalent(&m, &event, None),
                    cec::CecResult::Equivalent,
                    "{name}/{v}@{threads}: event-driven result not equivalent"
                );
                let mut again = m.clone();
                let (stats2, _) = engine.run_converge_threads(&mut again, v, 50, threads);
                assert_eq!(stats, stats2, "{name}/{v}@{threads}: counters drifted");
                assert_eq!(again.num_nodes(), event.num_nodes(), "{name}/{v}@{threads}");
                let gates_a: Vec<_> = again.gates().map(|g| (g, again.fanins(g))).collect();
                let gates_b: Vec<_> = event.gates().map(|g| (g, event.fanins(g))).collect();
                assert_eq!(
                    gates_a, gates_b,
                    "{name}/{v}@{threads}: nondeterministic netlist"
                );
            }
        }
        // Same contract for the algebraic converge drivers, against the
        // family metrics their guards enforce.
        let base = m.cleanup();
        for threads in [1usize, 4] {
            let mut s = base.clone();
            migalg::size_converge(&mut s, 50, threads);
            assert!(
                migalg::script_metric(&s) <= migalg::script_metric(&base),
                "{name}@{threads}: size converge worsened"
            );
            let mut d = base.clone();
            migalg::depth_converge(&mut d, 50, threads);
            assert!(
                d.depth() <= base.depth(),
                "{name}@{threads}: depth converge worsened"
            );
            for opt in [&s, &d] {
                assert_eq!(
                    cec::prove_equivalent(&m, opt, None),
                    cec::CecResult::Equivalent,
                    "{name}@{threads}: algebraic converge result not equivalent"
                );
            }
        }
    }
}

#[test]
fn scheduler_reports_event_counters_in_pass_notes() {
    // The per-pass report of scheduler-driven passes carries the event
    // counters (regions proposed / skipped clean / retried, commit
    // waves) in the applied-move-count format.
    let m = io::read_mig_path(benchmarks_dir().join("adder8.aag")).unwrap();
    let passes = parse_pipeline("strash; fhash!:T; size!@2; cec").unwrap();
    let (_, reports) = run_pipeline(&m, &passes).unwrap();
    for (i, what) in [(1, "fhash!"), (2, "size!@2")] {
        assert!(
            reports[i].note.contains("regions proposed")
                && reports[i].note.contains("skipped clean")
                && reports[i].note.contains("commit waves"),
            "{what} note lacks scheduler counters: {}",
            reports[i].note
        );
    }
}

#[test]
fn sharded_pipelines_prove_equivalence_on_all_benchmarks() {
    // The `@N` pass suffix end to end: sharded top-down + bottom-up with
    // an in-pipeline SAT equivalence check on every benchmark.
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        let passes = parse_pipeline("strash; fhash:TF@4; fhash:B@4; cec").unwrap();
        let (opt, reports) = run_pipeline(&m, &passes)
            .unwrap_or_else(|e| panic!("{name}: sharded pipeline not equivalent: {e}"));
        assert!(reports[3].note.contains("equivalent"), "{name}");
        assert!(opt.num_gates() <= m.cleanup().num_gates(), "{name}: grew");
    }
}

#[test]
fn inplace_algebraic_acceptance_on_all_benchmarks() {
    // ISSUE 4 acceptance: on every checked-in benchmark the in-place
    // algebraic script is CEC-equivalent to the input with a gate count
    // no worse than the rebuild reference script, and the in-place depth
    // script reaches a depth no worse than the iterated rebuild depth
    // pass.
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        let inplace = migalg::optimize(&m, 8);
        let rebuild = migalg::optimize_rebuild(&m, 8);
        assert!(
            inplace.num_gates() <= rebuild.num_gates(),
            "{name}: in-place script {} > rebuild {}",
            inplace.num_gates(),
            rebuild.num_gates()
        );
        assert_eq!(
            cec::prove_equivalent(&m, &inplace, None),
            cec::CecResult::Equivalent,
            "{name}: in-place script result not equivalent"
        );

        let mut depth_ip = m.cleanup();
        migalg::depth_converge(&mut depth_ip, 50, 1);
        let mut depth_rb = m.cleanup();
        loop {
            let (next, _) = migalg::depth_rewrite_rebuild(&depth_rb);
            if next.depth() >= depth_rb.depth() {
                break;
            }
            depth_rb = next;
        }
        assert!(
            depth_ip.depth() <= depth_rb.depth(),
            "{name}: in-place depth script {} > rebuild {}",
            depth_ip.depth(),
            depth_rb.depth()
        );
        assert_eq!(
            cec::prove_equivalent(&m, &depth_ip, None),
            cec::CecResult::Equivalent,
            "{name}: in-place depth script result not equivalent"
        );
    }
}

#[test]
fn sharded_algebraic_acceptance_on_all_benchmarks() {
    // ISSUE 4 acceptance: sharded `algebraic@N` runs are SAT-proved
    // CEC-equivalent, never worse than the serial script, and
    // bit-deterministic per thread count (1/2/4).
    for name in ["full_adder.aag", "adder8.aag", "mult4.aig", "adder4.blif"] {
        let m = io::read_mig_path(benchmarks_dir().join(name)).unwrap();
        let mut serial = m.cleanup();
        migalg::optimize_in_place(&mut serial, 8);
        for threads in [1usize, 2, 4] {
            let mut sharded = m.cleanup();
            migalg::optimize_threads(&mut sharded, 8, threads);
            assert!(
                migalg::script_metric(&sharded) <= migalg::script_metric(&serial),
                "{name}@{threads}: sharded {:?} worse than serial {:?}",
                migalg::script_metric(&sharded),
                migalg::script_metric(&serial)
            );
            assert_eq!(
                cec::prove_equivalent(&m, &sharded, None),
                cec::CecResult::Equivalent,
                "{name}@{threads}: sharded script result not equivalent"
            );
            // Determinism: a second run builds the identical netlist.
            let mut again = m.cleanup();
            migalg::optimize_threads(&mut again, 8, threads);
            assert_eq!(again.num_nodes(), sharded.num_nodes(), "{name}@{threads}");
            assert_eq!(again.outputs(), sharded.outputs(), "{name}@{threads}");
            let gates_a: Vec<_> = again.gates().map(|g| (g, again.fanins(g))).collect();
            let gates_b: Vec<_> = sharded.gates().map(|g| (g, sharded.fanins(g))).collect();
            assert_eq!(
                gates_a, gates_b,
                "{name}@{threads}: nondeterministic netlist"
            );
        }
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
            "strash; algebraic@2; fhash:TFD; cec",
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
        engine.run_in_place(&mut churned, fhash::Variant::TopDown);
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
