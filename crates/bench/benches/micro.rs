//! Micro-benchmarks for the workspace's hot components: cut enumeration,
//! NPN canonization, structural hashing, exact synthesis, the
//! functional-hashing variants, LUT mapping and the SAT solver.
//!
//! Uses the workspace's own [`bench_harness::microbench`] harness
//! (Criterion is unavailable offline). Run with `cargo bench -p
//! bench_harness --bench micro`; results land in `BENCH_micro.json`.
//!
//! (The full paper tables are regenerated by the `table*`/`fig*`
//! binaries; these benches track per-component performance.)

use bench_harness::microbench::{bench, bench_round_robin, write_json_with_context, Measurement};
use bench_harness::workloads::{
    ctrl_deep, epfl_big, mult_big_and, parallel_chain_workload, ripple_chain,
};
use mig::{Mig, Signal};
use std::hint::black_box;

/// Rewrite-throughput state: a graph with an AND chain of `2 * chain`
/// gates on top of the Ω.A associativity pattern, toggled between the two
/// sides of `<x u <y u z>> = <z u <y u x>>` with one `replace_node` per
/// toggle. Comparing the per-toggle cost for different chain lengths
/// shows the in-place engine's replacement cost is independent of graph
/// size (no O(n) rebuild per replacement).
struct ReplaceToggler {
    m: Mig,
    root: Signal,
    form_a: bool,
}

impl ReplaceToggler {
    fn new(chain: usize) -> Self {
        let mut m = Mig::new(4);
        let (x, y, z, u) = (m.input(0), m.input(1), m.input(2), m.input(3));
        let inner = m.maj(y, u, z);
        let root = m.maj(x, u, inner);
        let mut t = root;
        for _ in 0..chain {
            t = m.maj(t, x, Signal::ZERO);
            t = m.maj(t, y, Signal::ONE);
        }
        m.add_output(t);
        ReplaceToggler {
            m,
            root,
            form_a: true,
        }
    }

    /// Runs 1000 toggles; returns the number of committed replacements.
    fn run_1k(&mut self) -> usize {
        let (x, y, z, u) = (
            self.m.input(0),
            self.m.input(1),
            self.m.input(2),
            self.m.input(3),
        );
        let mut replacements = 0usize;
        for _ in 0..1000 {
            let new_sig = if self.form_a {
                let i2 = self.m.maj(y, u, x);
                self.m.maj(z, u, i2)
            } else {
                let i2 = self.m.maj(y, u, z);
                self.m.maj(x, u, i2)
            };
            if self.m.replace_node(self.root.node(), new_sig) {
                replacements += 1;
                self.root = new_sig;
                self.form_a = !self.form_a;
            }
            // Keep the change log bounded like an incremental consumer.
            let _ = self.m.drain_dirty();
        }
        replacements
    }
}

fn main() {
    let mut ms = Vec::new();

    let m12 = benchgen::multiplier(12);
    ms.push(bench("cuts/enumerate_4cuts_multiplier12", || {
        let cs = cuts::enumerate_cuts(black_box(&m12), &cuts::CutConfig::default());
        cs.of(100).len()
    }));

    let canon = truth::Npn4Canonizer::new();
    ms.push(bench("npn/canonize4_sweep", || {
        let mut acc = 0u32;
        let mut f = 0x1234u16;
        for _ in 0..256 {
            f = f.wrapping_mul(0x6487).wrapping_add(0x3619);
            acc = acc.wrapping_add(u32::from(canon.canonize(black_box(f)).0));
        }
        acc
    }));

    ms.push(bench("mig/build_adder64", || {
        black_box(benchgen::adder(64)).num_gates()
    }));

    let cfg = exact::SynthesisConfig::default();
    let xor3 = truth::TruthTable::from_hex(3, "96").unwrap();
    ms.push(bench("exact/minimum_size_xor3", || {
        exact::minimum_size(black_box(&xor3), &cfg).unwrap().size()
    }));

    let engine = fhash::FunctionalHashing::with_default_database();
    let mut m8 = benchgen::multiplier(8).cleanup();
    migalg::optimize(&mut m8, 2);
    for v in fhash::Variant::ALL {
        ms.push(bench(&format!("fhash/multiplier8/{}", v.acronym()), || {
            let mut m = black_box(&m8).clone();
            engine.pass(&mut m, v, &mut None, 1);
            m.num_gates()
        }));
    }

    ms.push(bench("techmap/map6_multiplier12", || {
        techmap::map_luts(black_box(&m12), &techmap::MapConfig::default()).area
    }));

    ms.push(bench("sat/pigeonhole6", || {
        let n = 6;
        let mut s = sat::Solver::new();
        let p: Vec<Vec<sat::Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for i1 in 0..n {
            for i2 in i1 + 1..n {
                for (a, b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[!*a, !*b]);
                }
            }
        }
        black_box(s.solve())
    }));

    // Proof-kernel row: a live SAT sweep, as in the `verify` ladder's
    // hyp:8 rung. gen hyp:8 goes through the `arith` pipeline, and the
    // result is proven equivalent to its input at 16,000 conflicts
    // (about 300 solver calls); `sat/pigeonhole6` above is one crafted
    // formula instead.
    let hyp8 = bench_harness::generate_spec("hyp:8").expect("hyp:8 generates");
    let arith = cli::parse_pipeline("fhash!:TFD; algebraic; fhash!:B").expect("pipeline parses");
    let (hyp8_opt, _) = cli::run_pipeline_jobs(&hyp8, &arith, 1).expect("hyp:8 optimizes");
    ms.push(
        bench("cec/prove_hyp8", || {
            black_box(cec::prove_equivalent(
                black_box(&hyp8),
                &hyp8_opt,
                Some(16_000),
            ))
        })
        .on_host_cores(),
    );

    let a16 = benchgen::adder(16);
    let mut a16_opt = a16.clone();
    engine.pass(&mut a16_opt, fhash::Variant::BottomUpFfr, &mut None, 1);
    ms.push(bench("cec/random_sim_adder16", || {
        black_box(cec::equivalent_random(&a16, &a16_opt, 4, 7))
    }));

    let sq12 = benchgen::square(12);
    ms.push(bench("migalg/optimize_square12", || {
        let mut m = black_box(&sq12).cleanup();
        migalg::optimize(&mut m, 2);
        m.num_gates()
    }));

    // Rewrite throughput of the in-place engine (ISSUE 2): the pure
    // replacement loop at two graph sizes (per-replacement cost must not
    // scale with the chain length), plus committed replacements on the
    // AND-expanded 8-bit adder, the `migopt` hot path.
    let mut small = ReplaceToggler::new(32);
    ms.push(bench("mig/replace_node_1k_toggles_chain32", || {
        black_box(small.run_1k())
    }));
    let mut large = ReplaceToggler::new(512);
    ms.push(bench("mig/replace_node_1k_toggles_chain512", || {
        black_box(large.run_1k())
    }));
    let a8_and = aig::to_mig(&aig::from_mig(&benchgen::adder(8)));
    ms.push(bench("fhash/inplace_T_adder8_and", || {
        let mut m = black_box(&a8_and).clone();
        let stats = engine.pass(&mut m, fhash::Variant::TopDown, &mut None, 1);
        black_box(stats.replacements)
    }));

    // Algebraic rewriting throughput: the depth script on an unbalanced
    // AND ripple chain through the in-place convergence loop
    // (affected-cone re-scans after the first sweep). The chain128 row
    // pairs with chain512 for the per-move cost claim: the in-place
    // engine's cost per committed move must stay flat as the graph grows
    // 4x. The `@1` in the row names keeps their history comparable.
    for chain in [128usize, 512] {
        let ripple = ripple_chain(chain);
        ms.push(
            bench(&format!("alg/inplace_depth_chain{chain}@1"), move || {
                let mut m = ripple.cleanup();
                let (stats, _) = migalg::depth_converge(&mut m);
                black_box((stats.total(), m.depth()))
            })
            .on_host_cores(),
        );
    }

    // Event-driven convergence on the chain512 tower workload, optimized
    // until no replacement fires, through the dirty-region scheduler
    // (`FunctionalHashing::converge`). The scheduler re-proposes only the
    // regions a commit dirtied (the priority queue seeds from the
    // dirty-log cursor), so it evaluates strictly fewer proposals than
    // full-sweep rounds would (the unit test
    // `event_driven_converge_proposes_less_than_full_sweeps` holds it to
    // that), and the propose phase parallelizes on top at @4.
    let chains = parallel_chain_workload(8, 512);
    for threads in [1usize, 4] {
        ms.push(
            bench(&format!("sched/chain512@{threads}"), || {
                let mut m = black_box(&chains).clone();
                let (stats, _) = engine.converge(&mut m, fhash::Variant::TopDown, threads);
                black_box((stats.replacements, m.num_gates()))
            })
            .on_host_cores(),
        );
    }

    // Parallel propose: the AND-expanded 64-bit multiplier (~44k gates,
    // ~4k replacements) through the event-driven scheduler. Commits and
    // the cut-set update before each propose phase are serial at every
    // thread count; @4/@8 fan the propose phase (NPN lookup and scoring)
    // out over workers, so the row triple is the CI speedup gate's input
    // (`ci.sh` compares @4 against @1 when the machine has the cores to
    // show it). The `_tfd` rows run the FFR-partitioned, depth-preserving
    // variant the `fhash!:TFD` pipelines use; `ci.sh` holds its @1 row
    // within a constant factor of the level-band @1 row.
    //
    // Production-scale corpus (ISSUE 8): the same convergence on the
    // >100k-gate instance, at the same thread counts as the mult_big
    // triple. Its @1 row feeds the CI ns/gate gate — per-gate cost on
    // the large instance must stay within a constant factor of the
    // medium one, or the storage layer has stopped being cache-conscious.
    //
    // Deep-graph commit row: the same convergence on deep control logic
    // (119k gates, depth 2.6k), where every substitution lowers levels
    // through a tall fanout cone. `ci.sh` holds its per-gate cost within
    // a constant factor of `sched/mult_big@1`'s; per-substitution level
    // walks would blow past it.
    //
    // Every row a `ci.sh` ratio gate compares is timed in one round-robin
    // group, so a swing in host speed hits both sides of each ratio alike.
    // Its rows take 0.2-0.9 s each, so the group runs the harness's floor
    // of 7 rounds.
    let mult = mult_big_and();
    let epfl = epfl_big();
    let deep = ctrl_deep();
    let converge = |m: &Mig, variant, threads| {
        let mut m = black_box(m).clone();
        let (stats, _) = engine.converge(&mut m, variant, threads);
        stats.replacements as usize + m.num_gates()
    };
    let (t, tfd) = (fhash::Variant::TopDown, fhash::Variant::TopDownFfrDepth);
    ms.extend(
        bench_round_robin(&mut [
            ("sched/mult_big@1", &mut || converge(mult, t, 1)),
            ("sched/mult_big@4", &mut || converge(mult, t, 4)),
            ("sched/mult_big_tfd@1", &mut || converge(mult, tfd, 1)),
            ("fhash!/epfl_big@1", &mut || converge(epfl, t, 1)),
            ("fhash!/ctrl_deep@1", &mut || converge(deep, t, 1)),
        ])
        .into_iter()
        .map(Measurement::on_host_cores),
    );
    for (name, m, variant, threads) in [
        ("sched/mult_big@8", mult, t, 8),
        ("sched/mult_big_tfd@4", mult, tfd, 4),
        ("fhash!/epfl_big@4", epfl, t, 4),
        ("fhash!/epfl_big@8", epfl, t, 8),
    ] {
        ms.push(bench(name, || converge(m, variant, threads)).on_host_cores());
    }

    // Propose-kernel row (ISSUE 10): one full single-thread in-place
    // top-down pass over the big multiplier — the pure
    // enumerate→merge→canonize→score path with no scheduler machinery
    // around it. This is the row the allocation-free cut
    // kernel gate in `ci.sh` holds against the pre-arena seed.
    ms.push(
        bench("fhash/propose_kernel_mult_big@1", || {
            let mut m = black_box(mult).clone();
            let stats = engine.pass(&mut m, fhash::Variant::TopDown, &mut None, 1);
            black_box((stats.replacements, m.num_gates()))
        })
        .on_host_cores(),
    );

    // Cut-kernel row (ISSUE 10): from-scratch 4-feasible cut enumeration
    // over the production-scale instance — arena appends and the fused
    // merge kernel only, no canonization or scoring.
    ms.push(bench("cuts/enumerate_4cuts_epfl_big", || {
        let cs = cuts::enumerate_cuts(black_box(epfl), &cuts::CutConfig::default());
        cs.of(100).len()
    }));

    // Storage-layout walk rows (ISSUE 8): whole-graph word-parallel
    // simulation — a pure pointer-chasing traversal of the slot arrays —
    // on three layouts of the production instance: fresh (dense,
    // generation order), churned (an in-place optimization pass leaves
    // its replacements scattered through free-list slots) and compacted
    // (the churned graph renumbered by `Mig::compact`). The CI locality
    // gate holds the compacted walk's ns/gate within 1.1x of fresh, so
    // the three walks are timed round-robin: a swing in host speed hits
    // them alike. The compact row itself prices the renumbering pass.
    let inputs: Vec<u64> = (0..epfl.num_inputs())
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1))
        .collect();
    let mut churned = epfl.clone();
    let _ = engine.pass(&mut churned, fhash::Variant::TopDown, &mut None, 1);
    let _ = churned.drain_dirty();
    let mut compacted = churned.clone();
    let _ = compacted.compact();
    ms.extend(bench_round_robin(&mut [
        ("mig/walk_epfl_big_fresh", &mut || {
            epfl.simulate_words(black_box(&inputs)).len()
        }),
        ("mig/walk_epfl_big_churned", &mut || {
            churned.simulate_words(black_box(&inputs)).len()
        }),
        ("mig/walk_epfl_big_compacted", &mut || {
            compacted.simulate_words(black_box(&inputs)).len()
        }),
    ]));
    ms.push(bench("mig/compact_epfl_big", || {
        let mut m = black_box(&churned).clone();
        let map = m.compact();
        black_box(map.new_len())
    }));

    // The same @1 job with span tracing *enabled* (events drained every
    // iteration, as `migopt --trace` would): pairs with the
    // `sched/chain512@1` row above — tracing is off there, so the pair
    // documents the recorder's cost. The `trace_overhead` binary gates
    // the tracing-off bound in CI.
    ms.push(bench("sched/chain512@1+traced", || {
        obs::trace::start();
        let mut m = black_box(&chains).clone();
        let (stats, _) = engine.converge(&mut m, fhash::Variant::TopDown, 1);
        let events = obs::trace::finish();
        black_box((stats.replacements, events.len()))
    }));

    // Persistent-cache rows (ISSUE 9): cold builds a fresh service
    // (fresh engine, no cache) and optimizes mult_big from scratch;
    // warm builds a fresh service over the cache file a prior run
    // flushed, so the whole job is answered from the result tier after
    // re-verification by random simulation. The pair is the CI
    // warm-speedup gate's input (warm mean must stay ≤ 0.8x cold).
    let cache_passes = cli::parse_pipeline("fhash!:TFD").unwrap();
    ms.push(bench("cache/cold_mult_big@1", || {
        let svc = cli::service::OptService::new(None);
        let job = svc
            .run_job(black_box(mult), &cache_passes, 1, None)
            .expect("pure rewrite pipeline");
        black_box((job.result.num_gates(), job.cached))
    }));
    let cache_file = std::env::temp_dir().join(format!("bench_mig_{}.cache", std::process::id()));
    std::fs::remove_file(&cache_file).ok();
    {
        let seed = cli::service::OptService::new(Some(cache_file.clone()));
        let _ = seed.run_job(mult, &cache_passes, 1, None).unwrap();
        seed.flush().expect("cache flush");
    }
    let warm_before = obs::metrics::global_snapshot();
    ms.push(bench("cache/warm_mult_big@1", || {
        let svc = cli::service::OptService::new(Some(cache_file.clone()));
        let job = svc
            .run_job(black_box(mult), &cache_passes, 1, None)
            .expect("pure rewrite pipeline");
        assert!(job.cached, "warm row must be a result-tier hit");
        black_box(job.result.num_gates())
    }));
    let warm_delta = obs::metrics::global_snapshot().since(&warm_before);
    std::fs::remove_file(&cache_file).ok();

    // Flush-scaling rows: one iteration puts one new 14 KB result into a
    // service whose cache file already holds N results, and flushes it.
    // An append costs the same whatever N is; a whole-file rewrite grows
    // with N (about 12x from 64 to 1024). The ci.sh flush-scaling gate
    // holds the ratio at or under 2x.
    let record_circuit = {
        let probe = io::blif::Blif::from_mig(&ripple_chain(64), "bench")
            .to_text()
            .len();
        io::blif::Blif::from_mig(&ripple_chain(64 * (14 << 10) / probe), "bench").to_text()
    };
    let record = |key: u64| fcache::ResRecord {
        key,
        check: !key,
        pipeline: "fhash!:TFD #j1".into(),
        size: 1000,
        depth: 40,
        circuit: record_circuit.clone(),
    };
    for held in [64u64, 1024] {
        let path = std::env::temp_dir().join(format!("bench_flush_{}.cache", std::process::id()));
        let records: Vec<_> = (0..held).map(record).collect();
        fcache::save_path(&path, &records).expect("cache file");
        let svc = cli::service::OptService::new(Some(path.clone()));
        // The first flush of a process rewrites the file; time the rest.
        svc.flush().expect("cache flush");
        let mut key = held;
        ms.push(bench(&format!("cache/flush_one_into_{held}"), || {
            svc.results().put(record(key));
            key += 1;
            svc.flush().expect("cache flush")
        }));
        std::fs::remove_file(&path).ok();
    }

    // Daemon throughput (ISSUE 9): four concurrent clients against an
    // in-process `migd` worker pool, four distinct ripple carries per
    // round. After the first round every job is a result-tier hit, so
    // the row prices the protocol + cache round-trip under concurrency.
    let migd_sock = std::env::temp_dir().join(format!("bench_migd_{}.sock", std::process::id()));
    let migd_service = std::sync::Arc::new(cli::service::OptService::new(None));
    let migd_runner = std::sync::Arc::new(cli::daemon::PipelineRunner::new(migd_service));
    let serve_sock = migd_sock.clone();
    let migd_thread =
        std::thread::spawn(move || migd::serve(&serve_sock, 4, migd_runner).expect("serve"));
    while !migd::ping(&migd_sock).unwrap_or(false) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let migd_reqs: Vec<migd::JobRequest> = [64usize, 96, 128, 160]
        .iter()
        .map(|&n| migd::JobRequest {
            id: format!("chain{n}"),
            pipeline: "fhash!:TFD".into(),
            threads: 1,
            format: "blif".into(),
            circuit: io::blif::Blif::from_mig(&ripple_chain(n), "bench").to_text(),
        })
        .collect();
    let migd_row = bench("migd/jobs4_throughput", || {
        let clients: Vec<_> = migd_reqs
            .iter()
            .cloned()
            .map(|req| {
                let sock = migd_sock.clone();
                std::thread::spawn(move || {
                    migd::submit(&sock, &req, |_| {})
                        .expect("submit")
                        .outcome
                        .ok
                })
            })
            .collect();
        assert!(clients.into_iter().all(|c| c.join().unwrap()));
    });
    let migd_jobs_per_s = 4.0 / (migd_row.mean_ns / 1e9);
    ms.push(migd_row);
    migd::shutdown(&migd_sock).expect("daemon shutdown");
    migd_thread.join().expect("daemon thread");

    // Request-parse scaling rows: `migd::parse_request` on a job whose
    // BLIF circuit is 256 KiB and 1 MiB. A linear parser costs about 4x
    // more on the larger line and a quadratic one about 16x; the ci.sh
    // scaling gate holds the ratio at or under 6x.
    let chain_text = |n: usize| io::blif::Blif::from_mig(&ripple_chain(n), "bench").to_text();
    let probe = chain_text(1024).len();
    for (label, bytes) in [("256k", 256usize << 10), ("1m", 1 << 20)] {
        let line = migd::render_request(&migd::Request::Job(migd::JobRequest {
            id: format!("parse_{label}"),
            pipeline: "fhash!:TFD".into(),
            threads: 1,
            format: "blif".into(),
            circuit: chain_text(bytes * 1024 / probe),
        }));
        ms.push(bench(&format!("migd/parse_request_{label}"), || {
            migd::parse_request(black_box(&line)).is_ok()
        }));
    }

    // Derived-rate context rows from the metric registry: one
    // instrumented sched/chain512@4 run contributes regions/sec and the
    // cut-cache hit rate, so the timing rows above carry workload
    // context in BENCH_micro.json.
    let t0 = std::time::Instant::now();
    let ((), delta) = obs::metrics::scoped(|| {
        let mut m = chains.clone();
        let _ = engine.converge(&mut m, fhash::Variant::TopDown, 4);
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut rates = obs::export::derived_rates(&delta, elapsed);
    // Corpus / storage context for the rows above: instance sizes, the
    // churned graph's layout gauges and the compaction count of one
    // instrumented epfl_big run, so the JSON is self-describing.
    rates.push(("corpus.mult_big_gates".into(), mult.num_gates() as f64));
    rates.push(("corpus.epfl_big_gates".into(), epfl.num_gates() as f64));
    rates.push(("corpus.ctrl_deep_gates".into(), deep.num_gates() as f64));
    rates.push((
        "corpus.epfl_big_churned_gates".into(),
        churned.num_gates() as f64,
    ));
    rates.push((
        "mig.bytes_per_node_churned".into(),
        churned.bytes_per_node() as f64,
    ));
    rates.push((
        "mig.dead_slot_pct_churned".into(),
        churned.dead_slot_pct() as f64,
    ));
    let ((), big_delta) = obs::metrics::scoped(|| {
        let mut m = epfl.clone();
        let _ = engine.converge(&mut m, fhash::Variant::TopDown, 1);
    });
    rates.push((
        "sched.compactions_epfl_big".into(),
        big_delta.get(obs::Metric::SchedCompactions) as f64,
    ));
    // Cache context for the cache/migd rows: the warm row's hit rates
    // (every iteration should be a pure result-tier hit) and the
    // daemon's four-client throughput.
    let warm_hits = warm_delta.get(obs::Metric::CacheResultHits) as f64;
    let warm_lookups = warm_hits + warm_delta.get(obs::Metric::CacheResultMisses) as f64;
    rates.push((
        "cache.result_hit_rate_warm".into(),
        if warm_lookups > 0.0 {
            warm_hits / warm_lookups
        } else {
            0.0
        },
    ));
    rates.push((
        "cache.loaded_per_warm_run".into(),
        warm_delta.get(obs::Metric::CacheLoaded) as f64,
    ));
    rates.push(("migd.jobs_per_s".into(), migd_jobs_per_s));
    for (label, value) in &rates {
        println!("{label:<44} {value:>10.3}");
    }

    write_json_with_context("micro", &ms, &rates);
}
