//! Allocation bound for the solver's hot paths: once its buffers have
//! grown, a conflict (analysis, minimization, LBD, learning the clause)
//! allocates nothing, and neither does an `add_clause` that the solver
//! drops as satisfied. A counting global allocator tallies every
//! allocation; what remains per conflict is the amortized growth of the
//! clause arena and the watch lists, and the buffer of each database
//! reduction's stable sort.

use sat::{Lit, SatResult, Solver, Var};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// One test, so no other test thread allocates while it counts. The
/// formula is pigeonhole 9 into 8, which no budget below takes to a
/// verdict.
#[test]
fn conflicts_and_dropped_clauses_do_not_allocate() {
    let n = 9;
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> = (0..n)
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
    let vars: Vec<Var> = p.iter().flatten().map(|l| l.var()).collect();
    let a = vars[0].positive();

    // Warm up: the buffers and the watch lists grow to their working
    // sizes.
    s.set_conflict_budget(Some(2_000));
    assert_eq!(s.solve_assuming(&[a]), SatResult::Unknown);

    let before = s.stats().conflicts;
    s.set_conflict_budget(Some(4_000));
    let (r, allocs) = allocations(|| s.solve_assuming(&[a]));
    assert_eq!(r, SatResult::Unknown);
    let conflicts = s.stats().conflicts - before;
    assert!(
        allocs * 20 < conflicts,
        "{allocs} allocations over {conflicts} conflicts"
    );

    // A tautology and a clause with a literal true at level 0 are
    // dropped after normalization, in the reused buffer.
    let unit = vars[1].positive();
    s.add_clause(&[unit]);
    let (_, allocs) = allocations(|| {
        for k in 2..vars.len() {
            let v = vars[k];
            s.add_clause(&[v.positive(), vars[k - 1].negative(), v.negative()]);
            s.add_clause(&[v.positive(), unit, vars[k - 2].negative()]);
        }
    });
    assert_eq!(allocs, 0, "dropped clauses allocated");
}
