//! Allocation-regression smoke for the cut kernels: once a [`CutSet`]'s
//! buffers are warm, the steady-state incremental loop — refresh the
//! set after a rewrite, re-enumerate the stale lists out of the arena —
//! must perform zero heap allocations. A counting global allocator makes
//! any regression (a stray `to_vec`, an allocating sort, a fresh
//! traversal stack) fail loudly instead of silently costing 10% on the
//! bench.
//!
//! [`CutSet`]: cuts::CutSet

use cuts::{enumerate_cuts, CutConfig, CutSet};
use mig::{Mig, NodeId, Signal};
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

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random majority network over the first `inputs` inputs of a graph
/// with two spare inputs, which only the rewrite toggle below uses.
fn random_mig(seed: u64, inputs: usize, gates: usize) -> Mig {
    let mut s = seed.max(1);
    let mut m = Mig::new(inputs + 2);
    let mut pool: Vec<Signal> = (0..inputs).map(|i| m.input(i)).collect();
    for _ in 0..gates {
        let pick = |s: &mut u64, pool: &[Signal]| {
            let sig = pool[(xorshift(s) as usize) % pool.len()];
            if xorshift(s) & 1 == 1 {
                !sig
            } else {
                sig
            }
        };
        let a = pick(&mut s, &pool);
        let b = pick(&mut s, &pool);
        let c = pick(&mut s, &pool);
        pool.push(m.maj(a, b, c));
    }
    let out = *pool.last().unwrap();
    m.add_output(out);
    m
}

#[test]
fn steady_state_cut_recomputation_does_not_allocate() {
    const INPUTS: usize = 10;
    let mut m = random_mig(0xA110C, INPUTS, 220);
    // The two spare inputs feed two gates no random gate can equal, so
    // swapping one for the other rewrites the same fanout cone every
    // time and the slot count stays put.
    let (x, y, z) = (m.input(INPUTS), m.input(INPUTS + 1), m.input(0));
    let variant = |m: &mut Mig, flip: bool| m.maj(x, y.complement_if(flip), z);
    let gates: Vec<NodeId> = m.gates().collect();
    let victim = gates[gates.len() / 3];
    let mut current = variant(&mut m, false);
    assert!(
        m.replace_node(victim, current),
        "test premise: victim rewired"
    );
    let mut cs = enumerate_cuts(&m, &CutConfig::default());

    // One cycle: rewrite the cone (not counted: graph edits may
    // allocate), then refresh the set and bring every list up to date
    // (counted).
    let mut flip = false;
    let mut cycle = |m: &mut Mig, cs: &mut CutSet| -> u64 {
        flip = !flip;
        let next = variant(m, flip);
        assert!(m.replace_node(current.node(), next));
        current = next;
        let before = ALLOCS.load(Ordering::Relaxed);
        cs.refresh(m);
        assert!(
            m.gates().any(|g| !cs.is_valid(g)),
            "the rewrite staled no list"
        );
        for g in m.gates() {
            assert!(!cs.of_updated(m, g).is_empty());
        }
        ALLOCS.load(Ordering::Relaxed) - before
    };

    // Warm-up: grows the arena pool, range table and scratch buffers to
    // their high-water marks, and runs past the pool's first in-place
    // compaction (about nine cycles in), which warms its index buffer.
    for _ in 0..16 {
        cycle(&mut m, &mut cs);
    }
    let allocs: u64 = (0..10).map(|_| cycle(&mut m, &mut cs)).sum();
    assert_eq!(
        allocs, 0,
        "steady-state refresh + recomputation allocated {allocs} times over 10 cycles"
    );
}
