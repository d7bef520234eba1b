//! Memory bound for the text readers: the peak live heap while a text
//! is parsed and converted to an [`Mig`] stays within a constant multiple
//! of the text's length, plus a small constant. A counting global
//! allocator tracks live bytes, so a reader that keeps a string per
//! token, or a conversion that copies the document again, fails here.
//!
//! The inputs are the checked-in benchmarks, their hostile-input mutants
//! and one generated 44k-gate circuit. Binary AIGER is left out: its
//! inputs are implicit, so a 28-byte header can declare millions of them.
//!
//! [`Mig`]: mig::Mig

mod common;

use io::aiger::Aiger;
use io::blif::Blif;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one is freed: a moving
        // realloc holds both.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The most heap `f` holds at once beyond what was live before it ran.
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    drop(std::hint::black_box(f()));
    PEAK.load(Ordering::Relaxed) - before
}

/// Peak heap of each reader, parse and conversion together, on `text`.
fn peaks(text: &str) -> [usize; 2] {
    [
        peak_of(|| Blif::parse(text).and_then(|doc| doc.to_mig())),
        peak_of(|| Aiger::parse_ascii(text).and_then(|doc| doc.to_mig())),
    ]
}

/// Allowed peak per byte of text, for BLIF and for ASCII AIGER. On the
/// 44k-gate circuit the BLIF reader peaks at 4.8 bytes per byte of text
/// (the per-gate-string document it replaced at 11.3) and the ASCII
/// AIGER reader at 11.8.
const PER_BYTE: [usize; 2] = [8, 16];
/// Allowed peak on top of that for any text. The largest peak on a
/// small text is 18 KiB.
const SLACK: usize = 64 << 10;

#[test]
fn peak_heap_stays_within_a_multiple_of_the_text() {
    // One test, so no other test allocates while a peak is measured.
    let mut texts: Vec<(String, String)> = common::FILES
        .iter()
        .map(|&f| {
            let text = String::from_utf8_lossy(&common::read(f)).into_owned();
            (f.to_string(), text)
        })
        .collect();
    common::for_each_mutant(|name, case, bytes| {
        let text = String::from_utf8_lossy(bytes).into_owned();
        texts.push((format!("{name} mutant {case}"), text));
    });
    let big = aig::to_mig(&aig::from_mig(&benchgen::multiplier(64)));
    assert!(big.num_gates() >= 40_000, "{} gates", big.num_gates());
    texts.push(("mult:64 blif".into(), Blif::from_mig(&big, "big").to_text()));
    texts.push(("mult:64 aag".into(), Aiger::from_mig(&big).to_ascii()));
    drop(big);

    let mut worst = [0.0f64; 2];
    for (name, text) in &texts {
        for (reader, peak) in peaks(text).into_iter().enumerate() {
            let bound = PER_BYTE[reader] * text.len() + SLACK;
            assert!(
                peak <= bound,
                "{name}: {} peaked at {peak} bytes for {} bytes of text (bound {bound})",
                ["Blif", "Aiger"][reader],
                text.len()
            );
            if text.len() > SLACK {
                worst[reader] = worst[reader].max(peak as f64 / text.len() as f64);
            }
        }
    }
    println!(
        "peak heap per byte of large texts: blif {:.2}, aag {:.2}",
        worst[0], worst[1]
    );
}
