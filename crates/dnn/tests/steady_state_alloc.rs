//! A compiled CNN forward in steady state allocates no large per-call
//! buffer: once a first forward has run on a thread, the eager GEMM's
//! decoded B tile and the conv lowering's `cols` / `staged` buffers are
//! the thread's own, kept at their high-water mark, and a second forward
//! of the same shape reuses them.
//!
//! A counting global allocator records every allocation of the process
//! while armed. This is deliberately the **only** test in this binary, so
//! no other test allocates while it counts.

use daism_core::{ApproxFpMul, MultiplierConfig};
use daism_dnn::{models, Tensor};
use daism_num::FpFormat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// An allocation this large (or larger) in steady state is a per-call
/// buffer: every activation of the test model at batch 8 is smaller.
const LARGE: usize = 128 << 10;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn record(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(size, Ordering::Relaxed);
            LARGEST.fetch_max(size, Ordering::Relaxed);
            if size >= LARGE {
                LARGE_COUNT.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(bytes, largest, count of LARGE)` allocated while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (usize, usize, usize)) {
    BYTES.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    LARGE_COUNT.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    let load = |a: &AtomicUsize| a.load(Ordering::Relaxed);
    (r, (load(&BYTES), load(&LARGEST), load(&LARGE_COUNT)))
}

#[test]
fn a_second_compiled_forward_allocates_no_large_buffer() {
    // perfbench's serving CNN at its bf16 burst: conv2's eager GEMM
    // decodes a 72 × 512 B tile (a 296 KiB slab) and lowers 147 KiB of
    // `cols`.
    let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    let model = models::mini_vgg(16, 4);
    let compiled = model.compile(&mul);
    let x = Tensor::randn(&[8, 1, 16, 16], 1.0, 23);

    let (first, (warm_bytes, warm_largest, _)) = counted(|| compiled.forward(&x));
    let (second, (bytes, largest, large)) = counted(|| compiled.forward(&x));

    assert_eq!(first, second, "the same forward twice");
    assert!(warm_largest >= LARGE, "the warm-up allocates the large buffers: {warm_largest} B");
    assert_eq!(
        large, 0,
        "the second forward made {large} allocations of {LARGE} B or more (largest {largest} B)"
    );
    assert!(
        bytes < warm_bytes,
        "the second forward allocated {bytes} B, the warm-up {warm_bytes} B"
    );
}
