//! The streaming merge's memory is flat in the cell count
//! (DESIGN.md §12.3): `Campaign::merge_files` holds K line readers,
//! one parsed record and the running aggregate, never the merged
//! report.
//!
//! A counting global allocator records the peak live heap bytes above
//! the level just before `merge_files` runs, so the gate reads heap
//! bytes, not host RSS, and gives the same answer on every run. The
//! campaign's own grid definition (~1.2 kB per cell) is the merge's
//! *input* and is allocated before the measurement starts.
//!
//! The allocator counts every thread of this test binary, so the
//! binary holds exactly one `#[test]`: nothing else may allocate while
//! a merge is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use vsv::{Campaign, Experiment, JobRecord, MergeOptions, Sweep, SweepJob, SystemConfig};
use vsv_workloads::twin;

/// Live heap bytes.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live bytes and their peak.
struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::SeqCst);
    }
}

// SAFETY: each method passes its caller's arguments unchanged to the
// same method of `System`, so `System` receives exactly the guarantees
// `GlobalAlloc` demands of our caller, and the pointer it returns is
// returned untouched. The counters only read layout sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size > layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                Self::shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Shards of every synthesized campaign, so the reader-count term of
/// the merge is the same at both sizes.
const SHARDS: usize = 2;

/// The largest ratio of the 1,500-cell peak to the 10-cell peak.
const GATE: f64 = 1.25;

/// One memory-bound cell replicated `cells` times.
fn stress_sweep(cells: usize) -> Sweep {
    let e = Experiment {
        warmup_instructions: 1_000,
        instructions: 3_000,
    };
    let job = SweepJob {
        params: twin("mcf").expect("mcf is in the suite"),
        config: SystemConfig::baseline(),
    };
    Sweep::new(e, vec![job; cells])
}

/// Peak heap bytes `merge_files` holds above its starting level when
/// it merges a `cells`-cell campaign. The shard files are clones of
/// `template` with the local grid index patched in (the cells are
/// identical, so the per-record digests validate).
fn merge_peak(cells: usize, template: &JobRecord, dir: &Path) -> usize {
    let campaign = Campaign::new(stress_sweep(cells), SHARDS).expect("valid shard count");
    let inputs: Vec<PathBuf> = (0..SHARDS)
        .map(|s| {
            let path = dir.join(format!("stress-{cells}-shard{s}.jsonl"));
            let records: Vec<JobRecord> = (0..campaign.shard_len(s))
                .map(|j| {
                    let mut r = template.clone();
                    r.job = j;
                    r
                })
                .collect();
            campaign
                .write_shard_file(s, &records, &path, 0)
                .unwrap_or_else(|err| panic!("synthesize shard {s}: {err}"));
            path
        })
        .collect();
    let out = dir.join(format!("stress-{cells}-merged.json"));
    let opts = MergeOptions { workers: 1 };

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let summary = campaign
        .merge_files(&inputs, &opts, &out)
        .unwrap_or_else(|err| panic!("merge of {cells} cells: {err}"));
    let peak = PEAK.load(Ordering::SeqCst) - before;

    assert_eq!((summary.cells, summary.failed), (cells, 0));
    peak
}

#[test]
fn streaming_merge_peak_heap_is_flat_in_the_cell_count() {
    let dir = std::env::temp_dir().join(format!("vsv-merge-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    let template = stress_sweep(1).report(1).records.swap_remove(0);

    let small = merge_peak(10, &template, &dir);
    let large = merge_peak(1_500, &template, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    let growth = large as f64 / small as f64;
    assert!(
        growth < GATE,
        "merge peak heap grew {growth:.3}x from 10 cells ({small} B) to 1500 \
         ({large} B); gate < {GATE}x"
    );
}
