//! Shard files and multi-process sweep campaigns: sharding, shard
//! execution with checkpoint/resume, and the streaming O(1) merge.
//!
//! A [`crate::Sweep`] runs a grid in memory. Everything that puts a
//! grid's records in a file lives here, in one format: the JSONL
//! *shard file*, a header line pinning the grid, the experiment scale
//! and the file's place in a campaign, then one [`JobRecord`] line per
//! finished cell. A checkpointed single-process sweep is shard 0 of a
//! one-shard campaign,
//! `Campaign::new(sweep, 1)?.run_shard(0, workers, path, fresh)`, which
//! is what the CLI's `sweep --checkpoint` (`fresh`) and `--resume` run.
//!
//! A [`Campaign`] turns a grid into a fleet-sized object under a
//! trivial `shard-id/total-shards` contract:
//!
//! * **plan** — the grid is partitioned into `K` shards *interleaved
//!   by grid index*: global cell `g` belongs to shard `g % K`, and
//!   shard `s`'s local cell `j` is global cell `g = s + j·K`. The
//!   mapping is a bijection fixed by `(s, K)` alone, so any process
//!   anywhere can compute its share without coordination, and the
//!   interleaving load-balances params-major grids (consecutive
//!   cells — the same workload under different configs — land on
//!   different shards).
//! * **run** — [`Campaign::run_shard`] runs one shard's cells as an
//!   ordinary in-memory sweep and appends each finished record to the
//!   shard file as it completes, flushed per line, so a killed shard
//!   loses at most its in-flight cells. Resuming validates the header
//!   and every cached record against the plan, truncates a
//!   half-written final line, and re-runs only the missing cells
//!   (failed cells are cached too); a missing file resumes as a fresh
//!   run. A completed shard file is then *finalized* into local grid
//!   order with its header `wall_ns` stamped (records are appended in
//!   completion order while running), which is what makes the K-way
//!   merge a single forward pass. A finalized file is itself a valid
//!   checkpoint, so re-running a finished shard rewrites identical
//!   bytes.
//! * **merge** — [`Campaign::merge_to_writer`] stream-reads the `K`
//!   files in grid order (cell `g` comes from reader `g % K`),
//!   validates each shard header and each record's workload and
//!   config digest against the planned grid, rewrites the local job
//!   index to the global one, folds metrics through the same
//!   [`ReportAggregator`] the in-process sweep uses, and emits a
//!   [`SweepReport`] JSON document **byte-identical** (wall-clock
//!   fields aside) to `serde_json::to_string_pretty` of the
//!   single-process [`crate::Sweep::report`]. Memory is O(1) in
//!   cells: `K` buffered readers plus one in-flight record plus the
//!   running aggregate — never the grid's records.
//!
//! Resume and merge check a file the same way: its header against the
//! one header [`Campaign`] plans for the shard (format version, cell
//! count, experiment scale, shard position, then the grid, where a
//! [`CampaignError::GridMismatch`] names the first differing axis),
//! and each record through one validator. Every failure is one
//! [`CampaignError`].
//!
//! Byte fidelity rests on two properties pinned elsewhere: the JSON
//! codec round-trips every scalar exactly (integers stay integers,
//! floats are shortest-round-trip — `vendor/serde_json`), and struct
//! fields serialize in declaration order, so re-serializing a parsed
//! [`JobRecord`] reproduces the bytes the single-process writer
//! would have produced. `tests/campaign_equivalence.rs` pins the
//! end-to-end guarantee and `tests/fault_tolerance.rs` the
//! checkpoint/resume one.
//!
//! Top-level `wall_ns` is the one deliberate divergence: a merged
//! report has no single-process wall time, so it carries the **sum**
//! of the wall clocks stamped into the finalized shard headers —
//! each itself the sum of that shard's per-cell wall clocks, i.e.
//! total compute spent, not elapsed time (the merge's own wall time
//! lives in [`MergeSummary::wall_ns`]). Summing the cached per-cell
//! clocks keeps shard finalization idempotent: resuming a finished
//! shard rewrites byte-identical headers. Comparisons zero
//! wall-clock fields anyway — the determinism contract in
//! `docs/observability.md`.

use std::io::{BufRead, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::sweep::{config_digest, JobRecord, ReportAggregator, Sweep, SweepJob, SweepReport};

/// A sweep grid partitioned into `K` interleaved shards.
///
/// ```
/// use vsv::{Campaign, Experiment, Sweep, SystemConfig};
/// use vsv_workloads::twin;
///
/// let twins = [twin("gzip").unwrap(), twin("ammp").unwrap(), twin("mcf").unwrap()];
/// let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
/// let sweep = Sweep::over_grid(
///     Experiment { warmup_instructions: 500, instructions: 2_000 },
///     &twins,
///     &configs,
/// );
/// // 6 cells over 4 shards: interleaved, so 4 does not have to
/// // divide 6 — shards 0 and 1 get 2 cells, shards 2 and 3 get 1.
/// let campaign = Campaign::new(sweep, 4).unwrap();
/// assert_eq!(campaign.shard_cells(0).collect::<Vec<_>>(), [0, 4]);
/// assert_eq!(campaign.shard_cells(3).collect::<Vec<_>>(), [3]);
/// assert_eq!((0..4).map(|s| campaign.shard_len(s)).sum::<usize>(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    sweep: Sweep,
    shards: usize,
}

/// Options for [`Campaign::merge_to_writer`].
#[derive(Debug, Clone)]
pub struct MergeOptions {
    /// Worker count to stamp into the merged report's `workers`
    /// field. Clamped exactly like [`crate::Sweep::report`] clamps
    /// its argument, so passing the same value the single-process
    /// comparison run used reproduces its bytes.
    pub workers: usize,
}

/// What a merge did: the aggregate counts a caller needs for exit
/// codes and logging without re-parsing the merged document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSummary {
    /// Cells merged (the full grid).
    pub cells: usize,
    /// Cells whose outcome was [`crate::JobOutcome::Failed`].
    pub failed: usize,
    /// Shard files consumed.
    pub shards: usize,
    /// Host wall-clock nanoseconds the merge took. Not deterministic.
    pub wall_ns: u64,
}

/// Dimension summary of a shard's grid, carried in every shard file
/// header. The human-readable axes (distinct workloads, policies,
/// ladder depths, core counts, FSM policies) make a
/// [`CampaignError::GridMismatch`] explain *which* dimension drifted;
/// `grid_digest` pins the exact per-cell (workload, config) sequence,
/// so two grids summarize equal iff they are cell-for-cell identical.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
struct GridSummary {
    /// Cell count (mirrors the header's `jobs`, keeping the summary
    /// self-contained).
    cells: usize,
    /// Distinct workload names, sorted, comma-joined.
    workloads: String,
    /// Distinct DVS policy names, sorted, comma-joined.
    policies: String,
    /// Distinct voltage-ladder depths, sorted, comma-joined.
    ladders: String,
    /// Distinct core counts, sorted, comma-joined. Defaults to `"1"`
    /// when absent (the multicore axis is newer than the summary
    /// itself).
    #[serde(default = "default_cores_axis")]
    cores: String,
    /// Distinct down/up FSM policy pairs (threshold × window), sorted,
    /// `;`-joined.
    fsm: String,
    /// FNV-1a over every cell's `workload:config_digest` pair in grid
    /// order, as 16 hex digits.
    grid_digest: String,
}

/// Serde default for [`GridSummary::cores`]: pre-multicore grids were
/// all single-core.
fn default_cores_axis() -> String {
    "1".to_owned()
}

/// First line of every shard file: the shard's place in its campaign
/// (`0`/`1` for a plain checkpointed sweep), its cell count, the
/// experiment scale and the [`GridSummary`]. Resume and merge reject a
/// file whose header differs from the one planned for the shard before
/// reading any record.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
struct ShardHeader {
    version: u32,
    jobs: usize,
    warmup_instructions: u64,
    instructions: u64,
    shard: usize,
    shards: usize,
    /// Host wall-clock nanoseconds of the run that produced the file:
    /// `0` while a shard is still appending (the header is written
    /// before any cell runs), stamped with the sum of the shard's
    /// per-cell wall clocks when the file is finalized. **Not**
    /// deterministic, and deliberately ignored by
    /// [`Campaign::check_header`].
    #[serde(default)]
    wall_ns: u64,
    grid: GridSummary,
}

// v2: `JobRecord` gained its `metrics` registry; v3: the `ladder`
// depth field (N-level voltage ladders); v4: the header gained the
// grid-dimension summary and the campaign shard contract, and
// `SweepReport` moved `metrics` after `records` for single-pass
// streaming merges; v5: `JobRecord` gained the `slo` outcome field
// and the header gained the finalized shard `wall_ns`; v6: the
// service-traffic subsystem — `SystemConfig` gained the `traffic`
// axis (part of the config digest), `MetricsRegistry` the request
// counters and log2 latency histogram, and `SloSpec`/`SloOutcome`/
// `RunResult` the request-latency ceilings and percentiles; v7:
// multicore — `SystemConfig` gained the `cores` axis (part of the
// config digest, so every v6 digest changed), `JobRecord` the `cores`
// field, the grid summary its `cores` dimension, and `RunResult` the
// per-core `core_results` vector. Older files no longer round-trip
// and are rejected by the version check.
const CHECKPOINT_VERSION: u32 = 7;

/// Placeholder path in [`CampaignError::Io`] for failures writing or
/// re-parsing the merged document.
const MERGE_OUTPUT: &str = "<merge output>";

/// Why a campaign or shard-file operation failed.
#[derive(Debug)]
pub enum CampaignError {
    /// A campaign needs at least one shard.
    InvalidShardCount {
        /// The rejected count.
        shards: usize,
    },
    /// A shard index at or beyond the shard count.
    ShardOutOfRange {
        /// The rejected index.
        shard: usize,
        /// The campaign's shard count.
        shards: usize,
    },
    /// Merge was handed the wrong number of input files.
    InputCount {
        /// The campaign's shard count.
        expected: usize,
        /// Files supplied.
        found: usize,
    },
    /// Filesystem failure (open, append, truncate, rename).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        error: String,
    },
    /// A shard file line failed to parse — beyond the half-written
    /// final line a resume tolerates.
    ShardCorrupt {
        /// The shard whose file is corrupt.
        shard: usize,
        /// 1-based line number.
        line: usize,
        /// Parse error.
        error: String,
    },
    /// The header does not match the shard (different format version,
    /// cell count, experiment scale or shard position).
    HeaderMismatch {
        /// What differed.
        reason: String,
    },
    /// The header's grid-dimension summary does not match the shard:
    /// same cell count and scale, but a different workloads ×
    /// policies × ladders × cores × FSM-threshold grid. Caught at the
    /// header, before any per-record check, instead of producing a
    /// silently misaligned report.
    GridMismatch {
        /// Which dimension differed, file vs. plan.
        reason: String,
    },
    /// A shard file ended before yielding its share of the grid.
    MissingCell {
        /// The global grid cell that has no record.
        cell: usize,
        /// The shard that should have held it.
        shard: usize,
    },
    /// A record does not belong to its shard: a local index outside
    /// the shard, out of grid order in a file that must be finalized,
    /// or a workload or config digest other than the grid's.
    RecordMismatch {
        /// The global grid cell the record names (or, out of grid
        /// order, the one being read).
        cell: usize,
        /// The shard the record came from.
        shard: usize,
        /// What differed.
        reason: String,
    },
    /// A shard file holds more records than its share of the grid.
    TrailingData {
        /// The shard with extra records.
        shard: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidShardCount { shards } => {
                write!(f, "campaign shard count must be >= 1, got {shards}")
            }
            CampaignError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} outside campaign of {shards} shard(s)")
            }
            CampaignError::InputCount { expected, found } => write!(
                f,
                "campaign merge needs exactly {expected} shard file(s), got {found}"
            ),
            CampaignError::Io { path, error } => {
                write!(f, "shard file io error at {path}: {error}")
            }
            CampaignError::ShardCorrupt { shard, line, error } => {
                write!(f, "shard {shard} file corrupt at line {line}: {error}")
            }
            CampaignError::HeaderMismatch { reason } => {
                write!(f, "shard file header mismatch: {reason}")
            }
            CampaignError::GridMismatch { reason } => {
                write!(f, "shard file grid mismatch: {reason}")
            }
            CampaignError::MissingCell { cell, shard } => write!(
                f,
                "shard {shard} file ended before grid cell {cell} (incomplete shard run?)"
            ),
            CampaignError::RecordMismatch {
                cell,
                shard,
                reason,
            } => write!(
                f,
                "shard {shard} record does not match grid cell {cell}: {reason}"
            ),
            CampaignError::TrailingData { shard } => write!(
                f,
                "shard {shard} file holds records beyond its share of the grid"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The validated prefix of an existing shard file.
struct LoadedShard {
    /// Cached records by local index.
    records: Vec<Option<JobRecord>>,
    /// Byte length of the valid prefix (everything after is a
    /// half-written crash tail to truncate away).
    valid_len: u64,
    /// Whether the valid prefix ends without a newline (a record fully
    /// written but unterminated — the next append must start on a
    /// fresh line).
    needs_newline: bool,
    /// Whether a valid header line was found.
    has_header: bool,
}

impl LoadedShard {
    /// No header and no cached cells: a fresh run of `cells` cells.
    fn empty(cells: usize) -> Self {
        LoadedShard {
            records: vec![None; cells],
            valid_len: 0,
            needs_newline: false,
            has_header: false,
        }
    }
}

impl Campaign {
    /// A campaign over `sweep`'s grid, partitioned into `shards`
    /// interleaved shards. `shards` may exceed the cell count — the
    /// surplus shards are simply empty.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidShardCount`] if `shards` is zero.
    pub fn new(sweep: Sweep, shards: usize) -> Result<Self, CampaignError> {
        if shards == 0 {
            return Err(CampaignError::InvalidShardCount { shards });
        }
        Ok(Campaign { sweep, shards })
    }

    /// The underlying full-grid sweep.
    #[must_use]
    pub fn sweep(&self) -> &Sweep {
        &self.sweep
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The global grid indices owned by `shard`: `shard`,
    /// `shard + K`, `shard + 2K`, …
    pub fn shard_cells(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        (shard..self.sweep.len()).step_by(self.shards)
    }

    /// Number of cells `shard` owns.
    #[must_use]
    pub fn shard_len(&self, shard: usize) -> usize {
        if shard >= self.sweep.len() {
            0
        } else {
            (self.sweep.len() - shard).div_ceil(self.shards)
        }
    }

    fn check_shard(&self, shard: usize) -> Result<(), CampaignError> {
        if shard >= self.shards {
            return Err(CampaignError::ShardOutOfRange {
                shard,
                shards: self.shards,
            });
        }
        Ok(())
    }

    /// `shard`'s jobs in local grid order: a strided view of the full
    /// grid (local cell `j` is global cell `shard + j·K`).
    fn shard_jobs(&self, shard: usize) -> impl Iterator<Item = &SweepJob> + '_ {
        self.sweep.jobs().iter().skip(shard).step_by(self.shards)
    }

    /// The ordinary [`Sweep`] over `shard`'s cells, in local grid
    /// order (local cell `j` is global cell `shard + j·K`).
    ///
    /// # Errors
    ///
    /// [`CampaignError::ShardOutOfRange`] if `shard >= shards`.
    pub fn shard_sweep(&self, shard: usize) -> Result<Sweep, CampaignError> {
        self.check_shard(shard)?;
        let jobs = self.shard_jobs(shard).copied().collect();
        Ok(Sweep::new(self.sweep.experiment, jobs))
    }

    /// Runs (or resumes) one shard, appending each finished record to
    /// the shard file at `path`, then finalizes the file into local
    /// grid order so the merge can consume it in one forward pass.
    ///
    /// With `fresh` true the file is created (or truncated) and every
    /// cell runs. With `fresh` false an existing file is resumed: its
    /// header and every cached record are validated against this
    /// shard, a half-written final line is truncated away, and only
    /// the missing cells run. A missing or empty file resumes as a
    /// fresh run, and a finalized complete file is a valid checkpoint,
    /// so re-running a finished shard is an idempotent no-op (cells
    /// are cached, the file is re-finalized). The report is
    /// bit-identical, wall-clock fields aside, to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`CampaignError::ShardOutOfRange`]; a
    /// [`CampaignError::ShardCorrupt`] non-final line; a
    /// [`CampaignError::HeaderMismatch`],
    /// [`CampaignError::GridMismatch`] or
    /// [`CampaignError::RecordMismatch`] when the file belongs to
    /// another grid; or [`CampaignError::Io`] from the run or the
    /// finalize rewrite.
    pub fn run_shard(
        &self,
        shard: usize,
        workers: usize,
        path: &Path,
        fresh: bool,
    ) -> Result<SweepReport, CampaignError> {
        let sub = self.shard_sweep(shard)?;
        let (file, loaded) = if fresh {
            let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
            (file, LoadedShard::empty(sub.len()))
        } else {
            self.reopen_shard_file(shard, path)?
        };
        let mut writer = std::io::BufWriter::new(file);
        if !loaded.has_header {
            append_line(&mut writer, &self.shard_header(shard)).map_err(|e| io_err(path, e))?;
        }
        // Stream each fresh record to the file as it finishes; keep the
        // first write error and report it once the grid is done.
        let sink = Mutex::new((writer, None::<String>));
        let (report, _) = sub.run_grid(
            workers,
            loaded.records,
            &|record| {
                let mut guard = match sink.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let (writer, first_error) = &mut *guard;
                if first_error.is_none() {
                    *first_error = append_line(writer, record).err();
                }
            },
            None,
        );
        let (_, error) = match sink.into_inner() {
            Ok(pair) => pair,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(e) = error {
            return Err(io_err(path, e));
        }
        // Stamp the sum of the per-cell wall clocks (cached in the
        // file), not the run's elapsed time: resuming a finished shard
        // must rewrite identical bytes.
        let wall_ns = report
            .records
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(r.wall_ns));
        self.write_shard_file(shard, &report.records, path, wall_ns)?;
        Ok(report)
    }

    /// Opens `shard`'s file for a resumed run: loads and validates its
    /// readable prefix, truncates the crash tail and positions the
    /// handle for appending. A missing file loads as empty.
    fn reopen_shard_file(
        &self,
        shard: usize,
        path: &Path,
    ) -> Result<(std::fs::File, LoadedShard), CampaignError> {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io_err(path, e)),
        };
        let loaded = self.load_shard_file(shard, &content)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            // Deliberately not `truncate(true)`: the valid prefix must
            // survive; `set_len` below trims only the crash tail.
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(loaded.valid_len)
            .map_err(|e| io_err(path, e))?;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(path, e))?;
        if loaded.needs_newline {
            file.write_all(b"\n").map_err(|e| io_err(path, e))?;
        }
        Ok((file, loaded))
    }

    /// Parses and validates the readable prefix of `shard`'s file.
    /// Records may come in any order (a running shard appends them as
    /// they complete); duplicates, possible after repeated crash and
    /// resume cycles, resolve to the last.
    fn load_shard_file(&self, shard: usize, content: &str) -> Result<LoadedShard, CampaignError> {
        let mut loaded = LoadedShard::empty(self.shard_len(shard));
        let chunks: Vec<&str> = content.split_inclusive('\n').collect();
        for (idx, chunk) in chunks.iter().enumerate() {
            let terminated = chunk.ends_with('\n');
            let is_tail = idx + 1 == chunks.len() && !terminated;
            let line = chunk.trim_end_matches(['\n', '\r']);
            if line.is_empty() {
                loaded.valid_len += chunk.len() as u64;
                continue;
            }
            let corrupt = |e: serde_json::Error| CampaignError::ShardCorrupt {
                shard,
                line: idx + 1,
                error: e.to_string(),
            };
            if !loaded.has_header {
                match serde_json::from_str::<ShardHeader>(line) {
                    Ok(header) => self.check_header(shard, &header)?,
                    // A crash mid-header: drop it and start fresh.
                    Err(_) if is_tail => return Ok(loaded),
                    Err(e) => return Err(corrupt(e)),
                }
                loaded.has_header = true;
            } else {
                match serde_json::from_str::<JobRecord>(line) {
                    Ok(record) => {
                        self.validate_record(shard, &record, None)?;
                        let local = record.job;
                        loaded.records[local] = Some(record);
                    }
                    // The half-written line a kill can leave behind;
                    // the cell simply re-runs.
                    Err(_) if is_tail => return Ok(loaded),
                    Err(e) => return Err(corrupt(e)),
                }
            }
            loaded.valid_len += chunk.len() as u64;
            loaded.needs_newline = !terminated;
        }
        Ok(loaded)
    }

    /// Writes a complete, finalized shard file: the header (with
    /// `wall_ns` stamped into it — normally the sum of the shard's
    /// per-cell wall clocks, which the merge sums into the merged
    /// report's top-level `wall_ns`) followed by one compact JSONL
    /// [`JobRecord`] line per cell in local grid order, atomically
    /// (written to `<path>.tmp`, then renamed). Each record is
    /// validated against the planned grid before writing — this is
    /// also how the merge-memory test synthesizes large shard files
    /// without simulating every cell.
    ///
    /// # Errors
    ///
    /// [`CampaignError::RecordMismatch`]/[`CampaignError::MissingCell`]/
    /// [`CampaignError::TrailingData`] if `records` is not exactly
    /// the shard's share of the grid, or [`CampaignError::Io`].
    pub fn write_shard_file(
        &self,
        shard: usize,
        records: &[JobRecord],
        path: &Path,
        wall_ns: u64,
    ) -> Result<(), CampaignError> {
        self.check_shard(shard)?;
        let expected = self.shard_len(shard);
        if records.len() < expected {
            return Err(CampaignError::MissingCell {
                cell: shard + records.len() * self.shards,
                shard,
            });
        }
        if records.len() > expected {
            return Err(CampaignError::TrailingData { shard });
        }
        for (j, record) in records.iter().enumerate() {
            self.validate_record(shard, record, Some(j))?;
        }
        let tmp = path.with_file_name(match path.file_name().and_then(|n| n.to_str()) {
            Some(name) => format!("{name}.tmp"),
            None => "shard.tmp".to_owned(),
        });
        let file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        let mut writer = std::io::BufWriter::new(file);
        let mut header = self.shard_header(shard);
        header.wall_ns = wall_ns;
        append_line(&mut writer, &header).map_err(|e| io_err(&tmp, e))?;
        for record in records {
            append_line(&mut writer, record).map_err(|e| io_err(&tmp, e))?;
        }
        drop(writer);
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        Ok(())
    }

    /// The header `shard`'s file must carry, computed from a strided
    /// *view* of the full grid without cloning the shard's jobs
    /// (`wall_ns` is left `0`; validation ignores it and the finalize
    /// rewrite stamps the real value). The merge checks `K` of these,
    /// so borrowing keeps merge memory free of grid copies.
    fn shard_header(&self, shard: usize) -> ShardHeader {
        ShardHeader {
            version: CHECKPOINT_VERSION,
            jobs: self.shard_len(shard),
            warmup_instructions: self.sweep.experiment.warmup_instructions,
            instructions: self.sweep.experiment.instructions,
            shard,
            shards: self.shards,
            wall_ns: 0,
            grid: grid_summary(self.shard_jobs(shard)),
        }
    }

    /// Checks a parsed header against [`Campaign::shard_header`]:
    /// version, cell count, experiment scale and shard position
    /// mismatches are [`CampaignError::HeaderMismatch`]; a grid
    /// divergence is [`CampaignError::GridMismatch`], naming the first
    /// differing axis.
    fn check_header(&self, shard: usize, found: &ShardHeader) -> Result<(), CampaignError> {
        let expected = self.shard_header(shard);
        let mismatch = |what: &str, found: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(CampaignError::HeaderMismatch {
                reason: format!("file has {what} {found:?}, grid expects {want:?}"),
            })
        };
        if found.version != expected.version {
            return mismatch("version", &found.version, &expected.version);
        }
        if found.jobs != expected.jobs {
            return mismatch("jobs", &found.jobs, &expected.jobs);
        }
        let scale = |h: &ShardHeader| (h.warmup_instructions, h.instructions);
        if scale(found) != scale(&expected) {
            return mismatch("scale", &scale(found), &scale(&expected));
        }
        if (found.shard, found.shards) != (expected.shard, expected.shards) {
            return mismatch(
                "shard",
                &format!("{}/{}", found.shard, found.shards),
                &format!("{}/{}", expected.shard, expected.shards),
            );
        }
        if found.grid != expected.grid {
            return Err(CampaignError::GridMismatch {
                reason: grid_diff(&found.grid, &expected.grid),
            });
        }
        Ok(())
    }

    /// Checks that `record` belongs to `shard`: its local index lies
    /// in the shard, and it names the grid's workload and config
    /// digest for that cell. `at` is the local position the record was
    /// read at when the file must be in grid order (a finalized file,
    /// as the merge and the finalize rewrite require); `None` accepts
    /// any order (a running shard appends in completion order).
    fn validate_record(
        &self,
        shard: usize,
        record: &JobRecord,
        at: Option<usize>,
    ) -> Result<(), CampaignError> {
        let cell = shard.saturating_add(record.job.saturating_mul(self.shards));
        let mismatch = |cell: usize, reason: String| CampaignError::RecordMismatch {
            cell,
            shard,
            reason,
        };
        if let Some(local) = at.filter(|&local| local != record.job) {
            return Err(mismatch(
                shard + local * self.shards,
                format!(
                    "local index {} where {local} belongs (file not in grid order — \
                     finalize incomplete?)",
                    record.job
                ),
            ));
        }
        let Some(job) = self.sweep.jobs().get(cell) else {
            return Err(mismatch(
                cell,
                format!(
                    "local index {} outside the shard's {} cell(s)",
                    record.job,
                    self.shard_len(shard)
                ),
            ));
        };
        if record.workload != job.params.name {
            return Err(mismatch(
                cell,
                format!(
                    "workload {:?}, grid has {:?}",
                    record.workload, job.params.name
                ),
            ));
        }
        let expected = config_digest(&job.config);
        if record.config_digest != expected {
            return Err(mismatch(
                cell,
                format!(
                    "config digest {}, grid has {expected}",
                    record.config_digest
                ),
            ));
        }
        Ok(())
    }

    /// Stream-merges the `K` finalized shard files (`inputs[s]` is
    /// shard `s`'s file) into the full-grid [`SweepReport`] JSON
    /// document, written to `out` as it is produced.
    ///
    /// The output is byte-identical to
    /// `serde_json::to_string_pretty(&report)` of the equivalent
    /// single-process [`crate::Sweep::report`] run, except the
    /// top-level `wall_ns` (here the sum of the shard headers'
    /// stamped wall clocks — total compute, not elapsed time) and the
    /// per-record `wall_ns` values (each shard's real timings — zero
    /// them for comparison, per the determinism contract). Memory is
    /// O(1) in cells: `K` buffered readers, one in-flight record, one
    /// running [`ReportAggregator`].
    ///
    /// # Errors
    ///
    /// Any [`CampaignError`]: wrong input count, header/record
    /// validation failures, corrupt/short/overlong files, or I/O.
    pub fn merge_to_writer<W: Write>(
        &self,
        inputs: &[PathBuf],
        opts: &MergeOptions,
        out: &mut W,
    ) -> Result<MergeSummary, CampaignError> {
        let start = Instant::now();
        if inputs.len() != self.shards {
            return Err(CampaignError::InputCount {
                expected: self.shards,
                found: inputs.len(),
            });
        }
        let mut readers = Vec::with_capacity(self.shards);
        let mut total_wall_ns: u64 = 0;
        for (shard, path) in inputs.iter().enumerate() {
            let mut reader = ShardReader::open(shard, path)?;
            let line = reader.next_line()?.ok_or(CampaignError::ShardCorrupt {
                shard,
                line: 0,
                error: "empty file (missing header line)".to_owned(),
            })?;
            let header: ShardHeader =
                serde_json::from_str(&line).map_err(|e| CampaignError::ShardCorrupt {
                    shard,
                    line: reader.lineno,
                    error: e.to_string(),
                })?;
            self.check_header(shard, &header)?;
            total_wall_ns = total_wall_ns.saturating_add(header.wall_ns);
            readers.push(reader);
        }
        let cells = self.sweep.len();
        // Mirrors the `Sweep::run_grid` clamp so the stamped field
        // matches a single-process run handed the same worker count.
        let workers = opts.workers.max(1).min(cells.max(1));
        let mut aggregate = ReportAggregator::new();
        write_fmt(out, format_args!("{{\n  \"jobs\": {cells},"))?;
        write_fmt(out, format_args!("\n  \"workers\": {workers},"))?;
        write_fmt(out, format_args!("\n  \"wall_ns\": {total_wall_ns},"))?;
        write_fmt(out, format_args!("\n  \"records\": ["))?;
        for cell in 0..cells {
            let shard = cell % self.shards;
            let line = readers[shard]
                .next_line()?
                .ok_or(CampaignError::MissingCell { cell, shard })?;
            let mut record: JobRecord =
                serde_json::from_str(&line).map_err(|e| CampaignError::ShardCorrupt {
                    shard,
                    line: readers[shard].lineno,
                    error: e.to_string(),
                })?;
            self.validate_record(shard, &record, Some(cell / self.shards))?;
            record.job = cell;
            aggregate.fold(&record);
            let pretty =
                serde_json::to_string_pretty(&record).map_err(|e| CampaignError::ShardCorrupt {
                    shard,
                    line: readers[shard].lineno,
                    error: e.to_string(),
                })?;
            write_fmt(
                out,
                format_args!("{}\n    ", if cell == 0 { "" } else { "," }),
            )?;
            write_block(out, &pretty, "    ")?;
        }
        for reader in &mut readers {
            if reader.next_line()?.is_some() {
                return Err(CampaignError::TrailingData {
                    shard: reader.shard,
                });
            }
        }
        if cells > 0 {
            write_fmt(out, format_args!("\n  "))?;
        }
        write_fmt(out, format_args!("],\n  \"metrics\": "))?;
        let metrics_pretty = serde_json::to_string_pretty(aggregate.metrics())
            .map_err(|e| io_err(Path::new(MERGE_OUTPUT), e))?;
        write_block(out, &metrics_pretty, "  ")?;
        write_fmt(out, format_args!("\n}}"))?;
        Ok(MergeSummary {
            cells,
            failed: aggregate.failed(),
            shards: self.shards,
            wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        })
    }

    /// [`Campaign::merge_to_writer`] into a file (buffered, flushed).
    ///
    /// # Errors
    ///
    /// See [`Campaign::merge_to_writer`].
    pub fn merge_files(
        &self,
        inputs: &[PathBuf],
        opts: &MergeOptions,
        out_path: &Path,
    ) -> Result<MergeSummary, CampaignError> {
        let file = std::fs::File::create(out_path).map_err(|e| io_err(out_path, e))?;
        let mut writer = std::io::BufWriter::new(file);
        let summary = self.merge_to_writer(inputs, opts, &mut writer)?;
        writer.flush().map_err(|e| io_err(out_path, e))?;
        Ok(summary)
    }

    /// [`Campaign::merge_to_writer`] into a `String` — the
    /// convenience the equivalence tests compare byte-for-byte
    /// against `serde_json::to_string_pretty` of the single-process
    /// report.
    ///
    /// # Errors
    ///
    /// See [`Campaign::merge_to_writer`].
    pub fn merge_to_string(
        &self,
        inputs: &[PathBuf],
        opts: &MergeOptions,
    ) -> Result<(String, MergeSummary), CampaignError> {
        let mut buf = Vec::new();
        let summary = self.merge_to_writer(inputs, opts, &mut buf)?;
        let text = String::from_utf8(buf).map_err(|e| io_err(Path::new(MERGE_OUTPUT), e))?;
        Ok((text, summary))
    }
}

/// [`GridSummary`] of a job sequence. Borrowing the jobs matters: the
/// merge checks one shard header per input file against a strided
/// view of the full grid, and materializing each shard's sweep just
/// to summarize it would spike merge memory by a full grid copy.
fn grid_summary<'a>(jobs: impl Iterator<Item = &'a SweepJob>) -> GridSummary {
    use std::collections::BTreeSet;
    let mut cells = 0;
    let mut workloads = BTreeSet::new();
    let mut policies = BTreeSet::new();
    let mut ladders = BTreeSet::new();
    let mut cores = BTreeSet::new();
    let mut fsm = BTreeSet::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for job in jobs {
        cells += 1;
        workloads.insert(job.params.name.to_owned());
        policies.insert(job.config.policy_name().to_owned());
        ladders.insert(job.config.vsv.ladder.depth());
        cores.insert(job.config.cores);
        fsm.insert(format!("{:?}/{:?}", job.config.vsv.down, job.config.vsv.up));
        for b in job
            .params
            .name
            .bytes()
            .chain([b':'])
            .chain(config_digest(&job.config).bytes())
            .chain([b'\n'])
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn join<T: ToString>(set: BTreeSet<T>, sep: &str) -> String {
        set.iter().map(T::to_string).collect::<Vec<_>>().join(sep)
    }
    GridSummary {
        cells,
        workloads: join(workloads, ","),
        policies: join(policies, ","),
        ladders: join(ladders, ","),
        cores: join(cores, ","),
        fsm: join(fsm, ";"),
        grid_digest: format!("{h:016x}"),
    }
}

/// First differing dimension of two grid summaries, file vs. plan,
/// for the [`CampaignError::GridMismatch`] message.
fn grid_diff(found: &GridSummary, expected: &GridSummary) -> String {
    let axes = [
        ("workloads", &found.workloads, &expected.workloads),
        ("policies", &found.policies, &expected.policies),
        ("ladder depths", &found.ladders, &expected.ladders),
        ("core counts", &found.cores, &expected.cores),
        ("fsm policies", &found.fsm, &expected.fsm),
        (
            "per-cell configuration digest chain",
            &found.grid_digest,
            &expected.grid_digest,
        ),
    ];
    for (axis, f, e) in axes {
        if f != e {
            return format!("file grid has {axis} [{f}], grid expects [{e}]");
        }
    }
    format!("file grid summary {found:?}, grid expects {expected:?}")
}

/// One shard file being consumed line-at-a-time.
struct ShardReader {
    shard: usize,
    path: PathBuf,
    reader: std::io::BufReader<std::fs::File>,
    lineno: usize,
}

impl ShardReader {
    fn open(shard: usize, path: &Path) -> Result<Self, CampaignError> {
        let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
        Ok(ShardReader {
            shard,
            path: path.to_owned(),
            reader: std::io::BufReader::new(file),
            lineno: 0,
        })
    }

    /// The next non-empty line, or `None` at EOF.
    fn next_line(&mut self) -> Result<Option<String>, CampaignError> {
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| io_err(&self.path, e))?;
            if n == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if !trimmed.is_empty() {
                line.truncate(trimmed.len());
                return Ok(Some(line));
            }
        }
    }
}

/// Serializes `value` as one JSONL line and flushes it.
fn append_line<T: serde::Serialize>(
    writer: &mut std::io::BufWriter<std::fs::File>,
    value: &T,
) -> Result<(), String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    writeln!(writer, "{json}").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())
}

/// Writes a pretty-printed sub-document produced at depth 0,
/// re-indented to its embedding depth: every line after the first
/// gains `indent`. JSON strings cannot contain raw newlines, so
/// every `\n` in `pretty` is structural and the rewrite is exact.
fn write_block<W: Write>(out: &mut W, pretty: &str, indent: &str) -> Result<(), CampaignError> {
    for (i, segment) in pretty.split('\n').enumerate() {
        if i > 0 {
            write_bytes(out, b"\n")?;
            write_bytes(out, indent.as_bytes())?;
        }
        write_bytes(out, segment.as_bytes())?;
    }
    Ok(())
}

fn write_bytes<W: Write>(out: &mut W, bytes: &[u8]) -> Result<(), CampaignError> {
    out.write_all(bytes)
        .map_err(|e| io_err(Path::new(MERGE_OUTPUT), e))
}

fn write_fmt<W: Write>(out: &mut W, args: std::fmt::Arguments<'_>) -> Result<(), CampaignError> {
    out.write_fmt(args)
        .map_err(|e| io_err(Path::new(MERGE_OUTPUT), e))
}

fn io_err(path: &Path, error: impl std::fmt::Display) -> CampaignError {
    CampaignError::Io {
        path: path.display().to_string(),
        error: error.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Experiment;
    use crate::system::SystemConfig;
    use vsv_workloads::twin;

    fn tiny_sweep() -> Sweep {
        let twins = [twin("gzip").expect("gzip"), twin("ammp").expect("ammp")];
        let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
        Sweep::over_grid(
            Experiment {
                warmup_instructions: 500,
                instructions: 2_000,
            },
            &twins,
            &configs,
        )
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vsv-campaign-unit-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn zero_shards_is_rejected() {
        match Campaign::new(tiny_sweep(), 0) {
            Err(CampaignError::InvalidShardCount { shards: 0 }) => {}
            other => panic!("expected InvalidShardCount, got {other:?}"),
        }
    }

    #[test]
    fn shard_partition_is_an_interleaved_bijection() {
        let campaign = Campaign::new(tiny_sweep(), 3).expect("3 shards");
        let mut seen = vec![false; campaign.sweep().len()];
        for s in 0..3 {
            let sub = campaign.shard_sweep(s).expect("in range");
            assert_eq!(sub.len(), campaign.shard_len(s));
            for (j, cell) in campaign.shard_cells(s).enumerate() {
                assert_eq!(cell, s + j * 3);
                assert!(!seen[cell], "cell {cell} assigned twice");
                seen[cell] = true;
                // The shard's local job is the global grid's job.
                assert_eq!(
                    config_digest(&sub.jobs()[j].config),
                    config_digest(&campaign.sweep().jobs()[cell].config),
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "every cell assigned");
    }

    #[test]
    fn shards_may_exceed_cells() {
        let campaign = Campaign::new(tiny_sweep(), 9).expect("9 shards over 4 cells");
        assert_eq!(campaign.shard_len(3), 1);
        assert_eq!(campaign.shard_len(4), 0);
        assert_eq!((0..9).map(|s| campaign.shard_len(s)).sum::<usize>(), 4);
        let empty = campaign.shard_sweep(7).expect("in range");
        assert!(empty.is_empty());
    }

    #[test]
    fn out_of_range_shard_is_rejected() {
        let campaign = Campaign::new(tiny_sweep(), 2).expect("2 shards");
        match campaign.shard_sweep(2) {
            Err(CampaignError::ShardOutOfRange {
                shard: 2,
                shards: 2,
            }) => {}
            other => panic!("expected ShardOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn every_header_check_names_what_differs() {
        let campaign = Campaign::new(tiny_sweep(), 2).expect("2 shards");
        let planned = campaign.shard_header(1);
        type Edit = fn(&mut ShardHeader);
        let check = |edit: Edit| {
            let mut header = planned.clone();
            edit(&mut header);
            campaign.check_header(1, &header)
        };
        assert!(check(|_| {}).is_ok());
        assert!(check(|h| h.wall_ns = 42).is_ok(), "wall_ns is not checked");
        let scalar: [(&str, Edit); 4] = [
            ("version", |h| h.version += 1),
            ("jobs", |h| h.jobs += 1),
            ("scale", |h| h.instructions += 1),
            ("shard", |h| h.shard = 0),
        ];
        for (what, edit) in scalar {
            match check(edit) {
                Err(CampaignError::HeaderMismatch { reason }) => {
                    assert!(reason.starts_with(&format!("file has {what} ")), "{reason}");
                }
                other => panic!("{what}: expected HeaderMismatch, got {other:?}"),
            }
        }
        // The first differing axis is named, down to the per-cell
        // digest chain when every axis agrees.
        let grid: [(&str, Edit); 2] = [
            ("policies", |h| {
                h.grid.policies = "always-low".to_owned();
                h.grid.fsm = "other".to_owned();
            }),
            ("per-cell configuration digest chain", |h| {
                h.grid.grid_digest = "0".repeat(16);
            }),
        ];
        for (axis, edit) in grid {
            match check(edit) {
                Err(CampaignError::GridMismatch { reason }) => {
                    assert!(
                        reason.starts_with(&format!("file grid has {axis} ")),
                        "{reason}"
                    );
                }
                other => panic!("{axis}: expected GridMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_validator_checks_index_order_workload_and_digest() {
        let campaign = Campaign::new(tiny_sweep(), 2).expect("2 shards");
        // Shard 1 owns cells 1 and 3; its local cell 1 is cell 3.
        let mut record = campaign.sweep().report(1).records[3].clone();
        record.job = 1;
        assert!(campaign.validate_record(1, &record, None).is_ok());
        assert!(campaign.validate_record(1, &record, Some(1)).is_ok());
        let reject =
            |record: &JobRecord, at: Option<usize>| match campaign.validate_record(1, record, at) {
                Err(CampaignError::RecordMismatch {
                    cell,
                    shard: 1,
                    reason,
                }) => (cell, reason),
                other => panic!("expected RecordMismatch, got {other:?}"),
            };
        let (cell, reason) = reject(&record, Some(0));
        assert_eq!(cell, 1);
        assert!(reason.contains("not in grid order"), "{reason}");
        let mut outside = record.clone();
        outside.job = 2;
        let (cell, reason) = reject(&outside, None);
        assert_eq!(cell, 5);
        assert!(reason.contains("outside the shard's 2 cell(s)"), "{reason}");
        let mut renamed = record.clone();
        renamed.workload = "gzip".to_owned();
        let (cell, reason) = reject(&renamed, None);
        assert_eq!(cell, 3);
        assert!(reason.starts_with("workload"), "{reason}");
        let mut tampered = record;
        tampered.config_digest = "deadbeefdeadbeef".to_owned();
        let (cell, reason) = reject(&tampered, None);
        assert_eq!(cell, 3);
        assert!(reason.starts_with("config digest"), "{reason}");
    }

    #[test]
    fn merge_rejects_wrong_input_count() {
        let campaign = Campaign::new(tiny_sweep(), 2).expect("2 shards");
        let result =
            campaign.merge_to_string(&[temp_path("only-one.jsonl")], &MergeOptions { workers: 1 });
        match result {
            Err(CampaignError::InputCount {
                expected: 2,
                found: 1,
            }) => {}
            other => panic!("expected InputCount, got {other:?}"),
        }
    }
}
