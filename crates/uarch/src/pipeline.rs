//! The 8-way out-of-order pipeline.
//!
//! A trace-driven `sim-outorder`-style model: fetch follows the
//! *predicted* path (wrong-path work is modeled as fetch bubbles: fetch
//! halts at a mispredicted branch and resumes `mispredict_penalty`
//! cycles after it resolves), instructions rename into the RUU, issue
//! out of order when operands and a functional unit are ready, execute
//! with class latencies, and commit in order.
//!
//! # Clocking contract
//!
//! [`Core::cycle`] advances the *pipeline* by one clock edge and must
//! be passed the current wall-clock time in nanoseconds; the owner
//! decides the edge cadence (every 1 ns at full speed, every 2 ns in
//! VSV's low-power mode). [`Core::tick_mem`] advances the asynchronous
//! L2/bus/DRAM domain and must be called every nanosecond.
//!
//! # Model simplifications
//!
//! * Wrong-path instructions are not executed (their timing cost is
//!   the misprediction bubble; their power is not charged).
//! * Loads may issue past older stores to different blocks (perfect
//!   memory disambiguation); same-block older stores forward in one
//!   cycle.
//! * Stores write the D-cache at commit and do not block commit on a
//!   miss (write-buffer semantics); a full MSHR does stall commit.

use std::collections::VecDeque;

use vsv_isa::{Addr, BranchInfo, Inst, InstStream, OpClass};
use vsv_mem::{AccessKind, Completion, FxHashMap, Hierarchy, L1Outcome, MemToken};
use vsv_prefetch::TimeKeeping;

use crate::activity::{CoreStats, CycleActivity};
use crate::bpred::BranchPredictor;
use crate::config::{CoreConfig, OpLatencies};
use crate::fu::FuSet;
use crate::ruu::{Ruu, Seq};

/// The out-of-order core, owning its memory hierarchy and (optionally)
/// a Time-Keeping prefetch engine.
///
/// # Examples
///
/// ```
/// use vsv_isa::{ArchReg, Inst, InstStream, Pc, VecStream};
/// use vsv_mem::{Hierarchy, HierarchyConfig};
/// use vsv_uarch::{Core, CoreConfig};
///
/// let program: VecStream = (0..100)
///     .map(|i| Inst::alu(Pc(i * 4), ArchReg::int(1), &[]))
///     .collect();
/// let mut core = Core::new(
///     CoreConfig::baseline(),
///     Hierarchy::new(HierarchyConfig::baseline()),
///     program,
/// );
/// let mut now = 0;
/// while !core.done() && now < 10_000 {
///     core.tick_mem(now);
///     core.cycle(now);
///     now += 1;
/// }
/// assert_eq!(core.stats().committed, 100);
/// ```
#[derive(Debug)]
pub struct Core<S> {
    cfg: CoreConfig,
    stream: S,
    peeked: Option<Inst>,
    ruu: Ruu,
    fus: FuSet,
    // Execution latency by `OpClass::index`.
    latencies: [u32; OpClass::ALL.len()],
    bpred: BranchPredictor,
    mem: Hierarchy,
    tk: Option<TimeKeeping>,
    fetch_queue: VecDeque<(Inst, bool)>,
    icache_wait: Option<MemToken>,
    halted_for_branch: bool,
    resume_fetch_at: Option<u64>,
    // Fx-hashed: point lookups only, never iterated, so the hash
    // function cannot affect simulated results.
    pending_loads: FxHashMap<MemToken, Seq>,
    pending_fills: FxHashMap<MemToken, Addr>,
    exec_done: ExecWheel,
    cycle: u64,
    last_fetch_block: Option<Addr>,
    stream_exhausted: bool,
    // Copied out of the hierarchy config at construction: the fetch
    // and issue stages consult these every instruction.
    l1i_block_bytes: u64,
    l1d_block_bytes: u64,
    stats: CoreStats,
    // Scratch buffers reused across cycles so the steady-state hot
    // loop performs no heap allocation.
    completion_scratch: Vec<Completion>,
    eviction_scratch: Vec<Addr>,
}

impl<S: InstStream> Core<S> {
    /// Builds a core over `mem`, fed by `stream`, with the default
    /// Table 1 branch predictor.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreConfig::validate`]; the fallible
    /// form is [`Core::try_new`].
    #[must_use]
    pub fn new(cfg: CoreConfig, mem: Hierarchy, stream: S) -> Self {
        Self::try_new(cfg, mem, stream)
            .unwrap_or_else(|e| panic!("invalid core configuration: {e}"))
    }

    /// Builds a core over `mem`, fed by `stream`, validating `cfg`
    /// first.
    ///
    /// # Errors
    ///
    /// Returns the [`CoreConfig::validate`] message when `cfg` is
    /// internally inconsistent.
    pub fn try_new(cfg: CoreConfig, mem: Hierarchy, stream: S) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Core {
            ruu: Ruu::new(cfg.ruu_entries, cfg.lsq_entries),
            fus: FuSet::new(&cfg),
            latencies: latency_table(&cfg.latencies),
            bpred: BranchPredictor::new(cfg.bpred),
            l1i_block_bytes: mem.config().l1i.block_bytes,
            l1d_block_bytes: mem.config().l1d.block_bytes,
            mem,
            tk: None,
            stream,
            peeked: None,
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            icache_wait: None,
            halted_for_branch: false,
            resume_fetch_at: None,
            pending_loads: FxHashMap::default(),
            pending_fills: FxHashMap::default(),
            exec_done: ExecWheel::new(),
            cycle: 0,
            last_fetch_block: None,
            stream_exhausted: false,
            stats: CoreStats::default(),
            completion_scratch: Vec::new(),
            eviction_scratch: Vec::new(),
            cfg,
        })
    }

    /// Attaches a Time-Keeping prefetch engine (requires the hierarchy
    /// to have been built with a prefetch buffer).
    pub fn attach_prefetcher(&mut self, tk: TimeKeeping) {
        self.tk = Some(tk);
    }

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Whole-run statistics.
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Committed-instruction count. Cheaper than [`Core::stats`] (which
    /// copies the whole statistics struct) for per-nanosecond polling.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Shared access to the memory hierarchy (stats, VSV signals).
    #[must_use]
    pub fn mem(&self) -> &Hierarchy {
        &self.mem
    }

    /// Exclusive access to the memory hierarchy (signal draining).
    pub fn mem_mut(&mut self) -> &mut Hierarchy {
        &mut self.mem
    }

    /// The attached prefetch engine, if any.
    #[must_use]
    pub fn prefetcher(&self) -> Option<&TimeKeeping> {
        self.tk.as_ref()
    }

    /// The branch predictor (for accuracy reporting).
    #[must_use]
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// Whether the program has fully drained: the stream ended and no
    /// instruction remains anywhere in the machine.
    #[must_use]
    pub fn done(&self) -> bool {
        self.stream_exhausted
            && self.peeked.is_none()
            && self.fetch_queue.is_empty()
            && self.ruu.is_empty()
    }

    /// Whether the pipeline is provably quiescent: no clock edge can
    /// make progress or change any architectural or micro-architectural
    /// state other than the cycle counters, until some external memory
    /// completion arrives. A quiescent core's [`Core::cycle`] is
    /// exactly a zero-activity cycle, so an owner may batch-apply any
    /// number of such cycles via [`Core::skip_idle_cycles`].
    ///
    /// The conditions, stage by stage:
    ///
    /// * no functional-unit completion is scheduled (`exec_done`
    ///   empty), so writeback is idle at every future cycle;
    /// * no RUU entry is issue-eligible and none can become so without
    ///   a completion, so issue is idle;
    /// * the RUU head is not completed, so commit is idle (this also
    ///   excludes the commit-blocked-store retry case);
    /// * dispatch is blocked (empty fetch queue, or window/LSQ full);
    /// * fetch is blocked on an I-miss, a yet-unresolved mispredict, a
    ///   full fetch queue, or stream exhaustion — and *not* merely
    ///   waiting out a redirect penalty, which elapses with cycles;
    /// * with a prefetch engine attached, no L1-D eviction is buffered
    ///   (its hand-off to the engine is timestamped per nanosecond).
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.exec_done.is_empty()
            && !self.ruu.any_ready()
            && self.ruu.commit_ready().is_none()
            && self.dispatch_blocked()
            && self.fetch_blocked()
            && (self.tk.is_none() || !self.mem.has_buffered_l1d_evictions())
    }

    fn dispatch_blocked(&self) -> bool {
        match self.fetch_queue.front() {
            None => true,
            Some((inst, _)) => !self.ruu.can_dispatch(inst),
        }
    }

    fn fetch_blocked(&self) -> bool {
        if self.icache_wait.is_some() {
            return true;
        }
        if self.halted_for_branch {
            // A pending redirect (`resume_fetch_at` set) elapses with
            // cycles, so fetch is only *indefinitely* blocked while the
            // branch is unresolved.
            return self.resume_fetch_at.is_none();
        }
        self.fetch_queue.len() >= self.cfg.fetch_queue
            || (self.stream_exhausted && self.peeked.is_none())
    }

    /// Batch-applies `edges` quiescent clock edges: exactly what
    /// `edges` calls to [`Core::cycle`] would do while
    /// [`Core::quiescent`] holds (each is a zero-issue, zero-activity
    /// cycle touching only the cycle counters).
    pub fn skip_idle_cycles(&mut self, edges: u64) {
        self.stats.cycles += edges;
        self.stats.zero_issue_cycles += edges;
        self.stats.issue_histogram.buckets[0] += edges;
        self.cycle += edges;
    }

    /// The next time (ns) the attached prefetch engine will run its
    /// harvest scan, if one is attached. Its per-nanosecond `tick` is a
    /// pure no-op strictly before this time.
    #[must_use]
    pub fn prefetch_harvest_at(&self) -> Option<u64> {
        self.tk
            .as_ref()
            .map(vsv_prefetch::TimeKeeping::next_harvest_at)
    }

    /// Advances the asynchronous memory domain to `now` (call every
    /// nanosecond) and runs the prefetch engine.
    pub fn tick_mem(&mut self, now: u64) {
        self.mem.tick(now);
        if self.tk.is_none() && !self.mem.has_buffered_l1d_evictions() {
            return;
        }
        let mut victims = std::mem::take(&mut self.eviction_scratch);
        self.mem.take_l1d_evictions_into(&mut victims);
        if let Some(tk) = self.tk.as_mut() {
            for &victim in &victims {
                tk.on_evict(now, victim);
            }
            let proposals = tk.tick(now);
            for addr in proposals {
                let _ = self.mem.hw_prefetch(now, addr);
            }
        }
        self.eviction_scratch = victims;
    }

    /// Runs one pipeline clock edge at wall-clock time `now` (ns) and
    /// reports the cycle's structure activity.
    pub fn cycle(&mut self, now: u64) -> CycleActivity {
        let mut act = CycleActivity::default();
        let cycle = self.cycle;

        self.drain_memory(now, &mut act);
        self.writeback(cycle, &mut act);
        self.commit(now, &mut act);
        self.issue(now, cycle, &mut act);
        self.dispatch(&mut act);
        self.fetch(now, cycle, &mut act);

        self.stats.cycles += 1;
        self.stats.issued += u64::from(act.issued);
        self.stats.fetched += u64::from(act.fetched);
        self.stats.issue_histogram.record(act.issued);
        if act.issued == 0 {
            self.stats.zero_issue_cycles += 1;
        }
        self.cycle += 1;
        act
    }

    // ---- stages (reverse pipeline order) ---------------------------

    /// Absorbs refill completions from the ns domain into this clock
    /// edge: missing loads complete; a pending I-fetch resumes.
    fn drain_memory(&mut self, now: u64, act: &mut CycleActivity) {
        if !self.mem.has_buffered_completions() {
            return;
        }
        let mut completions = std::mem::take(&mut self.completion_scratch);
        self.mem.take_completions_into(&mut completions);
        for c in &completions {
            if self.icache_wait == Some(c.token) {
                self.icache_wait = None;
                continue;
            }
            if let Some(addr) = self.pending_fills.remove(&c.token) {
                if let Some(tk) = self.tk.as_mut() {
                    tk.on_fill(now, addr);
                }
            }
            if let Some(seq) = self.pending_loads.remove(&c.token) {
                self.complete_entry(seq, act);
            }
        }
        self.completion_scratch = completions;
    }

    /// Completes instructions whose functional-unit latency elapses at
    /// this cycle.
    fn writeback(&mut self, cycle: u64, act: &mut CycleActivity) {
        while let Some(seq) = self.exec_done.pop_at(cycle) {
            self.complete_entry(seq, act);
        }
    }

    fn complete_entry(&mut self, seq: Seq, act: &mut CycleActivity) {
        let (is_branch_mispredict, has_dst) = match self.ruu.entry(seq) {
            Some(e) => (
                e.mispredicted && e.inst.op() == OpClass::Branch,
                e.inst.dst().is_some(),
            ),
            None => return,
        };
        let woken = self.ruu.complete(seq);
        act.ruu_wakeups += woken;
        act.resultbus_ops += 1;
        if has_dst {
            act.regfile_writes += 1;
        }
        if is_branch_mispredict {
            // The fetch redirect arrives `penalty` cycles after the
            // branch resolves (Table 1: 8 cycles).
            self.resume_fetch_at = Some(self.cycle + u64::from(self.cfg.mispredict_penalty));
        }
    }

    /// In-order commit; stores write the D-cache here.
    fn commit(&mut self, now: u64, act: &mut CycleActivity) {
        let mut committed = 0u32;
        while (committed as usize) < self.cfg.commit_width {
            let Some(head) = self.ruu.commit_ready() else {
                break;
            };
            let (inst, mispredicted) = (head.inst, head.mispredicted);
            let op = inst.op();
            if op == OpClass::Store && !self.commit_store(now, inst) {
                // Retry next cycle; commit stalls here to stay in
                // order.
                act.dl1_accesses += 1;
                act.lsq_accesses += 1;
                break;
            }
            self.ruu.pop_commit();
            committed += 1;
            let stores = u32::from(op == OpClass::Store);
            act.dl1_accesses += stores;
            act.lsq_accesses += stores;
            self.stats.loads += u64::from(op == OpClass::Load);
            self.stats.stores += u64::from(stores);
            self.stats.sw_prefetches += u64::from(op == OpClass::Prefetch);
            if let Some(info) = inst.branch_info() {
                self.stats.branches += 1;
                self.stats.mispredicts += u64::from(mispredicted);
                self.bpred
                    .update(inst.pc(), info.kind, info.taken, info.target);
                act.bpred_accesses += 1;
            }
        }
        act.committed += committed;
        self.stats.committed += u64::from(committed);
    }

    /// Writes the committing store `inst` to the D-cache. Returns
    /// `false` when the cache cannot accept it this cycle.
    fn commit_store(&mut self, now: u64, inst: Inst) -> bool {
        let addr = inst.mem_addr().expect("store has an address");
        match self.mem.access_data(now, addr, AccessKind::Write) {
            L1Outcome::Blocked(_) => return false,
            L1Outcome::Hit | L1Outcome::PrefetchBufferHit => {
                if let Some(tk) = self.tk.as_mut() {
                    tk.on_access(now, addr);
                }
            }
            L1Outcome::Miss(token) => {
                // Write-buffer semantics: commit proceeds; the fill is
                // tracked only for the prefetch engine.
                if let Some(tk) = self.tk.as_mut() {
                    self.pending_fills.insert(token, addr);
                    tk.on_miss(now, addr);
                }
            }
        }
        true
    }

    /// Out-of-order issue of up to `issue_width` ready instructions,
    /// oldest first. The walk over the ready set is lazy: it stops as
    /// soon as the width is used up.
    fn issue(&mut self, now: u64, cycle: u64, act: &mut CycleActivity) {
        // Ops issued per `EXEC_COUNTER` slot, added to `act` at the end.
        let mut exec_ops = [0u32; 5];
        let mut issued = 0usize;
        let mut cursor: Seq = 0;
        while issued < self.cfg.issue_width {
            let Some(seq) = self.ruu.next_ready(cursor) else {
                break;
            };
            cursor = seq + 1;
            let inst = match self.ruu.entry(seq) {
                Some(e) => e.inst,
                None => continue,
            };
            let op = inst.op();

            // Functional-unit availability (NOPs use none).
            let fu_done = match self.fus.pool_for(op) {
                Some(pool) => match pool.try_issue(cycle, self.latencies[op.index()]) {
                    Some(done) => done,
                    None => continue, // structural hazard: try younger ops
                },
                None => cycle + 1,
            };

            let completion_cycle = if op == OpClass::Load {
                // Loads talk to the D-side now.
                match self.issue_load(now, cycle, seq, inst, act) {
                    Some(done) => done,
                    None => continue, // stays Ready; retry next cycle
                }
            } else {
                if op == OpClass::Prefetch {
                    act.dl1_accesses += 1;
                    // Non-binding: issue the access and complete
                    // immediately whatever the outcome.
                    let addr = inst.mem_addr().expect("prefetch has an address");
                    let _ = self.mem.access_data(now, addr, AccessKind::SwPrefetch);
                }
                // A store generates its address now; the cache write
                // happens at commit.
                act.lsq_accesses += u32::from(op == OpClass::Store);
                Some(if completes_next_cycle(op) {
                    cycle + 1
                } else {
                    fu_done
                })
            };

            self.ruu.mark_issued(seq);
            if let Some(done) = completion_cycle {
                self.exec_done.push(done, seq);
            }
            issued += 1;
            act.regfile_reads += inst.srcs().iter().flatten().count() as u32;
            exec_ops[EXEC_COUNTER[op.index()]] += 1;
        }
        act.issued += issued as u32;
        act.ruu_reads += issued as u32;
        act.int_alu_ops += exec_ops[0];
        act.int_muldiv_ops += exec_ops[1];
        act.fp_alu_ops += exec_ops[2];
        act.fp_muldiv_ops += exec_ops[3];
    }

    /// Issues the load `seq`: forwards from an older same-block store
    /// or accesses the D-cache. Returns `None` when the load cannot
    /// issue this cycle, else `Some` of its completion cycle, itself
    /// `None` when a miss completes it later, through `drain_memory`.
    fn issue_load(
        &mut self,
        now: u64,
        cycle: u64,
        seq: Seq,
        inst: Inst,
        act: &mut CycleActivity,
    ) -> Option<Option<u64>> {
        let addr = inst.mem_addr().expect("load has an address");
        act.lsq_accesses += 1;
        let forwards = self
            .ruu
            .older_store_to_block(seq, addr, self.l1d_block_bytes);
        if self.cfg.conservative_mem_disambiguation && !forwards && self.ruu.has_older_store(seq) {
            // Conservative mode: loads wait behind every older store
            // (same-block stores still forward below).
            return None;
        }
        if forwards {
            self.stats.forwarded_loads += 1;
            return Some(Some(cycle + 1));
        }
        act.dl1_accesses += 1;
        match self.mem.access_data(now, addr, AccessKind::Read) {
            L1Outcome::Hit => {
                if let Some(tk) = self.tk.as_mut() {
                    tk.on_access(now, addr);
                }
                Some(Some(cycle + u64::from(self.cfg.l1_hit_latency)))
            }
            L1Outcome::PrefetchBufferHit => {
                if let Some(tk) = self.tk.as_mut() {
                    tk.on_fill(now, addr);
                    tk.on_access(now, addr);
                }
                Some(Some(cycle + u64::from(self.cfg.pb_hit_latency)))
            }
            L1Outcome::Miss(token) => {
                self.pending_loads.insert(token, seq);
                if let Some(tk) = self.tk.as_mut() {
                    self.pending_fills.insert(token, addr);
                    tk.on_miss(now, addr);
                }
                Some(None) // completes via drain_memory
            }
            L1Outcome::Blocked(_) => {
                self.stats.mshr_blocked_issues += 1;
                None
            }
        }
    }

    /// Renames fetched instructions into the window.
    fn dispatch(&mut self, act: &mut CycleActivity) {
        for _ in 0..self.cfg.decode_width {
            let Some(&(inst, flag)) = self.fetch_queue.front() else {
                break;
            };
            if !self.ruu.can_dispatch(&inst) {
                break;
            }
            self.fetch_queue.pop_front();
            let _seq = self.ruu.dispatch(inst, flag);
            act.dispatched += 1;
            act.ruu_writes += 1;
            if inst.op().is_mem() {
                act.lsq_accesses += 1;
            }
        }
    }

    /// Fetches along the predicted path.
    fn fetch(&mut self, now: u64, cycle: u64, act: &mut CycleActivity) {
        if self.icache_wait.is_some() {
            return;
        }
        if self.halted_for_branch {
            match self.resume_fetch_at {
                Some(at) if cycle >= at => {
                    self.halted_for_branch = false;
                    self.resume_fetch_at = None;
                    self.last_fetch_block = None;
                }
                _ => return,
            }
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= self.cfg.fetch_queue {
                break;
            }
            let Some(inst) = self.peek_stream() else {
                break;
            };
            // One I-cache access per block transition.
            let block = Addr(inst.pc().0).block(self.l1i_block_bytes);
            if self.last_fetch_block != Some(block) {
                act.il1_accesses += 1;
                match self.mem.access_inst(now, Addr(inst.pc().0)) {
                    L1Outcome::Hit | L1Outcome::PrefetchBufferHit => {
                        self.last_fetch_block = Some(block);
                    }
                    L1Outcome::Miss(token) => {
                        self.icache_wait = Some(token);
                        return;
                    }
                    L1Outcome::Blocked(_) => return,
                }
            }
            self.peeked = None;
            act.fetched += 1;

            if let Some(info) = inst.branch_info() {
                act.bpred_accesses += 1;
                let pred = self.bpred.predict(inst.pc(), info.kind);
                let correct = prediction_correct(&pred, &info);
                self.fetch_queue.push_back((inst, !correct));
                if !correct {
                    // Fetch goes down the wrong path: halt until the
                    // branch resolves plus the redirect penalty.
                    self.halted_for_branch = true;
                    self.resume_fetch_at = None;
                    return;
                }
                if info.taken {
                    // A (correctly) predicted-taken branch ends the
                    // fetch group and redirects the block tracker.
                    self.last_fetch_block = None;
                    return;
                }
            } else {
                self.fetch_queue.push_back((inst, false));
            }
        }
    }

    fn peek_stream(&mut self) -> Option<Inst> {
        if self.peeked.is_none() {
            self.peeked = self.stream.next_inst();
            if self.peeked.is_none() {
                self.stream_exhausted = true;
            }
        }
        self.peeked
    }
}

/// A calendar-wheel schedule of functional-unit completions, indexed
/// by completion cycle modulo the wheel size. Latencies are small and
/// bounded (a handful of cycles), so completions land within one wheel
/// revolution of the current cycle and each slot only ever holds one
/// distinct completion time; the wheel doubles (re-bucketing) if a
/// pathological latency configuration ever violates that. Entries in
/// a slot pop in insertion order, matching the FIFO tie-break of the
/// event queue this replaces, so simulated results are unchanged — the
/// wheel just makes the every-cycle writeback poll O(1) with no heap.
///
/// Each slot is a FIFO threaded through one `next` link array: links
/// `0..slots` are the slots' heads and link `slots + n` follows entry
/// node `n`. An empty slot's tail is its own head link, so appending
/// is the same two stores either way. Retired nodes are recycled, so
/// the steady state never allocates.
#[derive(Debug)]
struct ExecWheel {
    // Per slot: the completion cycle it holds, and the link its next
    // entry is appended at.
    at: Vec<u64>,
    tail: Vec<u32>,
    next: Vec<u32>,
    // Per node: the entry's sequence number.
    seqs: Vec<Seq>,
    // First free node link (`NIL` when none is free); free nodes chain
    // through `next`.
    free: u32,
    mask: u64,
    pending: usize,
}

/// The null link.
const NIL: u32 = u32::MAX;

impl ExecWheel {
    fn new() -> Self {
        // 64 slots cover every latency in `OpLatencies::table1` with
        // room to spare; the wheel grows on demand for larger configs.
        Self::with_slots(64)
    }

    fn with_slots(slots: usize) -> Self {
        ExecWheel {
            at: vec![0; slots],
            tail: (0..slots as u32).collect(),
            next: vec![NIL; slots],
            seqs: Vec::new(),
            free: NIL,
            mask: slots as u64 - 1,
            pending: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `seq` to complete at cycle `done`.
    fn push(&mut self, done: u64, seq: Seq) {
        let idx = (done & self.mask) as usize;
        if self.next[idx] != NIL && self.at[idx] != done {
            self.grow(done);
            return self.push(done, seq);
        }
        let slots = self.at.len() as u32;
        let node = if self.free == NIL {
            self.next.push(NIL);
            self.seqs.push(seq);
            self.next.len() as u32 - 1
        } else {
            let node = self.free;
            self.free = self.next[node as usize];
            self.next[node as usize] = NIL;
            self.seqs[(node - slots) as usize] = seq;
            node
        };
        let tail = self.tail[idx];
        self.next[tail as usize] = node;
        self.tail[idx] = node;
        self.at[idx] = done;
        self.pending += 1;
    }

    /// Doubles the wheel until `done` no longer collides, preserving
    /// per-slot insertion order.
    fn grow(&mut self, done: u64) {
        let slots = self.at.len();
        let mut all: Vec<(u64, Seq)> = Vec::with_capacity(self.pending);
        for (idx, &at) in self.at.iter().enumerate() {
            let mut link = self.next[idx];
            while link != NIL {
                all.push((at, self.seqs[link as usize - slots]));
                link = self.next[link as usize];
            }
        }
        // Re-bucketing must keep FIFO order within a completion time;
        // a stable sort by time only (original order preserved within
        // equal times) guarantees it regardless of slot layout.
        all.sort_by_key(|&(at, _)| at);
        let mut size = (self.mask + 1) * 2;
        let needs = |size: u64| {
            let mask = size - 1;
            let mut seen = vec![u64::MAX; size as usize];
            all.iter()
                .map(|&(at, _)| at)
                .chain(std::iter::once(done))
                .any(|at| {
                    let s = &mut seen[(at & mask) as usize];
                    let clash = *s != u64::MAX && *s != at;
                    *s = at;
                    clash
                })
        };
        while needs(size) {
            size *= 2;
        }
        *self = Self::with_slots(size as usize);
        for (at, seq) in all {
            self.push(at, seq);
        }
    }

    /// Pops the oldest completion scheduled for exactly `cycle`, if
    /// any remains.
    fn pop_at(&mut self, cycle: u64) -> Option<Seq> {
        if self.pending == 0 {
            return None;
        }
        let idx = (cycle & self.mask) as usize;
        let node = self.next[idx];
        if node == NIL || self.at[idx] != cycle {
            return None;
        }
        let after = self.next[node as usize];
        self.next[idx] = after;
        if after == NIL {
            self.tail[idx] = idx as u32;
        }
        self.next[node as usize] = self.free;
        self.free = node;
        self.pending -= 1;
        Some(self.seqs[node as usize - self.at.len()])
    }
}

/// Execution latency of each op class, by [`OpClass::index`].
fn latency_table(l: &OpLatencies) -> [u32; OpClass::ALL.len()] {
    OpClass::ALL.map(|op| match op {
        OpClass::IntAlu | OpClass::Load | OpClass::Store | OpClass::Prefetch => l.int_alu,
        OpClass::IntMulDiv => l.int_muldiv,
        OpClass::FpAlu => l.fp_alu,
        OpClass::FpMulDiv => l.fp_muldiv,
        OpClass::Branch => l.branch,
        OpClass::Nop => 1,
    })
}

/// Whether an op class completes the cycle after it issues, whatever
/// its functional unit's latency: a store's address generation, a
/// (non-binding) software prefetch and a NOP.
fn completes_next_cycle(op: OpClass) -> bool {
    matches!(op, OpClass::Store | OpClass::Prefetch | OpClass::Nop)
}

/// The `CycleActivity` execution counter each op class charges at
/// issue, by [`OpClass::index`]: 0 integer ALU (address generation and
/// branches included), 1 integer mul/div, 2 FP ALU, 3 FP mul/div, 4
/// none (NOPs).
const EXEC_COUNTER: [usize; OpClass::ALL.len()] = {
    let mut t = [0; OpClass::ALL.len()];
    t[OpClass::IntMulDiv as usize] = 1;
    t[OpClass::FpAlu as usize] = 2;
    t[OpClass::FpMulDiv as usize] = 3;
    t[OpClass::Nop as usize] = 4;
    t
};

/// Whether a fetch-time prediction matches the resolved outcome.
fn prediction_correct(pred: &crate::bpred::Prediction, actual: &BranchInfo) -> bool {
    if actual.taken {
        pred.taken && pred.target == Some(actual.target)
    } else {
        !pred.taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv_isa::{ArchReg, BranchKind, Pc, VecStream};
    use vsv_mem::HierarchyConfig;

    fn run(stream: VecStream, limit_ns: u64) -> Core<VecStream> {
        let mut core = Core::new(
            CoreConfig::baseline(),
            Hierarchy::new(HierarchyConfig::baseline()),
            stream,
        );
        let mut now = 0;
        while !core.done() && now < limit_ns {
            core.tick_mem(now);
            core.cycle(now);
            now += 1;
        }
        assert!(core.done(), "program did not drain within {limit_ns} ns");
        core
    }

    /// Loops PCs over a small code footprint so the I-cache warms up
    /// after the first pass, as in real loop-dominated code.
    fn loop_pc(i: u64) -> Pc {
        Pc((i % 128) * 4)
    }

    fn alu_chain(n: u64, dependent: bool) -> VecStream {
        (0..n)
            .map(|i| {
                if dependent {
                    Inst::alu(loop_pc(i), ArchReg::int(1), &[ArchReg::int(1)])
                } else {
                    Inst::alu(loop_pc(i), ArchReg::int((i % 8) as u8), &[])
                }
            })
            .collect()
    }

    #[test]
    fn exec_wheel_pops_fifo_per_cycle_and_survives_growth() {
        let mut w = ExecWheel::new();
        w.push(5, 1);
        w.push(3, 2);
        w.push(5, 3);
        // 69 shares slot 5 with cycle 5: the wheel must grow.
        w.push(69, 4);
        w.push(5, 5);
        assert_eq!(w.pop_at(3), Some(2));
        assert_eq!(w.pop_at(3), None);
        let at5: Vec<Seq> = std::iter::from_fn(|| w.pop_at(5)).collect();
        assert_eq!(at5, vec![1, 3, 5]);
        assert!(!w.is_empty());
        assert_eq!(w.pop_at(69), Some(4));
        assert!(w.is_empty());
        // Recycled nodes keep later slots intact.
        w.push(70, 6);
        w.push(71, 7);
        w.push(70, 8);
        assert_eq!(w.pop_at(70), Some(6));
        assert_eq!(w.pop_at(70), Some(8));
        assert_eq!(w.pop_at(71), Some(7));
        assert!(w.is_empty());
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let core = run(alu_chain(40_000, false), 100_000);
        let ipc = core.stats().ipc();
        assert!(ipc > 5.0, "8-wide core on independent ALUs: got IPC {ipc}");
    }

    #[test]
    fn dependent_chain_is_ipc_one_at_best() {
        let core = run(alu_chain(20_000, true), 100_000);
        let ipc = core.stats().ipc();
        assert!(ipc <= 1.05, "serial chain cannot exceed IPC 1, got {ipc}");
        assert!(
            ipc > 0.8,
            "back-to-back bypass should keep IPC near 1, got {ipc}"
        );
    }

    #[test]
    fn all_instructions_commit_exactly_once() {
        let core = run(alu_chain(777, false), 50_000);
        assert_eq!(core.stats().committed, 777);
    }

    #[test]
    fn load_miss_stalls_dependent_chain() {
        // A load to cold memory followed by a long dependent chain.
        let mut insts = vec![Inst::load(Pc(0), ArchReg::int(1), Addr(0x10_0000))];
        for i in 1..50u64 {
            insts.push(Inst::alu(Pc(i * 4), ArchReg::int(1), &[ArchReg::int(1)]));
        }
        let core = run(VecStream::new(insts), 50_000);
        // ~124 ns memory latency + 49 dependent cycles.
        assert!(
            core.stats().cycles > 150,
            "expected a memory-bound run, got {} cycles",
            core.stats().cycles
        );
    }

    #[test]
    fn mispredicted_branch_costs_bubble() {
        // Alternating taken/not-taken branches are learnable; a stream
        // of random-ish one-off branches to fresh PCs is not. Compare
        // cycles for never-taken (predicted well after warmup) versus
        // all-mispredicted first-encounter taken branches.
        let not_taken: VecStream = (0..500u64)
            .map(|i| {
                Inst::branch(
                    Pc(i * 4),
                    BranchInfo {
                        kind: BranchKind::Conditional,
                        taken: false,
                        target: Pc(i * 4 + 400),
                    },
                    None,
                )
            })
            .collect();
        let taken_fresh: VecStream = (0..500u64)
            .map(|i| {
                Inst::branch(
                    Pc(i * 4096), // fresh PC each time: BTB cold
                    BranchInfo {
                        kind: BranchKind::Conditional,
                        taken: true,
                        target: Pc(i * 4096 + 4),
                    },
                    None,
                )
            })
            .collect();
        let fast = run(not_taken, 100_000).stats().cycles;
        let slow_core = run(taken_fresh, 1_000_000);
        let slow = slow_core.stats().cycles;
        assert!(
            slow > fast * 3,
            "mispredictions must hurt: {slow} vs {fast} cycles"
        );
        assert!(slow_core.stats().mispredicts > 400);
    }

    #[test]
    fn store_to_load_forwarding() {
        let insts = vec![
            Inst::alu(Pc(0), ArchReg::int(1), &[]),
            Inst::store(Pc(4), Addr(0x40), ArchReg::int(1)),
            Inst::load(Pc(8), ArchReg::int(2), Addr(0x40)),
        ];
        let core = run(VecStream::new(insts), 10_000);
        assert_eq!(core.stats().forwarded_loads, 1);
        // The load never touched memory: no D-L1 miss for its block.
        assert_eq!(core.stats().committed, 3);
    }

    #[test]
    fn zero_issue_cycles_counted_during_miss() {
        let mut insts = vec![Inst::load(Pc(0), ArchReg::int(1), Addr(0x20_0000))];
        for i in 1..10u64 {
            insts.push(Inst::alu(Pc(i * 4), ArchReg::int(1), &[ArchReg::int(1)]));
        }
        let core = run(VecStream::new(insts), 50_000);
        assert!(
            core.stats().zero_issue_cycles > 80,
            "pipeline should sit idle during the L2 miss, got {}",
            core.stats().zero_issue_cycles
        );
    }

    #[test]
    fn software_prefetch_commits_without_waiting() {
        let insts = vec![
            Inst::prefetch(Pc(0), Addr(0x30_0000)),
            Inst::alu(Pc(4), ArchReg::int(1), &[]),
        ];
        let core = run(VecStream::new(insts), 5_000);
        assert_eq!(core.stats().sw_prefetches, 1);
        // One cold I-miss (~124 ns) is paid, but the program must NOT
        // additionally wait for the prefetch's own memory latency.
        assert!(core.stats().cycles < 200, "got {}", core.stats().cycles);
    }

    #[test]
    fn sw_prefetch_warms_cache_for_later_load() {
        // prefetch A, spin on ALUs for > memory latency, then load A.
        let mut insts = vec![Inst::prefetch(Pc(0), Addr(0x30_0000))];
        for i in 1..400u64 {
            insts.push(Inst::alu(loop_pc(i), ArchReg::int(1), &[ArchReg::int(1)]));
        }
        insts.push(Inst::load(loop_pc(400), ArchReg::int(2), Addr(0x30_0000)));
        let core = run(VecStream::new(insts), 50_000);
        let (_, l1d, _) = core.mem().cache_stats();
        // The prefetch (not the load) took the L2 miss for the data
        // block, so the final load hits in the L1.
        assert_eq!(core.mem().stats().l2_prefetch_misses, 1);
        assert!(l1d.hits >= 1);
    }

    #[test]
    fn icache_misses_stall_fetch_but_resolve() {
        // Jump far every instruction so each fetch touches a cold
        // I-block: massive I-side misses, still must drain.
        let insts: VecStream = (0..50u64)
            .map(|i| {
                Inst::branch(
                    Pc(i << 16),
                    BranchInfo {
                        kind: BranchKind::Jump,
                        taken: true,
                        target: Pc((i + 1) << 16),
                    },
                    None,
                )
            })
            .collect();
        let core = run(insts, 200_000);
        assert_eq!(core.stats().committed, 50);
        let (l1i, _, _) = core.mem().cache_stats();
        assert!(l1i.misses >= 50);
    }

    #[test]
    fn done_is_false_midway() {
        let mut core = Core::new(
            CoreConfig::baseline(),
            Hierarchy::new(HierarchyConfig::baseline()),
            alu_chain(100, false),
        );
        assert!(!core.done());
        core.tick_mem(0);
        core.cycle(0);
        assert!(!core.done());
    }

    #[test]
    fn ipc_is_bounded_by_width() {
        let core = run(alu_chain(8000, false), 100_000);
        assert!(core.stats().ipc() <= 8.0 + 1e-9);
    }
}

#[cfg(test)]
mod backpressure_tests {
    use super::*;
    use vsv_isa::{ArchReg, BranchKind, Pc, VecStream};
    use vsv_mem::HierarchyConfig;

    fn run_with(
        cfg: CoreConfig,
        mem: HierarchyConfig,
        stream: VecStream,
        limit: u64,
    ) -> Core<VecStream> {
        let mut core = Core::new(cfg, Hierarchy::new(mem), stream);
        let mut now = 0;
        while !core.done() && now < limit {
            core.tick_mem(now);
            core.cycle(now);
            now += 1;
        }
        assert!(core.done(), "program did not drain within {limit} ns");
        core
    }

    #[test]
    fn call_return_pairs_predict_after_warmup() {
        // A loop of call -> work -> return; the RAS should predict the
        // returns once the BTB knows the call targets.
        let mut insts = Vec::new();
        for lap in 0..200u64 {
            let _ = lap;
            insts.push(Inst::branch(
                Pc(0x100),
                vsv_isa::BranchInfo {
                    kind: BranchKind::Call,
                    taken: true,
                    target: Pc(0x400),
                },
                None,
            ));
            insts.push(Inst::alu(Pc(0x400), ArchReg::int(1), &[]));
            insts.push(Inst::branch(
                Pc(0x404),
                vsv_isa::BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    target: Pc(0x104),
                },
                None,
            ));
            insts.push(Inst::alu(Pc(0x104), ArchReg::int(2), &[]));
            // Jump back to the call site.
            insts.push(Inst::branch(
                Pc(0x108),
                vsv_isa::BranchInfo {
                    kind: BranchKind::Jump,
                    taken: true,
                    target: Pc(0x100),
                },
                None,
            ));
        }
        let core = run_with(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            VecStream::new(insts),
            100_000,
        );
        let s = core.stats();
        assert_eq!(s.committed, 1000);
        // After the first lap or two, all three branches per lap are
        // predicted: mispredicts should be a small fraction.
        assert!(
            s.mispredict_rate() < 0.05,
            "call/return loop should predict, rate {}",
            s.mispredict_rate()
        );
    }

    #[test]
    fn lsq_full_throttles_but_completes() {
        let mut cfg = CoreConfig::baseline();
        cfg.lsq_entries = 2;
        // A burst of independent hot loads larger than the LSQ.
        let insts: VecStream = (0..200u64)
            .map(|i| {
                Inst::load(
                    Pc((i % 32) * 4),
                    ArchReg::int((i % 4) as u8),
                    Addr(0x100 + (i % 8) * 32),
                )
            })
            .collect();
        let core = run_with(cfg, HierarchyConfig::baseline(), insts, 200_000);
        assert_eq!(core.stats().committed, 200);
        assert_eq!(core.stats().loads, 200);
    }

    #[test]
    fn dl1_mshr_full_retries_until_done() {
        let mut mem = HierarchyConfig::baseline();
        mem.dl1_mshrs = 1;
        // Many independent far loads: only one can be outstanding.
        let insts: VecStream = (0..24u64)
            .map(|i| {
                Inst::load(
                    Pc((i % 16) * 4),
                    ArchReg::int((i % 8) as u8),
                    Addr(0x100_0000 + i * 4096),
                )
            })
            .collect();
        let core = run_with(CoreConfig::baseline(), mem, insts, 200_000);
        assert_eq!(core.stats().committed, 24);
        assert!(
            core.stats().mshr_blocked_issues > 0,
            "the single MSHR must have caused retries"
        );
    }

    #[test]
    fn unpipelined_muldiv_serialises_on_two_units() {
        // 16 independent int divides on 2 unpipelined units, latency 8:
        // lower bound 16/2*8 = 64 cycles.
        let insts: VecStream = (0..16u64)
            .map(|i| {
                Inst::compute(
                    Pc((i % 16) * 4),
                    OpClass::IntMulDiv,
                    ArchReg::int((i % 8) as u8),
                    &[],
                )
            })
            .collect();
        let core = run_with(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            insts,
            200_000,
        );
        assert!(
            core.stats().cycles >= 64,
            "2 unpipelined units x 8 cycles bound, got {}",
            core.stats().cycles
        );
    }

    #[test]
    fn issue_never_exceeds_width() {
        let mut core = Core::new(
            CoreConfig::baseline(),
            Hierarchy::new(HierarchyConfig::baseline()),
            (0..4000u64)
                .map(|i| Inst::alu(Pc((i % 128) * 4), ArchReg::int((i % 8) as u8), &[]))
                .collect::<VecStream>(),
        );
        let mut now = 0;
        while !core.done() && now < 50_000 {
            core.tick_mem(now);
            let act = core.cycle(now);
            assert!(act.issued <= 8, "issued {} > width", act.issued);
            assert!(act.committed <= 8);
            assert!(act.fetched <= 8);
            now += 1;
        }
    }

    #[test]
    fn single_mispredict_costs_at_least_the_penalty() {
        // Two programs identical except one branch direction flips on
        // its single dynamic execution after the predictor was trained
        // the other way.
        let build = |taken: bool| {
            let mut v = Vec::new();
            for i in 0..64u64 {
                v.push(Inst::alu(Pc(i * 4), ArchReg::int(1), &[]));
            }
            v.push(Inst::branch(
                Pc(0x100),
                vsv_isa::BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    target: Pc(0x108),
                },
                None,
            ));
            let next = if taken { 0x108u64 } else { 0x104 };
            for i in 0..64u64 {
                v.push(Inst::alu(Pc(next + i * 4), ArchReg::int(2), &[]));
            }
            VecStream::new(v)
        };
        // Not-taken is the cold predictor's default: no bubble.
        let fast = run_with(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            build(false),
            100_000,
        );
        let slow = run_with(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            build(true),
            100_000,
        );
        assert_eq!(slow.stats().mispredicts, 1);
        assert!(
            slow.stats().cycles >= fast.stats().cycles + 8,
            "one mispredict must cost >= the 8-cycle penalty: {} vs {}",
            slow.stats().cycles,
            fast.stats().cycles
        );
    }

    #[test]
    fn store_misses_do_not_block_commit() {
        // Stores to cold far memory: commit should proceed long before
        // the ~124 ns fills would complete.
        let mut insts = Vec::new();
        for i in 0..8u64 {
            insts.push(Inst::store(
                Pc(i * 4),
                Addr(0x200_0000 + i * 4096),
                ArchReg::int(1),
            ));
        }
        for i in 8..40u64 {
            insts.push(Inst::alu(Pc(i * 4), ArchReg::int(2), &[]));
        }
        let core = run_with(
            CoreConfig::baseline(),
            HierarchyConfig::baseline(),
            VecStream::new(insts),
            100_000,
        );
        // Everything drains; the stores' misses ride the write buffer.
        // The run pays ~5 serial cold I-block misses (~620 cycles); if
        // the 8 store misses also serialised commit it would take
        // ~1000 cycles more.
        assert_eq!(core.stats().stores, 8);
        assert!(
            core.stats().cycles < 800,
            "store misses must not serialise commit: {} cycles",
            core.stats().cycles
        );
    }
}

#[cfg(test)]
mod disambiguation_tests {
    use super::*;
    use vsv_isa::{ArchReg, Pc, VecStream};
    use vsv_mem::HierarchyConfig;

    /// Alternating stores (to the hot set) and independent far loads.
    fn store_load_mix() -> VecStream {
        let mut v = Vec::new();
        for i in 0..400u64 {
            let pc = Pc((i % 64) * 4);
            if i % 2 == 0 {
                v.push(Inst::store(
                    pc,
                    Addr(0x1000 + (i % 16) * 32),
                    ArchReg::int(1),
                ));
            } else {
                v.push(Inst::load(
                    pc,
                    ArchReg::int((i % 4) as u8 + 2),
                    Addr(0x4000 + (i % 32) * 32),
                ));
            }
        }
        VecStream::new(v)
    }

    fn run_mode(conservative: bool) -> CoreStats {
        let mut cfg = CoreConfig::baseline();
        cfg.conservative_mem_disambiguation = conservative;
        let mut core = Core::new(
            cfg,
            Hierarchy::new(HierarchyConfig::baseline()),
            store_load_mix(),
        );
        let mut now = 0;
        while !core.done() && now < 100_000 {
            core.tick_mem(now);
            core.cycle(now);
            now += 1;
        }
        assert!(core.done());
        core.stats()
    }

    #[test]
    fn conservative_disambiguation_is_slower_but_correct() {
        let aggressive = run_mode(false);
        let conservative = run_mode(true);
        assert_eq!(aggressive.committed, conservative.committed);
        assert_eq!(aggressive.loads, conservative.loads);
        assert!(
            conservative.cycles > aggressive.cycles,
            "waiting behind stores must cost cycles: {} vs {}",
            conservative.cycles,
            aggressive.cycles
        );
    }

    #[test]
    fn forwarding_still_works_in_conservative_mode() {
        let mut cfg = CoreConfig::baseline();
        cfg.conservative_mem_disambiguation = true;
        let insts = vec![
            Inst::alu(Pc(0), ArchReg::int(1), &[]),
            Inst::store(Pc(4), Addr(0x40), ArchReg::int(1)),
            Inst::load(Pc(8), ArchReg::int(2), Addr(0x40)),
        ];
        let mut core = Core::new(
            cfg,
            Hierarchy::new(HierarchyConfig::baseline()),
            VecStream::new(insts),
        );
        let mut now = 0;
        while !core.done() && now < 10_000 {
            core.tick_mem(now);
            core.cycle(now);
            now += 1;
        }
        assert_eq!(core.stats().forwarded_loads, 1);
    }

    #[test]
    fn try_new_returns_validation_errors() {
        let mut cfg = CoreConfig::baseline();
        cfg.lsq_entries = cfg.ruu_entries + 1;
        let err = Core::try_new(
            cfg,
            Hierarchy::new(HierarchyConfig::baseline()),
            VecStream::new(Vec::new()),
        )
        .expect_err("lsq > ruu is invalid");
        assert!(err.contains("lsq_entries"), "{err}");
        assert!(Core::try_new(
            CoreConfig::baseline(),
            Hierarchy::new(HierarchyConfig::baseline()),
            VecStream::new(Vec::new()),
        )
        .is_ok());
    }
}
