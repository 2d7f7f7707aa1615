//! The synthetic instruction-stream generator.
//!
//! A [`Generator`] turns a [`WorkloadParams`] point into an infinite,
//! deterministic [`InstStream`] with the prescribed memory behaviour,
//! ILP, branch behaviour and software-prefetch coverage. See the crate
//! docs for how each axis maps onto SPEC2K characteristics.

use std::collections::VecDeque;

use vsv_isa::{Addr, ArchReg, BranchInfo, BranchKind, Inst, InstStream, OpClass, Pc};

use crate::params::{AccessPattern, WorkloadParams};
use crate::rng::XorShift64;

/// Base address of the hot (L1-resident) data region.
const HOT_BASE: u64 = 0x0800_0000;
/// Base address of the far (working-set) data region.
const FAR_BASE: u64 = 0x1000_0000;
/// Block granularity of far accesses (the L1 block size).
const FAR_STRIDE: u64 = 32;
/// The PC a planned instruction carries until it is emitted.
const UNPLACED: Pc = Pc(0);

/// The deterministic workload twin generator.
///
/// # Examples
///
/// ```
/// use vsv_isa::InstStream;
/// use vsv_workloads::{Generator, WorkloadParams};
///
/// let mut g = Generator::new(WorkloadParams::compute_bound("demo"));
/// let first = g.next_inst().unwrap();
/// let mut g2 = Generator::new(WorkloadParams::compute_bound("demo"));
/// assert_eq!(g2.next_inst().unwrap(), first, "same params, same stream");
/// ```
#[derive(Debug, Clone)]
pub struct Generator {
    p: WorkloadParams,
    rng: XorShift64,
    pc: u64,
    // Planned instructions, oldest first; each takes its PC when it
    // is emitted.
    planned: VecDeque<Inst>,
    prefetch_now: VecDeque<Addr>,
    n_far_blocks: u64,
    n_hot_blocks: u64,
    stream_cursor: u64,
    perm_cursor: u64,
    // The dependence chain the next compute op extends, cycling
    // through `0..ilp_chains`.
    chain: usize,
    far_dest_idx: usize,
    last_far_dest: Option<ArchReg>,
    pending_dep: Option<ArchReg>,
    burst_left: usize,
    emitted: u64,
    // One `SITE_*` flag byte per PC slot of the code footprint, fixed
    // at construction (the same PC always holds the same kind of
    // instruction).
    sites: Vec<u8>,
    // `mem_fraction / (1 - branch_fraction)`: the memory share of the
    // planned (non-branch) instructions.
    mem_share: f64,
    // `far_fraction / miss_burst`: the chance a load slot starts a
    // burst of far loads.
    burst_start: f64,
}

/// Site flag: a conditional branch lives at this PC slot.
const SITE_BRANCH: u8 = 1;
/// Site flag: the branch here goes either way at random.
const SITE_RANDOM: u8 = 2;
/// Site flag: the fixed direction of a non-random branch is taken.
const SITE_TAKEN: u8 = 4;

impl Generator {
    /// Builds a generator for `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`WorkloadParams::validate`].
    #[must_use]
    pub fn new(params: WorkloadParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid workload parameters for {}: {e}", params.name);
        }
        let n_far_blocks = (params.working_set_bytes / FAR_STRIDE).next_power_of_two();
        let n_hot_blocks = (params.hot_set_bytes / FAR_STRIDE).max(1);
        let sites = (0..params.code_footprint_bytes / Pc::STEP)
            .map(|slot| site_flags(&params, slot * Pc::STEP))
            .collect();
        let mut g = Generator {
            rng: XorShift64::new(params.seed ^ 0xA5A5_5A5A),
            pc: 0,
            planned: VecDeque::with_capacity(params.sw_prefetch_distance + 1),
            prefetch_now: VecDeque::new(),
            n_far_blocks,
            n_hot_blocks,
            stream_cursor: 0,
            perm_cursor: 1,
            chain: 0,
            far_dest_idx: 0,
            last_far_dest: None,
            pending_dep: None,
            burst_left: 0,
            emitted: 0,
            sites,
            mem_share: params.mem_fraction / (1.0 - params.branch_fraction),
            burst_start: params.far_fraction / params.miss_burst as f64,
            p: params,
        };
        // Prime the plan queue so software prefetches always lead
        // their loads by the full distance; loads planned during this
        // warm-up burst go unprefetched (their prefetch would have had
        // no lead time).
        while g.planned.len() <= g.p.sw_prefetch_distance {
            g.plan_one();
        }
        g.prefetch_now.clear();
        g
    }

    /// The parameters this generator runs.
    #[must_use]
    pub fn params(&self) -> &WorkloadParams {
        &self.p
    }

    /// Dynamic instructions emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    // ---- planning ---------------------------------------------------

    fn plan_one(&mut self) {
        // Branches are emitted at fixed PC *sites* (see `next_inst`),
        // so the planner only mixes memory and compute ops; the memory
        // fraction is renormalised to keep the overall mix on target.
        let r = self.rng.unit();
        let planned = if r < self.mem_share {
            if self.rng.chance(self.p.store_ratio) {
                let addr = self.hot_addr();
                Inst::store(UNPLACED, addr, self.chain_reg_int(self.chain))
            } else if self.take_burst_slot() {
                self.plan_far_load()
            } else {
                // Hot load: L1-resident, feeds nothing critical.
                let dst = self.next_far_dest();
                Inst::load(UNPLACED, dst, self.hot_addr())
            }
        } else {
            self.plan_compute()
        };
        self.planned.push_back(planned);
    }

    /// Decides whether this load slot is a far load, clustering far
    /// loads into runs of ~`miss_burst` while preserving the overall
    /// `far_fraction` rate.
    fn take_burst_slot(&mut self) -> bool {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            return true;
        }
        if self.rng.chance(self.burst_start) {
            self.burst_left = self.p.miss_burst - 1;
            true
        } else {
            false
        }
    }

    fn plan_far_load(&mut self) -> Inst {
        let addr = self.far_addr();
        let dst = self.next_far_dest();
        let base = if self.rng.chance(self.p.chase_dependency) {
            self.last_far_dest
        } else {
            None
        };
        self.last_far_dest = Some(dst);
        if self.rng.chance(self.p.miss_dependency) {
            self.pending_dep = Some(dst);
        }
        if self.rng.chance(self.p.sw_prefetch_coverage) {
            // Emitted immediately; the load surfaces after the plan
            // queue drains (≈ sw_prefetch_distance instructions later).
            self.prefetch_now.push_back(addr);
        }
        match base {
            Some(b) => Inst::load_dep(UNPLACED, dst, b, addr),
            None => Inst::load(UNPLACED, dst, addr),
        }
    }

    fn plan_compute(&mut self) -> Inst {
        const OPS: [OpClass; 4] = [
            OpClass::IntAlu,
            OpClass::IntMulDiv,
            OpClass::FpAlu,
            OpClass::FpMulDiv,
        ];
        let c = self.chain;
        self.chain = if c + 1 == self.p.ilp_chains { 0 } else { c + 1 };
        let fp = self.rng.chance(self.p.fp_fraction);
        let muldiv = self.rng.chance(self.p.muldiv_fraction);
        let op = OPS[usize::from(fp) * 2 + usize::from(muldiv)];
        // Chain c lives in r(1+c), or f(1+c) for FP ops.
        let reg = ArchReg::from_index(usize::from(fp) * usize::from(ArchReg::NUM_INT) + 1 + c);
        match self.pending_dep.take() {
            Some(extra) => Inst::compute(UNPLACED, op, reg, &[reg, extra]),
            None => Inst::compute(UNPLACED, op, reg, &[reg]),
        }
    }

    // ---- operands ---------------------------------------------------

    fn chain_reg_int(&self, c: usize) -> ArchReg {
        ArchReg::int(1 + c as u8)
    }

    fn next_far_dest(&mut self) -> ArchReg {
        // Rotate through r24..r27 for load results.
        let reg = ArchReg::int(24 + (self.far_dest_idx % 4) as u8);
        self.far_dest_idx += 1;
        reg
    }

    fn hot_addr(&mut self) -> Addr {
        let block = self.rng.below(self.n_hot_blocks);
        let offset = self.rng.below(FAR_STRIDE / 8) * 8;
        Addr(HOT_BASE + block * FAR_STRIDE + offset)
    }

    fn far_addr(&mut self) -> Addr {
        let block = match self.p.pattern {
            AccessPattern::Streaming => {
                let b = self.stream_cursor;
                self.stream_cursor = (self.stream_cursor + 1) & (self.n_far_blocks - 1);
                b
            }
            AccessPattern::PermutationChase => {
                // Full-cycle LCG over 2^k blocks (a ≡ 1 mod 4, c odd):
                // a fixed permutation, so every block has a stable
                // successor the Time-Keeping predictor can learn.
                self.perm_cursor =
                    (self.perm_cursor.wrapping_mul(5).wrapping_add(1)) & (self.n_far_blocks - 1);
                self.perm_cursor
            }
            AccessPattern::Random => self.rng.below(self.n_far_blocks),
            AccessPattern::Strided { blocks } => {
                let b = self.stream_cursor;
                self.stream_cursor = (self.stream_cursor + blocks) & (self.n_far_blocks - 1);
                b
            }
        };
        Addr(FAR_BASE + block * FAR_STRIDE)
    }

    // ---- emission ---------------------------------------------------

    fn emit(&mut self, planned: Inst) -> Inst {
        let inst = planned.at(Pc(self.pc));
        self.pc += Pc::STEP;
        self.emitted += 1;
        inst
    }

    fn wrap_pc(&self, pc: u64) -> u64 {
        pc % self.p.code_footprint_bytes
    }

    /// Emits the conditional branch at the site at `pc`, whose flags
    /// are `site`.
    fn emit_branch_site(&mut self, site: u8) -> Inst {
        let pc = Pc(self.pc);
        let taken = if site & SITE_RANDOM != 0 {
            self.rng.chance(0.5)
        } else {
            site & SITE_TAKEN != 0
        };
        let target = Pc(self.wrap_pc(self.pc + 8));
        self.pc = if taken { target.0 } else { self.pc + Pc::STEP };
        self.emitted += 1;
        Inst::branch(
            pc,
            BranchInfo {
                kind: BranchKind::Conditional,
                taken,
                target,
            },
            Some(self.chain_reg_int(0)),
        )
    }

    /// The always-taken loop-closing jump at the end of the footprint.
    fn emit_loop_jump(&mut self) -> Inst {
        let pc = Pc(self.pc);
        self.pc = 0;
        self.emitted += 1;
        Inst::branch(
            pc,
            BranchInfo {
                kind: BranchKind::Jump,
                taken: true,
                target: Pc(0),
            },
            None,
        )
    }
}

impl InstStream for Generator {
    #[inline]
    fn next_inst(&mut self) -> Option<Inst> {
        // Loop-closing jump takes priority at the footprint boundary.
        if self.pc + Pc::STEP >= self.p.code_footprint_bytes {
            return Some(self.emit_loop_jump());
        }
        // Fixed branch sites pre-empt the plan queue.
        let site = self.sites[(self.pc / Pc::STEP) as usize];
        if site & SITE_BRANCH != 0 {
            return Some(self.emit_branch_site(site));
        }
        if let Some(addr) = self.prefetch_now.pop_front() {
            let pc = Pc(self.pc);
            self.pc += Pc::STEP;
            self.emitted += 1;
            return Some(Inst::prefetch(pc, addr));
        }
        while self.planned.len() <= self.p.sw_prefetch_distance {
            self.plan_one();
        }
        let planned = self.planned.pop_front().expect("planned queue nonempty");
        Some(self.emit(planned))
    }
}

/// The site flags of the PC slot at `pc`. Branch sites are a fixed,
/// hash-selected subset of PC slots — like branches in real code, the
/// same PC always holds the same kind of instruction, so the
/// bimodal/BTB tables can learn them. A second, independent hash picks
/// the `branch_entropy` fraction of sites that are random-direction and
/// the fixed bias of the rest.
fn site_flags(p: &WorkloadParams, pc: u64) -> u8 {
    let mut flags = 0;
    if (pc_hash(pc) % 10_000) as f64 / 10_000.0 < p.branch_fraction {
        flags |= SITE_BRANCH;
    }
    let h = pc_hash(pc ^ 0x0B12_A4C3);
    if (h % 1000) as f64 / 1000.0 < p.branch_entropy {
        flags |= SITE_RANDOM;
    }
    if (h >> 10) & 1 == 1 {
        flags |= SITE_TAKEN;
    }
    flags
}

fn pc_hash(pc: u64) -> u64 {
    let mut x = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AccessPattern;

    fn collect(params: WorkloadParams, n: usize) -> Vec<Inst> {
        let mut g = Generator::new(params);
        (0..n).map(|_| g.next_inst().expect("infinite")).collect()
    }

    #[test]
    fn stream_is_infinite_and_deterministic() {
        let a = collect(WorkloadParams::compute_bound("t"), 5000);
        let b = collect(WorkloadParams::compute_bound("t"), 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut p1 = WorkloadParams::compute_bound("t");
        let mut p2 = WorkloadParams::compute_bound("t");
        p1.seed = 1;
        p2.seed = 2;
        assert_ne!(collect(p1, 1000), collect(p2, 1000));
    }

    #[test]
    fn instruction_mix_tracks_params() {
        let mut p = WorkloadParams::compute_bound("mix");
        p.mem_fraction = 0.4;
        p.store_ratio = 0.25;
        p.branch_fraction = 0.1;
        let insts = collect(p, 50_000);
        let n = insts.len() as f64;
        let loads = insts.iter().filter(|i| i.op() == OpClass::Load).count() as f64 / n;
        let stores = insts.iter().filter(|i| i.op() == OpClass::Store).count() as f64 / n;
        let branches = insts.iter().filter(|i| i.op() == OpClass::Branch).count() as f64 / n;
        assert!((loads - 0.3).abs() < 0.03, "loads {loads}");
        assert!((stores - 0.1).abs() < 0.03, "stores {stores}");
        // Branch fraction includes the loop-closing jumps.
        assert!((branches - 0.1).abs() < 0.04, "branches {branches}");
    }

    #[test]
    fn pcs_stay_within_code_footprint() {
        let p = WorkloadParams::compute_bound("pc");
        let footprint = p.code_footprint_bytes;
        for i in collect(p, 20_000) {
            assert!(i.pc().0 < footprint, "pc {} out of footprint", i.pc());
        }
    }

    #[test]
    fn branch_targets_follow_trace_order() {
        // The instruction after a taken branch must sit at its target;
        // after a not-taken branch, at the fall-through.
        let mut p = WorkloadParams::compute_bound("order");
        p.branch_fraction = 0.3;
        p.branch_entropy = 0.5;
        let insts = collect(p, 20_000);
        for w in insts.windows(2) {
            assert_eq!(
                w[1].pc(),
                w[0].next_pc(),
                "trace must follow control flow: {} then {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn far_loads_touch_far_region_hot_loads_hot_region() {
        let mut p = WorkloadParams::compute_bound("regions");
        p.far_fraction = 0.5;
        for i in collect(p, 20_000) {
            if let Some(a) = i.mem_addr() {
                assert!(
                    a.0 >= HOT_BASE,
                    "data addresses live in the data regions: {a}"
                );
            }
        }
    }

    #[test]
    fn streaming_pattern_is_sequential() {
        let mut p = WorkloadParams::compute_bound("stream");
        p.far_fraction = 1.0;
        p.pattern = AccessPattern::Streaming;
        p.mem_fraction = 0.5;
        p.store_ratio = 0.0;
        let insts = collect(p, 5_000);
        let fars: Vec<u64> = insts
            .iter()
            .filter(|i| i.op() == OpClass::Load && i.mem_addr().unwrap().0 >= FAR_BASE)
            .map(|i| i.mem_addr().unwrap().0)
            .collect();
        assert!(fars.len() > 100);
        for w in fars.windows(2) {
            let delta = w[1].wrapping_sub(w[0]);
            assert!(
                delta == FAR_STRIDE || w[1] == FAR_BASE,
                "stream must advance by one block: {:#x} -> {:#x}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn strided_pattern_advances_by_constant_stride() {
        let mut p = WorkloadParams::compute_bound("strided");
        p.far_fraction = 1.0;
        p.pattern = AccessPattern::Strided { blocks: 4 };
        p.mem_fraction = 0.5;
        p.store_ratio = 0.0;
        let insts = collect(p, 3_000);
        let fars: Vec<u64> = insts
            .iter()
            .filter(|i| i.op() == OpClass::Load && i.mem_addr().unwrap().0 >= FAR_BASE)
            .map(|i| i.mem_addr().unwrap().0)
            .collect();
        assert!(fars.len() > 100);
        for w in fars.windows(2) {
            let delta = w[1].wrapping_sub(w[0]);
            assert!(
                delta == 4 * FAR_STRIDE || w[1] < w[0],
                "stride-4 walk: {:#x} -> {:#x}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn permutation_chase_has_stable_successors() {
        let mut p = WorkloadParams::compute_bound("perm");
        p.far_fraction = 1.0;
        p.pattern = AccessPattern::PermutationChase;
        p.mem_fraction = 0.5;
        p.store_ratio = 0.0;
        p.working_set_bytes = 8 * 1024; // tiny: forces laps
        let insts = collect(p, 50_000);
        let fars: Vec<u64> = insts
            .iter()
            .filter(|i| i.op() == OpClass::Load && i.mem_addr().unwrap().0 >= FAR_BASE)
            .map(|i| i.mem_addr().unwrap().0)
            .collect();
        // Build successor map; every block must have exactly one
        // successor across laps.
        let mut succ = std::collections::HashMap::new();
        for w in fars.windows(2) {
            let prev = succ.insert(w[0], w[1]);
            if let Some(prev) = prev {
                assert_eq!(prev, w[1], "successor of {:#x} must be stable", w[0]);
            }
        }
    }

    #[test]
    fn prefetch_leads_its_load() {
        let mut p = WorkloadParams::compute_bound("pf");
        p.sw_prefetch_coverage = 1.0;
        p.sw_prefetch_distance = 32;
        p.far_fraction = 0.3;
        let insts = collect(p, 20_000);
        let mut lead_checked = 0;
        for (i, inst) in insts.iter().enumerate() {
            if inst.op() == OpClass::Prefetch {
                let addr = inst.mem_addr().unwrap();
                // The matching far load appears within ~2x the distance.
                let found = insts[i + 1..(i + 80).min(insts.len())]
                    .iter()
                    .position(|j| j.op() == OpClass::Load && j.mem_addr() == Some(addr));
                if let Some(gap) = found {
                    assert!(gap + 1 >= 8, "prefetch too close to its load: {gap}");
                    lead_checked += 1;
                }
            }
        }
        assert!(lead_checked > 50, "checked only {lead_checked} prefetches");
    }

    #[test]
    fn chase_dependency_serialises_far_loads() {
        let mut p = WorkloadParams::compute_bound("chase");
        p.chase_dependency = 1.0;
        p.far_fraction = 1.0;
        p.mem_fraction = 0.4;
        p.store_ratio = 0.0;
        p.pattern = AccessPattern::PermutationChase;
        let insts = collect(p, 5_000);
        let mut chained = 0;
        let mut far_loads = 0;
        for i in &insts {
            if i.op() == OpClass::Load && i.mem_addr().unwrap().0 >= FAR_BASE {
                far_loads += 1;
                if i.srcs()[0].is_some() {
                    chained += 1;
                }
            }
        }
        assert!(far_loads > 100);
        // All but the very first far load read the previous one's dest.
        assert!(chained >= far_loads - 1, "{chained}/{far_loads}");
    }

    #[test]
    fn conditional_directions_are_consistent_per_pc_when_predictable() {
        let mut p = WorkloadParams::compute_bound("bias");
        p.branch_entropy = 0.0;
        p.branch_fraction = 0.3;
        let insts = collect(p, 30_000);
        let mut dir = std::collections::HashMap::new();
        for i in &insts {
            if let Some(info) = i.branch_info() {
                if info.kind == BranchKind::Conditional {
                    let prev = dir.insert(i.pc(), info.taken);
                    if let Some(prev) = prev {
                        assert_eq!(prev, info.taken, "pc {} flipped direction", i.pc());
                    }
                }
            }
        }
    }
}
