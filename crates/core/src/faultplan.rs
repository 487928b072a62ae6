//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] decides every fault a robustness test injects,
//! purely from its seed and the identity of each work item: which
//! functions panic, get skipped, or run with a starved fuel budget;
//! which parallel stage items fault; which supervised attempts fail and
//! where a supervised run stops; and which storage operations lie. No
//! wall-clock or OS randomness is consulted, so the same plan on the
//! same input produces bit-identical results whatever the thread count,
//! and a failing seed replays exactly.
//!
//! The plan only decides; each consumer honors its own lanes. `Rock`
//! and `Supervisor` consult the compute lanes, and `rock-supervisor`'s
//! `FaultyVfs` consults the storage lanes, so one plan handed to both
//! drives a job and its store in the same run.
//!
//! The lanes, with the directives that pin them:
//!
//! - analysis functions, keyed by address: `panic_on`, `skip`,
//!   `starve`; a seeded hit panics, skips or starves the function;
//! - parallel stage items, keyed by item: `panic_in`; a seeded hit is a
//!   contained panic;
//! - supervised attempts and stage boundaries: `fail_attempts`,
//!   `interrupt_after`; never seeded;
//! - storage ops ([`ChaosOp`]), keyed by per-op sequence number:
//!   `fail_storage`; a seeded hit is a [`ChaosFlavor`] the op can show.
//!
//! One engine decides every seeded fault: the draw for `key` on `lane`
//! is `splitmix64(seed ^ splitmix64((lane << 32) ^ key))`, a hit is
//! `draw % 1000 < rate_per_mille`, and a hit's flavor comes from the
//! independent draw at `!key`. Pinned directives win over the rate.
//! Lanes are numbered `Stage as u64` and `ChaosOp as u64`, so some
//! share a number (`Stage::Analysis` and `ChaosOp::Write` are both 1);
//! their key spaces differ, and the unit tests pin every schedule.

use std::collections::{BTreeMap, BTreeSet};

use rock_analysis::{AnalysisHooks, Budget, FunctionDirective};
use rock_binary::Addr;
use rock_trace::splitmix64;

use crate::diagnostics::Stage;
use crate::staged::StageId;

/// The storage operation classes a plan can fault, one lane each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosOp {
    /// Whole-file reads (`Vfs::read`).
    Read,
    /// Whole-file writes (`Vfs::write`).
    Write,
    /// Commit renames (`Vfs::rename`).
    Rename,
    /// File / tree removal (`Vfs::remove_file`, `Vfs::remove_dir_all`).
    Remove,
    /// Directory listing (`Vfs::list`).
    List,
    /// Durability syncs (`Vfs::sync_file`, `Vfs::sync_dir`).
    Sync,
    /// Directory creation (`Vfs::create_dir_all`).
    CreateDir,
}

/// How an injected storage fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFlavor {
    /// The write lands a seeded prefix of the data, then errors: the
    /// classic torn write. Persistent for this attempt; the tmp-file
    /// protocol keeps the torn bytes out of committed artifacts.
    TornWrite,
    /// The write lands a seeded prefix of the data and *reports
    /// success* — only the artifact checksum can catch this one.
    SilentTorn,
    /// ENOSPC: the disk is full. Persistent — retrying won't help.
    Enospc,
    /// EINTR-shaped transient error; a bounded retry clears it.
    TransientEio,
    /// The rename (commit point) fails; the tmp file is still
    /// removable, so a store cleanup leaves no debris.
    RenameFail,
    /// The read returns a seeded prefix of the real bytes, as a short
    /// read would after a torn write on the far side of a crash.
    PartialRead,
    /// Crash shape: the rename fails AND the tmp file becomes
    /// unremovable for one attempt, stranding a stale segment tmp
    /// exactly like a process that died between write and rename.
    CrashTmp,
    /// The operation fails with a generic persistent EIO.
    Eio,
}

/// A deterministic plan of injected faults (see the module docs).
///
/// Explicit directives (built with [`FaultPlan::panic_on`] and friends)
/// always win; on top of them, [`FaultPlan::seeded`] makes every
/// `(lane, key)` pair independently fault with a fixed per-mille
/// probability derived from the seed.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rate_per_mille: u32,
    panic_functions: BTreeSet<Addr>,
    skip_functions: BTreeSet<Addr>,
    starved_functions: BTreeMap<Addr, u64>,
    panic_stages: BTreeSet<Stage>,
    interrupt_after: BTreeSet<StageId>,
    fail_attempts: u32,
    storage_faults: BTreeMap<(ChaosOp, u64), ChaosFlavor>,
}

impl FaultPlan {
    /// An explicit plan with no seeded faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan where every `(lane, key)` pair independently faults with
    /// probability `rate_per_mille / 1000` (clamped to 1000), decided by
    /// hashing the seed with the item's identity.
    pub fn seeded(seed: u64, rate_per_mille: u32) -> Self {
        FaultPlan { seed, rate_per_mille: rate_per_mille.min(1000), ..FaultPlan::default() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Makes the behavioral analysis of `function` panic (contained).
    pub fn panic_on(mut self, function: Addr) -> Self {
        self.panic_functions.insert(function);
        self
    }

    /// Makes the behavioral analysis skip `function`.
    pub fn skip(mut self, function: Addr) -> Self {
        self.skip_functions.insert(function);
        self
    }

    /// Runs `function` with a starved fuel budget of `steps`.
    pub fn starve(mut self, function: Addr, steps: u64) -> Self {
        self.starved_functions.insert(function, steps);
        self
    }

    /// Makes every item of `stage` panic (contained). Only the parallel
    /// stages — [`Stage::Training`], [`Stage::Distances`],
    /// [`Stage::Lifting`] — honor stage-wide panics; function-level
    /// faults go through the [`AnalysisHooks`] implementation.
    pub fn panic_in(mut self, stage: Stage) -> Self {
        self.panic_stages.insert(stage);
        self
    }

    /// Interrupts a supervised run right after `stage` completes (and
    /// after its checkpoint is written), simulating a crash / kill at
    /// that boundary. Drives the resume property tests: a run
    /// interrupted after any stage and then resumed must reproduce the
    /// uninterrupted result bit for bit.
    pub fn interrupt_after(mut self, stage: StageId) -> Self {
        self.interrupt_after.insert(stage);
        self
    }

    /// Whether a supervised run should stop at the boundary after
    /// `stage`. Honored by the supervisor's checkpoint loop, not by the
    /// in-process pipeline (a direct `reconstruct` ignores it).
    pub fn should_interrupt_after(&self, stage: StageId) -> bool {
        self.interrupt_after.contains(&stage)
    }

    /// Makes the first `count` supervised pipeline attempts panic
    /// outright (an *uncontained* fault, unlike [`FaultPlan::panic_on`]),
    /// driving the supervisor's retry ladder deterministically: attempt
    /// `count` is the first one allowed to run.
    pub fn fail_attempts(mut self, count: u32) -> Self {
        self.fail_attempts = count;
        self
    }

    /// Whether 0-based supervised attempt `attempt` should panic before
    /// doing any work. Honored by the supervisor, not by a direct
    /// `reconstruct`.
    pub fn should_fail_attempt(&self, attempt: u32) -> bool {
        attempt < self.fail_attempts
    }

    /// Makes the `nth` call (0-based) of `op` fail as `flavor` ("the 3rd
    /// rename fails ENOSPC"). Honored by a `FaultyVfs` that consults
    /// this plan, which counts calls per op class.
    pub fn fail_storage(mut self, op: ChaosOp, nth: u64, flavor: ChaosFlavor) -> Self {
        self.storage_faults.insert((op, nth), flavor);
        self
    }

    /// One deterministic 64-bit draw for `key` on `lane`.
    fn draw(&self, lane: u64, key: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64((lane << 32) ^ key))
    }

    /// The seeded decision for `(lane, key)`: on a hit, the independent
    /// flavor draw; `None` on a miss.
    fn seeded_pick(&self, lane: u64, key: u64) -> Option<u64> {
        let hit =
            self.rate_per_mille > 0 && self.draw(lane, key) % 1000 < u64::from(self.rate_per_mille);
        hit.then(|| self.draw(lane, !key))
    }

    /// Whether the item identified by `key` should panic inside `stage`.
    pub fn should_panic_in(&self, stage: Stage, key: u64) -> bool {
        self.panic_stages.contains(&stage) || self.seeded_pick(stage as u64, key).is_some()
    }

    /// The fate of the `seq`-th call (0-based) of `op`: a pinned
    /// directive if one names it, else the seeded rate, with the flavor
    /// picked among those `op` can show.
    pub fn storage_fault(&self, op: ChaosOp, seq: u64) -> Option<ChaosFlavor> {
        if let Some(&flavor) = self.storage_faults.get(&(op, seq)) {
            return Some(flavor);
        }
        let pick = self.seeded_pick(op as u64, seq)?;
        Some(match op {
            ChaosOp::Write => match pick % 4 {
                0 => ChaosFlavor::TornWrite,
                1 => ChaosFlavor::SilentTorn,
                2 => ChaosFlavor::Enospc,
                _ => ChaosFlavor::TransientEio,
            },
            ChaosOp::Rename => match pick % 3 {
                0 => ChaosFlavor::RenameFail,
                1 => ChaosFlavor::CrashTmp,
                _ => ChaosFlavor::TransientEio,
            },
            ChaosOp::Read => match pick % 3 {
                0 => ChaosFlavor::PartialRead,
                1 => ChaosFlavor::Eio,
                _ => ChaosFlavor::TransientEio,
            },
            // The bookkeeping ops only see transient noise from the
            // seeded rate; persistent variants come via directives.
            ChaosOp::Remove | ChaosOp::List | ChaosOp::Sync | ChaosOp::CreateDir => {
                ChaosFlavor::TransientEio
            }
        })
    }

    /// Seeded cut point in `[1, len)` for the `seq`-th call of `op` to
    /// tear a write or shorten a read (always strictly short, never
    /// empty for multi-byte payloads).
    pub fn cut(&self, op: ChaosOp, seq: u64, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        1 + (self.draw(op as u64, seq ^ 0xC47) as usize) % (len - 1)
    }

    /// XORs `count` seeded byte positions of `bytes` with seeded values,
    /// returning the mutated positions. Structure-oblivious corruption
    /// for loader-robustness tests.
    pub fn corrupt(&self, bytes: &mut [u8], count: usize) -> Vec<usize> {
        if bytes.is_empty() {
            return Vec::new();
        }
        let mut positions = Vec::with_capacity(count);
        for i in 0..count {
            let r = self.draw(0, 0xC0FF_EE00 ^ i as u64);
            let pos = (r % bytes.len() as u64) as usize;
            // Never XOR with 0: every listed position really changes.
            bytes[pos] ^= ((r >> 32) as u8) | 1;
            positions.push(pos);
        }
        positions
    }
}

impl AnalysisHooks for FaultPlan {
    fn before_function(&self, function: Addr) -> FunctionDirective {
        if self.panic_functions.contains(&function) {
            return FunctionDirective::Panic;
        }
        if self.skip_functions.contains(&function) {
            return FunctionDirective::Skip;
        }
        if let Some(&steps) = self.starved_functions.get(&function) {
            return FunctionDirective::Fuel(Budget::steps(steps));
        }
        match self.seeded_pick(Stage::Analysis as u64, function.value()).map(|pick| pick % 3) {
            None => FunctionDirective::Run,
            Some(0) => FunctionDirective::Panic,
            Some(1) => FunctionDirective::Skip,
            Some(_) => FunctionDirective::Fuel(Budget::steps(2)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAGES: [Stage; 7] = [
        Stage::Load,
        Stage::Analysis,
        Stage::Structural,
        Stage::Training,
        Stage::Distances,
        Stage::Lifting,
        Stage::Repartition,
    ];
    const OPS: [ChaosOp; 7] = [
        ChaosOp::Read,
        ChaosOp::Write,
        ChaosOp::Rename,
        ChaosOp::Remove,
        ChaosOp::List,
        ChaosOp::Sync,
        ChaosOp::CreateDir,
    ];

    /// Digests of every seeded decision over seeds 0..16, one row per
    /// rate: analysis directives for addresses 0..2048, stage panics for
    /// keys 0..512 on every stage, and storage faults for sequence
    /// numbers 0..2048 on every op. Recorded from the separate compute
    /// and storage engines this plan replaced: a changed lane number,
    /// key, flavor pick or threshold changes a digest.
    const PINNED: [(u32, [u64; 3]); 8] = [
        (0, [0x9C73_5BED_0A72_2325, 0x7E74_5F7B_6F2E_2325, 0x2F86_5F20_3052_2325]),
        (1, [0x9EB6_7DA8_BB04_FA4F, 0x8222_8D96_0021_06A5, 0xB579_84CD_D5D9_6D8F]),
        (120, [0x221D_AD90_2D44_7FCC, 0x71CF_1144_829B_4CA5, 0x3EB0_C028_613C_D34D]),
        (150, [0x4EFA_FA9A_15BF_33E5, 0x86D7_DFD2_365C_88C4, 0x3778_42AD_913E_CBA4]),
        (250, [0xC47F_EEB5_8190_E5EC, 0x662C_7771_DF7C_4104, 0x130E_8DA8_C9CB_EA40]),
        (350, [0xD073_255B_0878_B3AF, 0x9606_DBB7_A364_3425, 0xF35A_B1C9_A30E_17CF]),
        (1000, [0x2A3E_2A28_41FC_4D65, 0x7111_837F_B2C0_2325, 0xE178_5B44_C3F5_0345]),
        (5000, [0x2A3E_2A28_41FC_4D65, 0x7111_837F_B2C0_2325, 0xE178_5B44_C3F5_0345]),
    ];
    /// The rate-independent draws over the same seeds: cut points for
    /// sequence numbers 0..64 of every op at lengths 0, 1, 2, 17 and
    /// 4096, and 8 corrupted positions of a 64-byte buffer.
    const PINNED_CUTS: u64 = 0x4D14_86B3_315C_E92C;
    const PINNED_CORRUPTION: u64 = 0x8ADA_C9A1_3C2E_0174;

    /// FNV-1a, continued over one decision.
    fn fold(h: u64, x: u64) -> u64 {
        x.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
    }
    const FNV: u64 = 0xCBF2_9CE4_8422_2325;

    fn directive_code(d: FunctionDirective) -> u64 {
        match d {
            FunctionDirective::Run => 0,
            FunctionDirective::Skip => 1,
            FunctionDirective::Panic => 2,
            FunctionDirective::Fuel(b) => 3 | (b.limit() << 2),
        }
    }

    #[test]
    fn seeded_schedules_match_the_pinned_digests_and_rates() {
        let mut cuts = FNV;
        let mut corruption = FNV;
        for (row, &(rate, pinned)) in PINNED.iter().enumerate() {
            let mut digests = [FNV; 3];
            // Hits per lane kind, against the decisions made.
            let mut hits = [0u64; 3];
            let made = [16 * 2048, 16 * 7 * 512, 16 * 7 * 2048];
            for seed in 0..16u64 {
                let plan = FaultPlan::seeded(seed, rate);
                assert_eq!(plan.seed(), seed);
                for addr in 0..2048 {
                    let d = plan.before_function(Addr::new(addr));
                    digests[0] = fold(digests[0], directive_code(d));
                    hits[0] += u64::from(d != FunctionDirective::Run);
                }
                for stage in STAGES {
                    for key in 0..512 {
                        let hit = plan.should_panic_in(stage, key);
                        digests[1] = fold(digests[1], u64::from(hit));
                        hits[1] += u64::from(hit);
                    }
                }
                for op in OPS {
                    for seq in 0..2048 {
                        let fault = plan.storage_fault(op, seq);
                        digests[2] = fold(digests[2], fault.map_or(0, |f| f as u64 + 1));
                        hits[2] += u64::from(fault.is_some());
                    }
                }
                if row == 0 {
                    for op in OPS {
                        for seq in 0..64 {
                            for len in [0, 1, 2, 17, 4096] {
                                cuts = fold(cuts, plan.cut(op, seq, len) as u64);
                            }
                        }
                    }
                    let mut buf = [0u8; 64];
                    for p in plan.corrupt(&mut buf, 8) {
                        corruption = fold(corruption, p as u64);
                    }
                    for b in buf {
                        corruption = fold(corruption, u64::from(b));
                    }
                }
            }
            assert_eq!(digests, pinned, "rate {rate}: the seeded schedule moved");
            // Every lane fires at its nominal rate: never at 0, always
            // at 1000 and above (clamped), and close to rate/1000 between.
            for (lane, (&hit, &total)) in hits.iter().zip(&made).enumerate() {
                let expected = total * u64::from(rate.min(1000)) / 1000;
                assert!(
                    hit.abs_diff(expected) <= expected / 10 + 20,
                    "rate {rate} lane kind {lane}: {hit} hits of {total}, ~{expected} expected"
                );
                assert_eq!(hit == 0, rate == 0);
                assert_eq!(hit == total, rate >= 1000);
            }
        }
        assert_eq!(cuts, PINNED_CUTS, "the seeded cut points moved");
        assert_eq!(corruption, PINNED_CORRUPTION, "the seeded corruption moved");
    }

    #[test]
    fn explicit_directives_win() {
        let plan = FaultPlan::new()
            .panic_on(Addr::new(0x10))
            .skip(Addr::new(0x20))
            .starve(Addr::new(0x30), 5);
        assert_eq!(plan.before_function(Addr::new(0x10)), FunctionDirective::Panic);
        assert_eq!(plan.before_function(Addr::new(0x20)), FunctionDirective::Skip);
        assert_eq!(
            plan.before_function(Addr::new(0x30)),
            FunctionDirective::Fuel(Budget::steps(5))
        );
        assert_eq!(plan.before_function(Addr::new(0x40)), FunctionDirective::Run);
    }

    #[test]
    fn storage_directives_pin_exact_operations() {
        let plan = FaultPlan::new()
            .fail_storage(ChaosOp::Rename, 2, ChaosFlavor::RenameFail)
            .fail_storage(ChaosOp::Write, 0, ChaosFlavor::Enospc);
        assert_eq!(plan.storage_fault(ChaosOp::Rename, 2), Some(ChaosFlavor::RenameFail));
        assert_eq!(plan.storage_fault(ChaosOp::Rename, 1), None);
        assert_eq!(plan.storage_fault(ChaosOp::Write, 0), Some(ChaosFlavor::Enospc));
        assert_eq!(plan.storage_fault(ChaosOp::Write, 1), None);
    }

    #[test]
    fn cut_is_strictly_short_and_nonempty() {
        let plan = FaultPlan::seeded(3, 1000);
        for len in [2usize, 3, 17, 4096] {
            for seq in 0..32 {
                let cut = plan.cut(ChaosOp::Write, seq, len);
                assert!((1..len).contains(&cut), "len={len} cut={cut}");
            }
        }
        assert_eq!(plan.cut(ChaosOp::Write, 0, 0), 0);
        assert_eq!(plan.cut(ChaosOp::Write, 0, 1), 0);
    }

    #[test]
    fn stage_panics_are_per_stage() {
        let plan = FaultPlan::new().panic_in(Stage::Training);
        assert!(plan.should_panic_in(Stage::Training, 0));
        assert!(!plan.should_panic_in(Stage::Lifting, 0));
    }

    #[test]
    fn interrupts_are_per_boundary_and_inert_by_default() {
        let plan = FaultPlan::new().interrupt_after(StageId::Training);
        assert!(plan.should_interrupt_after(StageId::Training));
        assert!(!plan.should_interrupt_after(StageId::Analysis));
        assert!(!FaultPlan::seeded(9, 500).should_interrupt_after(StageId::Lifting));
    }

    #[test]
    fn attempt_failures_count_down_then_stop() {
        let plan = FaultPlan::new().fail_attempts(2);
        assert!(plan.should_fail_attempt(0));
        assert!(plan.should_fail_attempt(1));
        assert!(!plan.should_fail_attempt(2));
        assert!(!FaultPlan::new().should_fail_attempt(0));
    }

    #[test]
    fn corruption_mutates_listed_positions() {
        let plan = FaultPlan::seeded(11, 0);
        let clean = vec![0u8; 64];
        let mut dirty = clean.clone();
        let positions = plan.corrupt(&mut dirty, 8);
        assert_eq!(positions.len(), 8);
        for &p in &positions {
            assert_ne!(dirty[p], clean[p], "position {p} must change");
        }
        // Deterministic: same plan, same mutations.
        let mut again = clean.clone();
        assert_eq!(plan.corrupt(&mut again, 8), positions);
        assert_eq!(again, dirty);
        // Empty input is a no-op.
        assert!(plan.corrupt(&mut [], 4).is_empty());
    }
}
