//! The ten system configurations of the evaluation (§7.2).
//!
//! Every system implements [`MemorySystem`]: given one trace record it
//! returns the stall cycles the access exposes to the core and bookkeeping
//! counters. The implementations differ in exactly the ways the paper's
//! systems differ:
//!
//! | system | caches indexed by | translation point | translator |
//! |---|---|---|---|
//! | `Native`, `Native-2M` | physical | before L1 (parallel TLB) | 4/3-level walk + PWC |
//! | `Virtual`, `Virtual-2M` | physical | before L1 | two-dimensional walk |
//! | `Perfect TLB` | physical | free | none |
//! | `VIVT` | virtual | LLC miss | 4-level walk + TLB |
//! | `Enigma-HW-2M` | intermediate | LLC miss | 16K CTC + HW walk |
//! | `VBI-1/2/Full` | VBI | LLC miss | MTL (per-VB structures) |

use vbi_baselines::enigma::EnigmaController;
use vbi_baselines::mmu::{NativeMmu, PerfectMmu, L2_TLB_LATENCY};
use vbi_baselines::nested::NestedMmu;
use vbi_baselines::page_table::PageSize;
use vbi_core::addr::{SizeClass, VbiAddress, Vbuid};
use vbi_core::client::{ClientId, Cvt};
use vbi_core::config::VbiConfig;
use vbi_core::cvt_cache::{ClientCvtCache, CvtCache};
use vbi_core::mtl::{Mtl, MtlAccess, TranslateResult};
use vbi_core::perm::Rwx;
use vbi_core::vb::VbProperties;
use vbi_mem_sim::controller::MemoryController;
use vbi_mem_sim::hierarchy::{CacheHierarchy, HitLevel};

/// The systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// x86-64 with 4 KiB pages.
    Native,
    /// x86-64 with 2 MiB pages.
    Native2M,
    /// Virtual machine, 4 KiB pages everywhere (2D walks).
    Virtual,
    /// Virtual machine, 2 MiB pages everywhere, with a nested walk cache.
    Virtual2M,
    /// Native with no L1 TLB misses (no translation overhead at all).
    PerfectTlb,
    /// Native but with virtually indexed, virtually tagged caches.
    Vivt,
    /// Enigma with a 16K-entry CTC, hardware walks, and 2 MiB pages.
    EnigmaHw2M,
    /// VBI with flexible 4 KiB-granularity translation structures.
    Vbi1,
    /// VBI-1 plus delayed physical allocation.
    Vbi2,
    /// VBI-2 plus early reservation (direct mapping).
    VbiFull,
}

impl SystemKind {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Native => "Native",
            SystemKind::Native2M => "Native-2M",
            SystemKind::Virtual => "Virtual",
            SystemKind::Virtual2M => "Virtual-2M",
            SystemKind::PerfectTlb => "Perfect TLB",
            SystemKind::Vivt => "VIVT",
            SystemKind::EnigmaHw2M => "Enigma-HW-2M",
            SystemKind::Vbi1 => "VBI-1",
            SystemKind::Vbi2 => "VBI-2",
            SystemKind::VbiFull => "VBI-Full",
        }
    }

    /// All systems, in figure order.
    pub const ALL: [SystemKind; 10] = [
        SystemKind::Native,
        SystemKind::Native2M,
        SystemKind::Virtual,
        SystemKind::Virtual2M,
        SystemKind::PerfectTlb,
        SystemKind::Vivt,
        SystemKind::EnigmaHw2M,
        SystemKind::Vbi1,
        SystemKind::Vbi2,
        SystemKind::VbiFull,
    ];
}

/// Cost of one access as seen by the core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCost {
    /// Cycles of memory stall exposed to this access (before MLP overlap).
    pub stall: u64,
    /// Main-memory (DRAM/PCM) data accesses performed on the demand path.
    pub dram_accesses: u64,
    /// Memory accesses performed for translation (walks, VIT, CVT).
    pub translation_accesses: u64,
    /// The access was served as a zero line (no memory access at all).
    pub zero_line: bool,
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemCounters {
    /// L1 TLB misses (front-end systems only).
    pub tlb_misses: u64,
    /// LLC misses reaching memory/MTL.
    pub llc_misses: u64,
    /// Total demand DRAM accesses.
    pub dram_accesses: u64,
    /// Total translation-related memory accesses.
    pub translation_accesses: u64,
    /// Zero-line returns (VBI-2+).
    pub zero_lines: u64,
}

/// A complete single-core memory system: address layout, caches,
/// translation machinery, and a memory controller.
pub trait MemorySystem {
    /// Registers the workload's regions (sizes in bytes) before the run.
    fn attach_regions(&mut self, sizes: &[u64]);

    /// Plays one access and returns its cost.
    fn access(&mut self, region: usize, offset: u64, is_write: bool) -> AccessCost;

    /// Accumulated counters.
    fn counters(&self) -> SystemCounters;

    /// Resets counters at the warm-up boundary (cache/TLB state persists).
    fn reset_counters(&mut self);
}

/// Builds the system for a kind, sized for `phys_frames` frames of memory.
pub fn build_system(kind: SystemKind, phys_frames: u64) -> Box<dyn MemorySystem> {
    match kind {
        SystemKind::Native => Box::new(PiptSystem::native(PageSize::Kb4, phys_frames)),
        SystemKind::Native2M => Box::new(PiptSystem::native(PageSize::Mb2, phys_frames)),
        SystemKind::Virtual => Box::new(PiptSystem::virtualized(PageSize::Kb4, phys_frames)),
        SystemKind::Virtual2M => Box::new(PiptSystem::virtualized(PageSize::Mb2, phys_frames)),
        SystemKind::PerfectTlb => Box::new(PerfectSystem::new(phys_frames)),
        SystemKind::Vivt => Box::new(VivtSystem::new(phys_frames)),
        SystemKind::EnigmaHw2M => Box::new(EnigmaSystem::new(phys_frames)),
        SystemKind::Vbi1 => Box::new(VbiSystem::new(VbiConfig::vbi_1(), phys_frames)),
        SystemKind::Vbi2 => Box::new(VbiSystem::new(VbiConfig::vbi_2(), phys_frames)),
        SystemKind::VbiFull => Box::new(VbiSystem::new(VbiConfig::vbi_full(), phys_frames)),
    }
}

/// Lays regions out in a virtual (or intermediate) address space with guard
/// gaps, 2 MiB-aligned so large pages apply cleanly.
fn layout_regions(sizes: &[u64]) -> Vec<u64> {
    let mut bases = Vec::with_capacity(sizes.len());
    // Start high so virtual addresses never collide with physical addresses
    // in systems whose cache hierarchy sees both (VIVT walks).
    let mut cursor: u64 = 1 << 40;
    for &size in sizes {
        cursor = cursor.next_multiple_of(2 << 20);
        bases.push(cursor);
        cursor += size.next_multiple_of(2 << 20) + (2 << 20);
    }
    bases
}

/// A small SRAM cache at the memory controller holding translation-structure
/// entries — the working memory of the MTL's "programmable low-power core"
/// (§4.5.3; Pinnacle-class controllers have exactly such SRAM). Enigma's
/// centralized translation cache hardware gets the same structure.
struct ControllerTableCache {
    cache: vbi_mem_sim::Cache,
}

impl ControllerTableCache {
    /// Hit latency of the controller-side SRAM.
    const HIT_CYCLES: u64 = 12;

    fn new() -> Self {
        Self { cache: vbi_mem_sim::Cache::new(256 << 10, 8) }
    }

    /// Plays one table access; returns its latency, touching DRAM on miss.
    fn access(&mut self, pa: u64, memory: &mut MemoryController) -> u64 {
        if self.cache.access(pa, false).hit {
            Self::HIT_CYCLES
        } else {
            Self::HIT_CYCLES + memory.service(pa)
        }
    }
}

/// Plays a set of translation-walk memory references through the cache
/// hierarchy (page-table entries are cacheable), counting each as a
/// translation access, and returns the stall they add.
fn play_walk(
    addrs: &[u64],
    caches: &mut CacheHierarchy,
    memory: &mut MemoryController,
    counters: &mut SystemCounters,
) -> u64 {
    let mut stall = 0;
    for &pa in addrs {
        counters.translation_accesses += 1;
        let access = caches.access(pa, false);
        stall += access.latency;
        if access.level == HitLevel::Memory {
            stall += memory.service(pa);
        }
        for wb in access.llc_writebacks {
            memory.service(wb);
        }
    }
    stall
}

enum FrontEnd {
    Native(NativeMmu),
    Nested(NestedMmu),
}

/// Conventional PIPT systems: `Native`, `Native-2M`, `Virtual`,
/// `Virtual-2M`. Translation sits in front of the cache hierarchy.
pub struct PiptSystem {
    mmu: FrontEnd,
    caches: CacheHierarchy,
    memory: MemoryController,
    bases: Vec<u64>,
    counters: SystemCounters,
}

impl PiptSystem {
    fn native(page_size: PageSize, phys_frames: u64) -> Self {
        Self {
            mmu: FrontEnd::Native(NativeMmu::new(page_size, phys_frames)),
            caches: CacheHierarchy::per_core_default(),
            memory: MemoryController::ddr3_1600(),
            bases: Vec::new(),
            counters: SystemCounters::default(),
        }
    }

    fn virtualized(page_size: PageSize, phys_frames: u64) -> Self {
        Self {
            mmu: FrontEnd::Nested(NestedMmu::new(page_size, phys_frames)),
            caches: CacheHierarchy::per_core_default(),
            memory: MemoryController::ddr3_1600(),
            bases: Vec::new(),
            counters: SystemCounters::default(),
        }
    }
}

impl MemorySystem for PiptSystem {
    fn attach_regions(&mut self, sizes: &[u64]) {
        self.bases = layout_regions(sizes);
    }

    fn access(&mut self, region: usize, offset: u64, is_write: bool) -> AccessCost {
        let vaddr = self.bases[region] + offset;
        let translation = match &mut self.mmu {
            FrontEnd::Native(mmu) => mmu.translate(vaddr),
            FrontEnd::Nested(mmu) => mmu.translate(vaddr),
        };
        let mut cost = AccessCost::default();
        if !translation.events.l1_tlb_hit {
            self.counters.tlb_misses += 1;
        }
        if translation.events.l2_tlb_hit {
            cost.stall += L2_TLB_LATENCY;
        }
        let walk = &translation.events.walk_accesses;
        cost.translation_accesses = walk.len() as u64;
        cost.stall += play_walk(walk, &mut self.caches, &mut self.memory, &mut self.counters);

        let data = self.caches.access(translation.paddr, is_write);
        cost.stall += data.latency;
        if data.level == HitLevel::Memory {
            self.counters.llc_misses += 1;
            cost.stall += self.memory.service(translation.paddr);
            cost.dram_accesses += 1;
            self.counters.dram_accesses += 1;
        }
        for wb in data.llc_writebacks {
            // Writebacks leave the critical path but occupy the device.
            self.memory.service(wb);
            self.counters.dram_accesses += 1;
        }
        cost
    }

    fn counters(&self) -> SystemCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = SystemCounters::default();
    }
}

/// The `Perfect TLB` upper bound: PIPT caches, translation free.
pub struct PerfectSystem {
    mmu: PerfectMmu,
    caches: CacheHierarchy,
    memory: MemoryController,
    bases: Vec<u64>,
    counters: SystemCounters,
}

impl PerfectSystem {
    fn new(phys_frames: u64) -> Self {
        Self {
            mmu: PerfectMmu::new(phys_frames),
            caches: CacheHierarchy::per_core_default(),
            memory: MemoryController::ddr3_1600(),
            bases: Vec::new(),
            counters: SystemCounters::default(),
        }
    }
}

impl MemorySystem for PerfectSystem {
    fn attach_regions(&mut self, sizes: &[u64]) {
        self.bases = layout_regions(sizes);
    }

    fn access(&mut self, region: usize, offset: u64, is_write: bool) -> AccessCost {
        let paddr = self.mmu.translate(self.bases[region] + offset);
        let mut cost = AccessCost::default();
        let data = self.caches.access(paddr, is_write);
        cost.stall += data.latency;
        if data.level == HitLevel::Memory {
            self.counters.llc_misses += 1;
            cost.stall += self.memory.service(paddr);
            cost.dram_accesses += 1;
            self.counters.dram_accesses += 1;
        }
        for wb in data.llc_writebacks {
            self.memory.service(wb);
            self.counters.dram_accesses += 1;
        }
        cost
    }

    fn counters(&self) -> SystemCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = SystemCounters::default();
    }
}

/// `VIVT`: conventional page tables, but caches are indexed by virtual
/// address and translation happens only on LLC misses (and writebacks),
/// overlapped with the LLC access.
pub struct VivtSystem {
    mmu: NativeMmu,
    caches: CacheHierarchy,
    memory: MemoryController,
    bases: Vec<u64>,
    counters: SystemCounters,
}

impl VivtSystem {
    fn new(phys_frames: u64) -> Self {
        Self {
            mmu: NativeMmu::new(PageSize::Kb4, phys_frames),
            caches: CacheHierarchy::per_core_default(),
            memory: MemoryController::ddr3_1600(),
            bases: Vec::new(),
            counters: SystemCounters::default(),
        }
    }

    /// Translates at the memory side. The walker is still a CPU-side
    /// structure under VIVT, so its (physical) references go through the
    /// cache hierarchy like any page walk.
    fn translate_at_memory(&mut self, vaddr: u64) -> (u64, u64, u64) {
        let translation = self.mmu.translate(vaddr);
        if !translation.events.l1_tlb_hit {
            self.counters.tlb_misses += 1;
        }
        let mut stall = if translation.events.l2_tlb_hit { L2_TLB_LATENCY } else { 0 };
        let walk = &translation.events.walk_accesses;
        stall += play_walk(walk, &mut self.caches, &mut self.memory, &mut self.counters);
        (translation.paddr, stall, walk.len() as u64)
    }
}

impl MemorySystem for VivtSystem {
    fn attach_regions(&mut self, sizes: &[u64]) {
        self.bases = layout_regions(sizes);
    }

    fn access(&mut self, region: usize, offset: u64, is_write: bool) -> AccessCost {
        let vaddr = self.bases[region] + offset;
        let mut cost = AccessCost::default();
        let data = self.caches.access(vaddr, is_write);
        cost.stall += data.latency;
        if data.level == HitLevel::Memory {
            self.counters.llc_misses += 1;
            // Translation overlaps the (already charged) LLC lookup; only
            // the excess beyond it is exposed.
            let (paddr, tstall, walks) = self.translate_at_memory(vaddr);
            cost.translation_accesses += walks;
            cost.stall += tstall.saturating_sub(self.caches_latency_llc());
            cost.stall += self.memory.service(paddr);
            cost.dram_accesses += 1;
            self.counters.dram_accesses += 1;
        }
        for wb in data.llc_writebacks {
            let (paddr, _, walks) = self.translate_at_memory(wb);
            cost.translation_accesses += walks;
            self.memory.service(paddr);
            self.counters.dram_accesses += 1;
        }
        cost
    }

    fn counters(&self) -> SystemCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = SystemCounters::default();
    }
}

impl VivtSystem {
    fn caches_latency_llc(&self) -> u64 {
        31
    }
}

/// `Enigma-HW-2M`: caches indexed by intermediate addresses, CTC + hardware
/// walk at the memory controller.
pub struct EnigmaSystem {
    controller: EnigmaController,
    caches: CacheHierarchy,
    memory: MemoryController,
    table_cache: ControllerTableCache,
    bases: Vec<u64>,
    counters: SystemCounters,
}

impl EnigmaSystem {
    fn new(phys_frames: u64) -> Self {
        Self {
            controller: EnigmaController::new(phys_frames),
            caches: CacheHierarchy::per_core_default(),
            memory: MemoryController::ddr3_1600(),
            table_cache: ControllerTableCache::new(),
            bases: Vec::new(),
            counters: SystemCounters::default(),
        }
    }
}

impl MemorySystem for EnigmaSystem {
    fn attach_regions(&mut self, sizes: &[u64]) {
        let mut space = vbi_baselines::enigma::IaSpace::new();
        self.bases = sizes.iter().map(|&s| space.assign(s)).collect();
    }

    fn access(&mut self, region: usize, offset: u64, is_write: bool) -> AccessCost {
        let ia = self.bases[region] + offset;
        let mut cost = AccessCost::default();
        let data = self.caches.access(ia, is_write);
        cost.stall += data.latency;
        if data.level == HitLevel::Memory {
            self.counters.llc_misses += 1;
            let t = self.controller.translate(ia);
            cost.translation_accesses = t.walk_accesses.len() as u64;
            for pa in &t.walk_accesses {
                cost.stall += self.table_cache.access(*pa, &mut self.memory);
                self.counters.translation_accesses += 1;
            }
            cost.stall += self.memory.service(t.paddr);
            cost.dram_accesses += 1;
            self.counters.dram_accesses += 1;
        }
        for wb in data.llc_writebacks {
            let t = self.controller.translate(wb);
            for pa in &t.walk_accesses {
                self.table_cache.access(*pa, &mut self.memory);
                self.counters.translation_accesses += 1;
            }
            self.memory.service(t.paddr);
            self.counters.dram_accesses += 1;
        }
        cost
    }

    fn counters(&self) -> SystemCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = SystemCounters::default();
    }
}

/// The VBI systems: inherently virtual caches in front of the MTL.
pub struct VbiSystem {
    mtl: Mtl,
    caches: CacheHierarchy,
    memory: MemoryController,
    table_cache: ControllerTableCache,
    cvt_cache: CvtCache,
    vbs: Vec<Vbuid>,
    /// The client's in-memory CVT: entry `i` names `vbs[i]` with full
    /// permissions. Built at attach; CVT-cache misses refill from it.
    cvt: Cvt,
    counters: SystemCounters,
    client: ClientId,
}

impl VbiSystem {
    fn new(config: VbiConfig, phys_frames: u64) -> Self {
        let cvt_slots = config.cvt_cache_slots;
        let config = VbiConfig { phys_frames, ..config };
        let client = ClientId(1);
        Self {
            mtl: Mtl::new(config),
            caches: CacheHierarchy::per_core_default(),
            memory: MemoryController::ddr3_1600(),
            table_cache: ControllerTableCache::new(),
            cvt_cache: CvtCache::new(cvt_slots),
            vbs: Vec::new(),
            cvt: Cvt::new(client, 0),
            counters: SystemCounters::default(),
            client,
        }
    }

    /// Serves one MTL translation, charging walk accesses to memory.
    /// Returns `(Some(paddr), stall)` or `(None, stall)` for zero lines.
    fn mtl_translate(&mut self, addr: VbiAddress, access: MtlAccess) -> (Option<u64>, u64, u64) {
        let translation = self.mtl.translate(addr, access).expect("sim VBs are enabled");
        let mut stall = 0;
        let walks = translation.events.table_accesses.len() as u64;
        for pa in &translation.events.table_accesses {
            stall += self.table_cache.access(pa.to_bits(), &mut self.memory);
            self.counters.translation_accesses += 1;
        }
        match translation.result {
            TranslateResult::Mapped(pa) => (Some(pa.to_bits()), stall, walks),
            TranslateResult::ZeroLine => (None, stall, walks),
        }
    }
}

impl MemorySystem for VbiSystem {
    fn attach_regions(&mut self, sizes: &[u64]) {
        for &size in sizes {
            let sc = SizeClass::smallest_fitting(size).expect("workloads fit a size class");
            let vb = self.mtl.find_free_vb(sc).expect("plenty of VBs");
            self.mtl.enable_vb(vb, VbProperties::NONE).expect("fresh VB");
            self.mtl.add_ref(vb).expect("enabled");
            self.vbs.push(vb);
        }
        self.cvt = Cvt::new(self.client, self.vbs.len());
        for &vb in &self.vbs {
            self.cvt.attach(vb, Rwx::ALL).expect("the CVT is sized for every region");
        }
    }

    fn access(&mut self, region: usize, offset: u64, is_write: bool) -> AccessCost {
        let mut cost = AccessCost::default();

        // CVT-cache protection check; a miss reads the in-memory CVT entry
        // through the cache hierarchy.
        if self.cvt_cache.lookup(self.client, region).is_none() {
            let entry_addr = 0x10_0000 + (region as u64) * 16; // reserved CVT region
            let check = self.caches.access(entry_addr, false);
            cost.stall += check.latency;
            if check.level == HitLevel::Memory {
                cost.stall += self.memory.service(entry_addr);
                self.counters.translation_accesses += 1;
            }
            let entry = *self.cvt.entry(region).expect("every region has a CVT entry");
            self.cvt_cache.fill(self.client, region, entry);
        }

        let addr = self.vbs[region].address(offset).expect("trace stays in bounds");
        let bits = addr.to_bits();
        let data = self.caches.access(bits, is_write);
        cost.stall += data.latency;
        if data.level == HitLevel::Memory {
            self.counters.llc_misses += 1;
            // Translation runs in parallel with the LLC lookup; only the
            // excess beyond the (already charged) LLC latency is exposed.
            let (paddr, tstall, walks) = self.mtl_translate(addr, MtlAccess::Read);
            cost.translation_accesses += walks;
            cost.stall += tstall.saturating_sub(31);
            match paddr {
                Some(pa) => {
                    cost.stall += self.memory.service(pa);
                    cost.dram_accesses += 1;
                    self.counters.dram_accesses += 1;
                }
                None => {
                    cost.zero_line = true;
                    self.counters.zero_lines += 1;
                }
            }
        }
        for wb in data.llc_writebacks {
            let (paddr, _, walks) = self.mtl_translate(VbiAddress(wb), MtlAccess::Writeback);
            cost.translation_accesses += walks;
            if let Some(pa) = paddr {
                self.memory.service(pa);
                self.counters.dram_accesses += 1;
            }
        }
        cost
    }

    fn counters(&self) -> SystemCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = SystemCounters::default();
        self.mtl.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAMES: u64 = 1 << 18; // 1 GiB

    fn touch(system: &mut dyn MemorySystem, n: u64) -> u64 {
        let mut stall = 0;
        for i in 0..n {
            stall += system.access(0, (i * 64) % (1 << 20), i % 4 == 0).stall;
        }
        stall
    }

    #[test]
    fn all_systems_build_and_run() {
        for kind in SystemKind::ALL {
            let mut system = build_system(kind, FRAMES);
            system.attach_regions(&[1 << 20, 1 << 16]);
            let stall = touch(system.as_mut(), 1000);
            assert!(stall > 0, "{}", kind.label());
            let _ = system.access(1, 0, true);
        }
    }

    #[test]
    fn perfect_tlb_beats_native_on_tlb_hostile_streams() {
        let mut native = build_system(SystemKind::Native, FRAMES);
        let mut perfect = build_system(SystemKind::PerfectTlb, FRAMES);
        native.attach_regions(&[256 << 20]);
        perfect.attach_regions(&[256 << 20]);
        let mut native_stall = 0;
        let mut perfect_stall = 0;
        // Page-stride pattern: every access a new page.
        for i in 0..20_000u64 {
            let off = (i * 4096 * 7) % (256 << 20);
            native_stall += native.access(0, off, false).stall;
            perfect_stall += perfect.access(0, off, false).stall;
        }
        assert!(native_stall > perfect_stall, "{native_stall} vs {perfect_stall}");
        assert!(native.counters().translation_accesses > 0);
        assert_eq!(perfect.counters().translation_accesses, 0);
    }

    #[test]
    fn virtual_walks_cost_more_than_native_walks() {
        let mut native = build_system(SystemKind::Native, FRAMES);
        let mut virt = build_system(SystemKind::Virtual, FRAMES);
        native.attach_regions(&[256 << 20]);
        virt.attach_regions(&[256 << 20]);
        for i in 0..20_000u64 {
            let off = (i * 4096 * 7) % (256 << 20);
            native.access(0, off, false);
            virt.access(0, off, false);
        }
        assert!(virt.counters().translation_accesses > native.counters().translation_accesses * 2);
    }

    #[test]
    fn vbi2_returns_zero_lines_for_untouched_data() {
        let mut vbi = build_system(SystemKind::Vbi2, FRAMES);
        vbi.attach_regions(&[64 << 20]);
        // Pure reads over fresh memory: all LLC misses become zero lines.
        let mut zero_lines = 0;
        for i in 0..1000u64 {
            let cost = vbi.access(0, i * 4096, false);
            if cost.zero_line {
                zero_lines += 1;
            }
        }
        assert!(zero_lines > 900, "{zero_lines}");
        assert_eq!(vbi.counters().dram_accesses, 0);
    }

    #[test]
    fn vbi_full_direct_maps_and_avoids_walks() {
        let mut vbi = build_system(SystemKind::VbiFull, FRAMES);
        vbi.attach_regions(&[64 << 20]);
        // Write everything once (allocates), then re-read with cold caches.
        for i in 0..10_000u64 {
            vbi.access(0, i * 4096 % (64 << 20), true);
        }
        vbi.reset_counters();
        for i in 0..10_000u64 {
            vbi.access(0, (i * 4096 * 13) % (64 << 20), false);
        }
        let c = vbi.counters();
        // Direct-mapped VB: the whole-VB TLB entry serves almost every miss.
        assert!(
            c.translation_accesses < c.llc_misses / 10,
            "translation {} vs misses {}",
            c.translation_accesses,
            c.llc_misses
        );
    }
}
