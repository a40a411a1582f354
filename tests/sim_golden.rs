//! Golden simulated counts of the paper simulator.
//!
//! Runs `engine::run` for the six systems of the `paper_sim` benchmark
//! workload on four Figure 6 workloads at small knobs and pins every
//! simulated number: instructions, cycles and each `SystemCounters` field.
//! The simulator is deterministic, so a host-side optimisation (data layout,
//! hashing, allocation) must leave this table bit-identical; a change here is
//! a change to the simulated machine and has to be argued as one.
//!
//! On a mismatch the failure message prints the full table as measured, in
//! the source form of `GOLDEN`.

use vbi::sim::engine::{run, EngineConfig};
use vbi::sim::systems::{SystemCounters, SystemKind};
use vbi::workloads::spec::benchmark;

const WORKLOADS: [&str; 4] = ["mcf", "GemsFDTD", "deepsjeng-17", "namd"];
const SYSTEMS: [SystemKind; 6] = [
    SystemKind::Native,
    SystemKind::Virtual,
    SystemKind::Vivt,
    SystemKind::EnigmaHw2M,
    SystemKind::Vbi1,
    SystemKind::VbiFull,
];

fn config() -> EngineConfig {
    EngineConfig { accesses: 3_000, warmup: 300, seed: 2020, phys_frames: 1 << 20 }
}

/// `(workload, system label, [instructions, cycles, tlb_misses, llc_misses,
/// dram_accesses, translation_accesses, zero_lines])`.
type Row = (&'static str, &'static str, [u64; 7]);

const GOLDEN: &[Row] = &[
    ("mcf", "Native", [10589, 456634, 2989, 2713, 2761, 5497, 0]),
    ("mcf", "Virtual", [10589, 655605, 2989, 2713, 2761, 18592, 0]),
    ("mcf", "VIVT", [10589, 372243, 2751, 2713, 2752, 5183, 0]),
    ("mcf", "Enigma-HW-2M", [10589, 337254, 0, 2713, 2753, 0, 0]),
    ("mcf", "VBI-1", [10589, 472185, 0, 2713, 2753, 5500, 0]),
    ("mcf", "VBI-Full", [10589, 160328, 0, 2713, 611, 0, 2142]),
    ("GemsFDTD", "Native", [13584, 110845, 3000, 3000, 3285, 5507, 0]),
    ("GemsFDTD", "Virtual", [13584, 136498, 3000, 3000, 3301, 19603, 0]),
    ("GemsFDTD", "VIVT", [13584, 94312, 3202, 3000, 3202, 5831, 0]),
    ("GemsFDTD", "Enigma-HW-2M", [13584, 97858, 0, 3000, 3213, 0, 0]),
    ("GemsFDTD", "VBI-1", [13584, 127243, 0, 3000, 3218, 5765, 0]),
    ("GemsFDTD", "VBI-Full", [13584, 52705, 0, 3000, 957, 2457, 2261]),
    ("deepsjeng-17", "Native", [19645, 223397, 2977, 2993, 3032, 4621, 0]),
    ("deepsjeng-17", "Virtual", [19645, 273072, 2977, 2993, 3032, 15981, 0]),
    ("deepsjeng-17", "VIVT", [19645, 189147, 3009, 2993, 3032, 4669, 0]),
    ("deepsjeng-17", "Enigma-HW-2M", [19645, 195572, 0, 2993, 3032, 0, 0]),
    ("deepsjeng-17", "VBI-1", [19645, 236456, 0, 2993, 3032, 5100, 0]),
    ("deepsjeng-17", "VBI-Full", [19645, 112937, 0, 2993, 1090, 0, 1942]),
    ("namd", "Native", [25406, 94824, 1965, 2932, 2981, 928, 0]),
    ("namd", "Virtual", [25406, 100078, 1965, 2932, 2981, 4640, 0]),
    ("namd", "VIVT", [25406, 91392, 1963, 2932, 2981, 980, 0]),
    ("namd", "Enigma-HW-2M", [25406, 91272, 0, 2932, 2981, 0, 0]),
    ("namd", "VBI-1", [25406, 91234, 0, 2932, 2981, 1876, 0]),
    ("namd", "VBI-Full", [25406, 91334, 0, 2932, 2981, 0, 0]),
];

fn measure() -> Vec<Row> {
    let config = config();
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let spec = benchmark(name).expect("Figure 6 workload exists");
        for kind in SYSTEMS {
            let r = run(kind, &spec, &config);
            let SystemCounters {
                tlb_misses,
                llc_misses,
                dram_accesses,
                translation_accesses,
                zero_lines,
            } = r.counters;
            rows.push((
                spec.name,
                kind.label(),
                [
                    r.instructions,
                    r.cycles,
                    tlb_misses,
                    llc_misses,
                    dram_accesses,
                    translation_accesses,
                    zero_lines,
                ],
            ));
        }
    }
    rows
}

fn source_form(rows: &[Row]) -> String {
    rows.iter().map(|(w, s, v)| format!("    ({w:?}, {s:?}, {v:?}),\n")).collect()
}

#[test]
fn simulated_counts_match_the_golden_table() {
    let rows = measure();
    assert!(rows == GOLDEN, "simulated counts changed; measured table:\n{}", source_form(&rows));
}
