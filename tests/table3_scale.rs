//! The flagship configuration instantiated at full scale: Table 3's
//! 16 GB protected capacity, 512 kB metadata cache, four cores — the
//! exact system of the paper's evaluation, driven briefly end-to-end.

use soteria_suite::soteria::clone::CloningPolicy;
use soteria_suite::soteria::layout::MemoryLayout;
use soteria_suite::soteria_simcpu::{System, SystemConfig};
use soteria_suite::soteria_workloads::{standard_suite, SuiteConfig, Workload};

#[test]
fn sixteen_gb_layout_matches_the_paper_arithmetic() {
    let layout = MemoryLayout::new((16u64 << 30) / 64, 8192, 4);
    // 2^22 counter blocks; 8 levels to the on-chip root.
    assert_eq!(layout.level_count(1), 1 << 22);
    assert_eq!(layout.levels(), 8);
    // §3.1 storage accounting: counters + tree ≈ 1.78 % of capacity.
    let meta_lines: u64 = (1..=layout.levels()).map(|l| layout.level_count(l)).sum();
    let overhead = meta_lines as f64 / layout.data_lines() as f64;
    assert!((overhead - 0.0178).abs() < 0.001, "{overhead}");
    // The root's eight children each cover 1/8 of the tree's reach —
    // "each covering 12.5% of the memory" (§3.2.1) at the 1 TB design
    // point; at 16 GB the top level has 2 nodes covering half each.
    let top = layout.levels();
    let covered = layout.covered_data_lines(soteria_suite::soteria::MetaId::new(top, 0));
    assert_eq!(covered, layout.data_lines() / layout.level_count(top));
}

#[test]
fn table3_system_runs_four_cores_at_16gb() {
    // The full-capacity Timing-fidelity system is cheap to instantiate
    // (sparse device, content-free controller) and must sustain a
    // four-core multiprogrammed burst.
    let config = SystemConfig::table3(CloningPolicy::Aggressive, 16u64 << 30);
    let mut system = System::with_cores(config, 4);
    let mut instances: Vec<Box<dyn Workload>> = (0..4)
        .map(|i| {
            let cfg = SuiteConfig {
                footprint_bytes: 64 << 20,
                seed: i as u64,
            };
            let mut suite = standard_suite(&cfg);
            suite.remove((i * 3) % suite.len())
        })
        .collect();
    let r = {
        let mut refs: Vec<&mut dyn Workload> = instances
            .iter_mut()
            .map(|w| &mut **w as &mut dyn Workload)
            .collect();
        system.run_multi(&mut refs, 5_000)
    };
    assert_eq!(r.ops, 20_000);
    assert!(r.cycles > 0);
    assert!(r.nvm_reads > 0);
    // The 16 GB tree has 8 levels; evictions must never report beyond it.
    assert!(r.evictions_by_level.len() <= 8);
}
