//! Pins the Table 3 timing simulator's output. The four `bench-e2e`
//! `timingsim` generators (PMEMKV, mcf, YCSB, lbm) run in turn, with
//! fixed seeds, on one SAC system of Fig. 10 (64 MiB, Timing fidelity)
//! whose caches stay warm, and the same operation streams run on one
//! `System::insecure`. Every simulated count after each generator must
//! match the recorded line exactly: host-side data-structure changes in
//! the controller, the NVM device or the cache hierarchy may make the
//! simulator faster, never different.

use soteria_suite::soteria::clone::CloningPolicy;
use soteria_suite::soteria_simcpu::{RunResult, System, SystemConfig};
use soteria_suite::soteria_workloads::{Lbm, Mcf, Pmemkv, Workload, Ycsb};

/// Protected capacity and generator footprint, as in `timingsim`.
const CAPACITY_BYTES: u64 = 64 << 20;
/// Operations per generator: enough for the metadata cache to evict at
/// several tree levels, small enough for a debug build.
const OPS: u64 = 25_000;

fn generators() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Pmemkv::new(CAPACITY_BYTES, 0x11)),
        Box::new(Mcf::new(CAPACITY_BYTES, 0x22)),
        Box::new(Ycsb::new(CAPACITY_BYTES, 0x33)),
        Box::new(Lbm::new(CAPACITY_BYTES, 0x44)),
    ]
}

fn run_fields(r: &RunResult) -> String {
    format!(
        "cycles={} nvm_reads={} nvm_writes={} evictions={:?} miss_bits={:#x} llc={}/{}",
        r.cycles,
        r.nvm_reads,
        r.nvm_writes,
        r.evictions_by_level,
        r.metadata_miss_ratio.to_bits(),
        r.llc.hits,
        r.llc.misses
    )
}

/// One generator's line: the secure run, its write breakdown and wear,
/// then the insecure run of the same operation stream.
fn golden_line(
    secure: &mut System,
    plain: &mut System,
    secure_gen: &mut dyn Workload,
    plain_gen: &mut dyn Workload,
) -> String {
    let r = secure.run(secure_gen, OPS);
    let w = secure.controller().stats().writes;
    let wear = secure.controller().device().wear();
    let hottest = wear.hottest().map(|(a, n)| (a.index(), n));
    let plain = plain.run(plain_gen, OPS);
    format!(
        "{} | {} | writes cipher={} data_mac={} shadow={} eviction={} leaf_mac={} \
         clone={} reencrypt={} repair={} | wear total={} hottest={:?} | insecure {}",
        r.workload,
        run_fields(&r),
        w.cipher,
        w.data_mac,
        w.shadow,
        w.eviction,
        w.leaf_mac,
        w.clone,
        w.reencrypt,
        w.repair,
        wear.total_writes(),
        hottest,
        run_fields(&plain)
    )
}

/// The recorded lines. A change to any field is a change to what the
/// simulator computes, not only to how fast it computes it.
const EXPECTED: [&str; 4] = [
    concat!(
        "pmemkv | ",
        "cycles=8059233 nvm_reads=46390 nvm_writes=31296 evictions=[351, 4] miss_bits=0x3fd96eeb336488f4 llc=327/14026 | ",
        "writes cipher=9960 data_mac=9960 shadow=10315 eviction=355 leaf_mac=351 clone=355 reencrypt=0 repair=0 | ",
        "wear total=31288 hottest=Some((1262982, 17)) | ",
        "insecure cycles=3143513 nvm_reads=0 nvm_writes=0 evictions=[] miss_bits=0x0 llc=327/14026",
    ),
    concat!(
        "mcf | ",
        "cycles=16519462 nvm_reads=115921 nvm_writes=47811 evictions=[3948, 578, 93, 7, 1] miss_bits=0x3fdf6a062ab19ce8 llc=895/38268 | ",
        "writes cipher=9960 data_mac=9960 shadow=14586 eviction=4627 leaf_mac=3948 clone=4730 reencrypt=0 repair=0 | ",
        "wear total=47803 hottest=Some((1262982, 17)) | ",
        "insecure cycles=7215863 nvm_reads=0 nvm_writes=0 evictions=[] miss_bits=0x0 llc=895/38268",
    ),
    concat!(
        "ycsb | ",
        "cycles=21687802 nvm_reads=156098 nvm_writes=52668 evictions=[4007, 831, 159, 14, 4] miss_bits=0x3fdd5352272d2151 llc=4800/55353 | ",
        "writes cipher=11145 data_mac=11145 shadow=16156 eviction=5015 leaf_mac=4007 clone=5200 reencrypt=0 repair=0 | ",
        "wear total=52660 hottest=Some((1262982, 17)) | ",
        "insecure cycles=10722434 nvm_reads=0 nvm_writes=0 evictions=[] miss_bits=0x0 llc=4800/55353",
    ),
    concat!(
        "lbm | ",
        "cycles=28873625 nvm_reads=189287 nvm_writes=52756 evictions=[4014, 843, 164, 15, 4] miss_bits=0x3fda248451c946bb llc=12639/71863 | ",
        "writes cipher=11145 data_mac=11145 shadow=16181 eviction=5040 leaf_mac=4014 clone=5231 reencrypt=0 repair=0 | ",
        "wear total=52748 hottest=Some((1262982, 17)) | ",
        "insecure cycles=17324081 nvm_reads=0 nvm_writes=0 evictions=[] miss_bits=0x0 llc=12639/71863",
    ),
];

#[test]
fn timing_system_output_is_pinned() {
    let config = || SystemConfig::table3(CloningPolicy::Aggressive, CAPACITY_BYTES);
    let (mut secure, mut plain) = (System::new(config()), System::insecure(config()));
    let mut secure_gens = generators();
    let mut plain_gens = generators();
    let lines: Vec<String> = secure_gens
        .iter_mut()
        .zip(plain_gens.iter_mut())
        .map(|(s, p)| golden_line(&mut secure, &mut plain, s.as_mut(), p.as_mut()))
        .collect();
    assert_eq!(lines, EXPECTED);
}
