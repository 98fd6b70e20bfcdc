//! Controller edge cases: WPQ forwarding, Osiris boundaries, page
//! re-encryption interacting with crashes and clones.

use soteria::clone::CloningPolicy;
use soteria::recovery::recover;
use soteria::{DataAddr, SecureMemoryConfig, SecureMemoryController};

fn controller(policy: CloningPolicy, osiris: u8) -> SecureMemoryController {
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(1 << 20)
        .metadata_cache(8 * 1024, 4)
        .cloning(policy)
        .osiris_limit(osiris)
        .build()
        .unwrap();
    SecureMemoryController::new(config)
}

#[test]
fn read_sees_write_still_in_wpq() {
    // Write forwarding: a read issued before the WPQ drains must see the
    // newest data (the WPQ is the freshest copy).
    let mut c = controller(CloningPolicy::None, 4);
    c.write(DataAddr::new(0), &[0x11; 64]).unwrap();
    // No persist_all: the ciphertext may still sit in the 8-entry WPQ.
    assert_eq!(c.read(DataAddr::new(0)).unwrap(), [0x11; 64]);
    c.write(DataAddr::new(0), &[0x22; 64]).unwrap();
    assert_eq!(c.read(DataAddr::new(0)).unwrap(), [0x22; 64]);
}

#[test]
fn crash_immediately_after_page_reencryption() {
    // Drive one minor counter through its 7-bit overflow, which
    // re-encrypts the page, then crash without persisting.
    let mut c = controller(CloningPolicy::Relaxed, 200); // no Osiris writebacks
    let page: Vec<u64> = (0..64).collect();
    for &l in &page {
        c.write(DataAddr::new(l), &[l as u8; 64]).unwrap();
    }
    for i in 0..130u64 {
        c.write(DataAddr::new(0), &[i as u8; 64]).unwrap();
    }
    assert!(c.stats().page_reencryptions >= 1, "{:?}", c.stats());
    let (mut c, report) = recover(c.crash());
    assert!(report.is_complete(), "{:?}", report.unverifiable);
    assert_eq!(c.read(DataAddr::new(0)).unwrap(), [129u8; 64]);
    for &l in &page[1..] {
        assert_eq!(c.read(DataAddr::new(l)).unwrap(), [l as u8; 64], "line {l}");
    }
}

#[test]
fn osiris_limit_one_forces_writethrough() {
    // Limit 1: every counter update writes the leaf back immediately —
    // counters in NVM never lag, so recovery needs zero trials.
    let mut c = controller(CloningPolicy::None, 1);
    for i in 0..32u64 {
        c.write(DataAddr::new(i % 8), &[i as u8; 64]).unwrap();
    }
    assert_eq!(c.stats().osiris_writebacks, 32);
    let (_, report) = recover(c.crash());
    assert!(report.is_complete());
    assert_eq!(report.counters_recovered, 0, "{report:?}");
}

#[test]
fn osiris_limit_bounds_recovery_trials() {
    // With limit N, a counter can lag NVM by at most N; recovery must
    // find every one within its trial budget even at the boundary.
    for limit in [2u8, 4, 7] {
        let mut c = controller(CloningPolicy::None, limit);
        // Exactly `limit` updates after the last writeback (the first
        // write triggers the fetch; subsequent ones accumulate).
        for i in 0..limit as u64 {
            c.write(DataAddr::new(3), &[i as u8; 64]).unwrap();
        }
        let (mut c, report) = recover(c.crash());
        assert!(
            report.is_complete(),
            "limit {limit}: {:?}",
            report.unverifiable
        );
        assert_eq!(
            c.read(DataAddr::new(3)).unwrap(),
            [(limit - 1); 64],
            "limit {limit}"
        );
    }
}

#[test]
fn interleaved_reads_and_writes_stay_coherent() {
    let mut c = controller(CloningPolicy::Aggressive, 4);
    let mut model = std::collections::HashMap::new();
    let mut x: u64 = 0x9e37;
    for step in 0..3000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let line = (x >> 33) % 512;
        if step % 3 == 0 {
            let fill = (x >> 17) as u8;
            c.write(DataAddr::new(line), &[fill; 64]).unwrap();
            model.insert(line, fill);
        } else {
            let expect = model.get(&line).map(|&f| [f; 64]).unwrap_or([0u8; 64]);
            assert_eq!(c.read(DataAddr::new(line)).unwrap(), expect, "step {step}");
        }
    }
}

#[test]
fn full_capacity_boundaries() {
    let mut c = controller(CloningPolicy::None, 4);
    let last = c.layout().data_lines() - 1;
    c.write(DataAddr::new(last), &[0xee; 64]).unwrap();
    assert_eq!(c.read(DataAddr::new(last)).unwrap(), [0xee; 64]);
    assert!(c.write(DataAddr::new(last + 1), &[0; 64]).is_err());
}
