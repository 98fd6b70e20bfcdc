//! `securemem`: a key-value store on a Functional-fidelity secure memory
//! controller with SAC cloning and the Table 3 metadata cache.
//!
//! A key owns [`LINES_PER_VALUE`] consecutive data lines. A put stages
//! every line of the value in one `transaction().commit()`; a get reads
//! one line with `read`. Every [`RESTART_EVERY`] requests the store is
//! restarted with `crash()` + `recover()` and every put acknowledged
//! since the previous restart is read back.
//!
//! The request stream (which key, put or get, which line) is the same in
//! every round and for every seed; the seed chooses the stored values.
//! Each round starts from a fresh controller. The controller's stale
//! re-fetch fault depends on the order of metadata accesses only, never
//! on the stored bytes, so every round fails the same requests: the
//! failed share repeats exactly across seeds and run lengths, as the
//! failure accounting needs. A key stream drawn from the workload seed
//! hits the fault on some seeds and not others (see the README).

use soteria::{
    recover, CloningPolicy, DataAddr, Fidelity, MemoryError, SecureMemoryConfig,
    SecureMemoryController,
};
use soteria_rt::json::Json;
use soteria_workloads::Splitmix;

use crate::stats::{self, Reservoir, Tally};
use crate::trace::Tracer;
use crate::{Metric, Outcome, Phase, Unit};

/// Protected capacity: 64 MiB, 16 384 counter blocks against the
/// cache's 8 192 lines, so the tree cannot stay resident.
pub const CAPACITY_BYTES: u64 = 64 << 20;
/// Table 3 metadata cache.
pub const CACHE_BYTES: u64 = 512 * 1024;
/// Table 3 metadata-cache associativity.
pub const CACHE_WAYS: usize = 8;
/// Data lines per value (a put is one multi-line transaction).
pub const LINES_PER_VALUE: u64 = 2;
/// Requests per round; every round replays the same request stream.
pub const ROUND_REQUESTS: u64 = 400_000;
/// Requests between two restarts.
pub const RESTART_EVERY: u64 = 200_000;
/// Requests of the untimed warm-up in each set-up.
pub const WARMUP_REQUESTS: u64 = 20_000;
/// Share of puts in the request mix, percent.
pub const PUT_PERCENT: u64 = 50;
/// Seed of the request stream (fixed: see the module docs).
const STREAM_SEED: u64 = 5;

/// One request of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// `true` for a put, `false` for a get.
    pub put: bool,
    /// The key.
    pub key: u32,
    /// For a get, the line of the value read.
    pub line: u8,
}

/// The controller configuration of every round.
pub fn config() -> SecureMemoryConfig {
    SecureMemoryConfig::builder()
        .capacity_bytes(CAPACITY_BYTES)
        .metadata_cache(CACHE_BYTES, CACHE_WAYS)
        .cloning(CloningPolicy::Aggressive)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("the securemem configuration is valid")
}

/// Keys in the store.
pub fn keys() -> u64 {
    CAPACITY_BYTES / 64 / LINES_PER_VALUE
}

/// The round's request stream: a skewed key choice (three quarters of
/// the requests go to the first eighth of the keys, the hot set) and a
/// [`PUT_PERCENT`] put mix.
pub fn request_stream() -> Vec<Request> {
    let mut rng = Splitmix::new(STREAM_SEED);
    let keys = keys();
    (0..ROUND_REQUESTS)
        .map(|_| Request {
            key: rng.hot_below(keys) as u32,
            put: rng.percent(PUT_PERCENT),
            line: rng.below(LINES_PER_VALUE) as u8,
        })
        .collect()
}

/// The value line `line` of version `version` of `key` holds under
/// `seed` (version 0 is the never-written all-zero line).
pub fn value(seed: u64, key: u32, version: u32, line: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    if version == 0 {
        return out;
    }
    let mut rng = Splitmix::new(seed ^ (u64::from(key) << 20) ^ (u64::from(version) << 2) ^ line);
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

fn line_addr(key: u32, line: u64) -> DataAddr {
    DataAddr::new(u64::from(key) * LINES_PER_VALUE + line)
}

/// Whether an error is the symptom of the stale re-fetch of an evicted
/// metadata block: on a device with no injected faults, metadata that
/// stops verifying has no other cause.
fn is_refetch_damage(e: &MemoryError) -> bool {
    matches!(e, MemoryError::MetadataUnverifiable { .. })
}

/// Counters gathered over one or more rounds (the traced run's layer
/// view). Controller statistics restart with every recovered
/// controller, so they are summed over controller lifetimes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Requests issued.
    pub requests: u64,
    /// Data lines the controller was asked to write.
    pub data_writes: u64,
    /// NVM line writes the controller issued.
    pub nvm_writes: u64,
    /// Writes per cause: cipher, data MAC, shadow, eviction, leaf MAC,
    /// clone, re-encryption, repair.
    pub breakdown: [u64; 8],
    /// Writebacks per level (index 0 = L1).
    pub writebacks_by_level: Vec<u64>,
    /// Osiris early writebacks.
    pub osiris_writebacks: u64,
    /// WPQ stall drains.
    pub wpq_stalls: u64,
    /// Metadata-cache hits and misses.
    pub cache_hits: u64,
    /// Metadata-cache misses.
    pub cache_misses: u64,
    /// Dirty metadata-cache evictions.
    pub dirty_evictions: u64,
    /// Device line reads (one Chipkill decode each).
    pub device_reads: u64,
    /// Device line writes (one Chipkill encode each).
    pub device_writes: u64,
    /// Restarts.
    pub restarts: u64,
    /// NVM reads recovery issued.
    pub recovery_nvm_reads: u64,
    /// Data lines recovery reported unverifiable.
    pub recovery_unverifiable_lines: u64,
    /// Requests that failed with the stale re-fetch symptom.
    pub failed_requests: u64,
    /// Acknowledged puts a restart lost.
    pub lost_puts: u64,
}

impl Counters {
    /// The counters as a JSON object for the traced-run summary.
    pub fn summary(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let names = [
            "cipher",
            "data_mac",
            "shadow",
            "eviction",
            "leaf_mac",
            "clone",
            "reencrypt",
            "repair",
        ];
        Json::Obj(vec![
            ("requests".into(), num(self.requests)),
            ("data_writes".into(), num(self.data_writes)),
            ("nvm_writes".into(), num(self.nvm_writes)),
            (
                "write_breakdown".into(),
                Json::Obj(
                    names
                        .iter()
                        .zip(self.breakdown)
                        .map(|(n, v)| (n.to_string(), num(v)))
                        .collect(),
                ),
            ),
            (
                "writebacks_by_level".into(),
                Json::Arr(self.writebacks_by_level.iter().map(|&v| num(v)).collect()),
            ),
            ("osiris_writebacks".into(), num(self.osiris_writebacks)),
            ("wpq_stalls".into(), num(self.wpq_stalls)),
            ("mdcache_hits".into(), num(self.cache_hits)),
            ("mdcache_misses".into(), num(self.cache_misses)),
            ("mdcache_dirty_evictions".into(), num(self.dirty_evictions)),
            ("device_reads".into(), num(self.device_reads)),
            ("device_writes".into(), num(self.device_writes)),
            ("restarts".into(), num(self.restarts)),
            ("recovery_nvm_reads".into(), num(self.recovery_nvm_reads)),
            (
                "recovery_unverifiable_lines".into(),
                num(self.recovery_unverifiable_lines),
            ),
            ("failed_requests".into(), num(self.failed_requests)),
            ("lost_puts".into(), num(self.lost_puts)),
        ])
    }

    /// Folds in one controller lifetime's statistics.
    fn absorb(&mut self, ctl: &SecureMemoryController) {
        let s = ctl.stats();
        self.data_writes += s.data_writes;
        self.nvm_writes += s.nvm_writes;
        let w = &s.writes;
        for (acc, v) in self.breakdown.iter_mut().zip([
            w.cipher,
            w.data_mac,
            w.shadow,
            w.eviction,
            w.leaf_mac,
            w.clone,
            w.reencrypt,
            w.repair,
        ]) {
            *acc += v;
        }
        if self.writebacks_by_level.len() < s.evictions_by_level.len() {
            self.writebacks_by_level
                .resize(s.evictions_by_level.len(), 0);
        }
        for (acc, v) in self
            .writebacks_by_level
            .iter_mut()
            .zip(&s.evictions_by_level)
        {
            *acc += v;
        }
        self.osiris_writebacks += s.osiris_writebacks;
        let snap = ctl.metrics_snapshot();
        self.wpq_stalls += snap
            .get("counters")
            .and_then(|c| c.get("wpq.stalls"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as u64;
        let cs = ctl.cache_stats();
        self.cache_hits += cs.hits;
        self.cache_misses += cs.misses;
        self.dirty_evictions += cs.dirty_evictions;
    }
}

/// Checks the write-accounting identities of one controller's totals:
/// the breakdown sums to the NVM write total, every data-MAC line write
/// carries `lines_per_mac_write` cipher writes (the lines of one
/// transaction that share a MAC line are staged once), leaf-MAC writes
/// equal L1 writebacks plus Osiris early writebacks, and clone writes
/// equal the writebacks of each level times its Table 2 extra copies.
///
/// A writeback the stale re-fetch fault aborts is counted as an eviction
/// but writes nothing, so on a `damaged` controller the two writeback
/// identities only bound the writes from above.
pub fn check_write_accounting(
    ctl: &SecureMemoryController,
    lines_per_mac_write: u64,
    damaged: bool,
) -> Result<(), String> {
    let s = ctl.stats();
    let w = &s.writes;
    if w.total() != s.nvm_writes {
        return Err(format!(
            "write breakdown sums to {} but the controller issued {} NVM writes",
            w.total(),
            s.nvm_writes
        ));
    }
    if w.cipher != lines_per_mac_write * w.data_mac {
        return Err(format!(
            "{} cipher writes but {} data-MAC writes ({lines_per_mac_write} lines per MAC line write)",
            w.cipher, w.data_mac
        ));
    }
    let l1 = s.evictions_by_level.first().copied().unwrap_or(0);
    let holds = |written: u64, implied: u64| {
        if damaged {
            written <= implied
        } else {
            written == implied
        }
    };
    if !holds(w.leaf_mac, l1 + s.osiris_writebacks) {
        return Err(format!(
            "{} leaf-MAC writes but {l1} L1 writebacks + {} Osiris writebacks",
            w.leaf_mac, s.osiris_writebacks
        ));
    }
    let levels = ctl.layout().levels();
    let policy = ctl.config().cloning();
    // Osiris early writebacks write leaves back too, clones included.
    let expected: u64 = s
        .evictions_by_level
        .iter()
        .enumerate()
        .map(|(i, &n)| n * u64::from(policy.extra_clones(i as u8 + 1, levels)))
        .sum::<u64>()
        + s.osiris_writebacks * u64::from(policy.extra_clones(1, levels));
    if !holds(w.clone, expected) {
        return Err(format!(
            "{} clone writes but the per-level writebacks imply {expected}",
            w.clone
        ));
    }
    Ok(())
}

/// The benchmark's own model of the store: per key, the last
/// acknowledged version and the versions of the puts that failed since.
///
/// A put that fails may still have reached memory (a failure after the
/// commit point), so a later read may show the last acknowledged value
/// or any value a failed put since then tried to store; anything else is
/// a wrong value. A key whose acknowledged put a restart lost holds
/// unknown content until the next acknowledged put.
#[derive(Clone, Debug)]
pub struct Model {
    slots: Vec<Slot>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    acked: u32,
    newest: u32,
    lost: bool,
}

impl Model {
    /// An empty store of `keys` keys (every line reads as zeroes).
    pub fn new(keys: usize) -> Self {
        Self {
            slots: vec![Slot::default(); keys],
        }
    }

    /// Forgets every put.
    pub fn reset(&mut self) {
        self.slots.fill(Slot::default());
    }

    /// The version the next put of `key` stores.
    pub fn next_version(&self, key: u32) -> u32 {
        let s = self.slots[key as usize];
        s.acked.max(s.newest) + 1
    }

    /// Records the outcome of a put of `version`.
    pub fn put(&mut self, key: u32, version: u32, acknowledged: bool) {
        let s = &mut self.slots[key as usize];
        if acknowledged {
            *s = Slot {
                acked: version,
                newest: version,
                lost: false,
            };
        } else {
            s.newest = version;
        }
    }

    /// Marks `key`'s content unknown (a restart lost its last put).
    pub fn lose(&mut self, key: u32) {
        self.slots[key as usize].lost = true;
    }

    /// Whether `bytes`, read from line `line` of `key`, is a value the
    /// store may hold; a match with a failed put's value makes that put
    /// the acknowledged state.
    pub fn check(&mut self, seed: u64, key: u32, line: u64, bytes: &[u8; 64]) -> bool {
        let s = &mut self.slots[key as usize];
        if s.lost {
            return true;
        }
        match (s.acked..=s.newest.max(s.acked)).find(|&v| value(seed, key, v, line) == *bytes) {
            Some(v) => {
                s.acked = v;
                s.newest = s.newest.max(v);
                true
            }
            None => false,
        }
    }
}

/// Inputs and model of the store, built once per run.
pub struct Store {
    seed: u64,
    config: SecureMemoryConfig,
    stream: Vec<Request>,
    model: Model,
    since_restart: Vec<u32>,
}

impl Store {
    /// Generates the inputs and the model.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            config: config(),
            stream: request_stream(),
            model: Model::new(keys() as usize),
            since_restart: Vec::new(),
        }
    }

    /// Runs `requests` requests of a round from a fresh controller.
    /// Returns the counters, or the first wrong value seen.
    pub fn round(
        &mut self,
        requests: u64,
        tally: &mut Tally,
        calls: &mut Reservoir,
        tracer: &mut Tracer,
    ) -> Result<Counters, String> {
        self.model.reset();
        self.since_restart.clear();
        let mut counters = Counters::default();
        let mut ctl = Some(SecureMemoryController::new(self.config.clone()));
        // Cipher writes the acknowledged puts account for, per controller
        // lifetime (values are aligned so their lines share a MAC line).
        let mut acked_lines = 0u64;
        let mut failed_lines = 0u64;
        // Whether the stale re-fetch fault struck this controller lifetime.
        let mut damaged = false;
        for i in 0..requests.min(self.stream.len() as u64) {
            let req = self.stream[i as usize];
            let memory = ctl.as_mut().expect("controller present between restarts");
            let request_span = tracer.enter("securemem.request", i);
            if req.put {
                let version = self.model.next_version(req.key);
                let mut tx = memory.transaction();
                for line in 0..LINES_PER_VALUE {
                    tx.write(
                        line_addr(req.key, line),
                        &value(self.seed, req.key, version, line),
                    );
                }
                let t0 = stats::now();
                let span = tracer.enter("core.controller.commit", i);
                let result = tx.commit();
                tracer.exit(span);
                calls.push(stats::ns_since(t0) as f64);
                match result {
                    Ok(_) => {
                        self.model.put(req.key, version, true);
                        self.since_restart.push(req.key);
                        acked_lines += LINES_PER_VALUE;
                        tally.record(true);
                    }
                    Err(e) if is_refetch_damage(&e) => {
                        self.model.put(req.key, version, false);
                        tally.record(false);
                        counters.failed_requests += 1;
                        failed_lines += LINES_PER_VALUE;
                        damaged = true;
                    }
                    Err(e) => return Err(format!("put of key {} failed: {e}", req.key)),
                }
            } else {
                let addr = line_addr(req.key, u64::from(req.line));
                let t0 = stats::now();
                let span = tracer.enter("core.controller.read", i);
                let result = memory.read(addr);
                tracer.exit(span);
                calls.push(stats::ns_since(t0) as f64);
                match result {
                    Ok(bytes) => {
                        if !self
                            .model
                            .check(self.seed, req.key, u64::from(req.line), &bytes)
                        {
                            return Err(format!(
                                "get of key {} line {} returned a value no put stored",
                                req.key, req.line
                            ));
                        }
                        tally.record(true);
                    }
                    Err(e) if is_refetch_damage(&e) => {
                        tally.record(false);
                        counters.failed_requests += 1;
                        damaged = true;
                    }
                    Err(e) => return Err(format!("get of key {} failed: {e}", req.key)),
                }
            }
            tracer.exit(request_span);
            counters.requests += 1;
            if (i + 1) % RESTART_EVERY == 0 {
                let before = ctl.take().expect("controller present before a restart");
                check_write_accounting(&before, LINES_PER_VALUE, damaged)?;
                damaged = false;
                // A failed put may have passed its commit point: its
                // lines are written but not acknowledged.
                let cipher = before.stats().writes.cipher;
                if cipher < acked_lines || cipher > acked_lines + failed_lines {
                    return Err(format!(
                        "{cipher} cipher writes for {acked_lines} acknowledged and \
                         {failed_lines} failed put lines"
                    ));
                }
                acked_lines = 0;
                failed_lines = 0;
                counters.absorb(&before);
                let span = tracer.enter("core.recovery.restart", i);
                let (after, report) = recover(before.crash());
                tracer.exit(span);
                counters.restarts += 1;
                counters.recovery_nvm_reads += report.nvm_reads;
                // Metadata recovery could not rebuild: the read-back below
                // counts the acknowledged puts it lost.
                counters.recovery_unverifiable_lines += report.unverifiable_lines();
                ctl = Some(after);
                let recovered = ctl.as_mut().expect("recovered controller");
                counters.lost_puts += self.check_durability(recovered, tally)?;
            }
        }
        let last = ctl.take().expect("controller present at round end");
        check_write_accounting(&last, LINES_PER_VALUE, damaged)?;
        counters.absorb(&last);
        // The device outlives restarts, so its totals cover the round.
        let dev = last.device().stats();
        counters.device_reads = dev.reads;
        counters.device_writes = dev.writes;
        Ok(counters)
    }

    /// Reads back every put acknowledged since the previous restart. A
    /// put whose lines no longer verify was lost by the restart and
    /// counts as failed; a line that verifies must hold the last value.
    /// Returns the number of lost puts.
    fn check_durability(
        &mut self,
        ctl: &mut SecureMemoryController,
        tally: &mut Tally,
    ) -> Result<u64, String> {
        let mut lost_puts = 0;
        self.since_restart.sort_unstable();
        self.since_restart.dedup();
        for &key in &self.since_restart {
            let mut lost = false;
            for line in 0..LINES_PER_VALUE {
                match ctl.read(line_addr(key, line)) {
                    Ok(bytes) if self.model.check(self.seed, key, line, &bytes) => {}
                    Ok(_) => {
                        return Err(format!(
                            "key {key} line {line} lost its acknowledged value across a restart"
                        ))
                    }
                    Err(e) if is_refetch_damage(&e) => lost = true,
                    Err(e) => return Err(format!("read-back of key {key} failed: {e}")),
                }
            }
            if lost {
                tally.fail_acknowledged();
                self.model.lose(key);
                lost_puts += 1;
            }
        }
        self.since_restart.clear();
        Ok(lost_puts)
    }
}

/// Per-layer metrics of one traced round.
pub fn layer_metrics(c: &Counters, tracer: &Tracer) -> Vec<Metric> {
    let folded = tracer.fold();
    let get = |name: &str| {
        folded
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.clone())
    };
    let commit = get("core.controller.commit").unwrap_or_default();
    let read = get("core.controller.read").unwrap_or_default();
    let restart = get("core.recovery.restart").unwrap_or_default();
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let requests = c.requests;
    vec![
        Metric::new(
            "core.controller.commit_p50_us",
            commit.quantile_us(0.5),
            "us",
        ),
        Metric::new(
            "core.controller.commit_p90_us",
            commit.quantile_us(0.9),
            "us",
        ),
        Metric::new("core.controller.read_p50_us", read.quantile_us(0.5), "us"),
        Metric::new("core.controller.read_p90_us", read.quantile_us(0.9), "us"),
        Metric::new("core.recovery.recover_ms", restart.mean_us() / 1e3, "ms"),
        Metric::new(
            "core.recovery.nvm_reads",
            per(c.recovery_nvm_reads, c.restarts),
            "count",
        ),
        Metric::new(
            "nvm.writes_per_put_line",
            per(c.nvm_writes, c.data_writes),
            "count",
        ),
        Metric::new(
            "nvm.clone_writes_per_put_line",
            per(c.breakdown[5], c.data_writes),
            "count",
        ),
        Metric::new(
            "nvm.wpq.stalls_per_put_line",
            per(c.wpq_stalls, c.data_writes),
            "count",
        ),
        Metric::new(
            "ecc.decodes_per_request",
            per(c.device_reads, requests),
            "count",
        ),
        Metric::new(
            "ecc.encodes_per_request",
            per(c.device_writes, requests),
            "count",
        ),
        Metric::new(
            "core.mdcache.hit_ratio",
            per(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        Metric::new(
            "core.mdcache.dirty_evictions_per_request",
            per(c.dirty_evictions, requests),
            "count",
        ),
    ]
}

/// The untraced measurement: set-up, then whole rounds until `seconds`
/// have passed.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let setup = crate::timed_setups(|| {
        let mut store = Store::new(seed);
        // Warm-up: the start of a round, untimed.
        store.round(
            WARMUP_REQUESTS,
            &mut Tally::default(),
            &mut Reservoir::new(1),
            &mut Tracer::new(false),
        )?;
        Ok(store)
    });
    let (mut store, setup_s) = match setup {
        Ok(v) => v,
        Err(e) => return Outcome::wrong(e, tally),
    };
    let mut phase = Phase::start();
    let mut off = Tracer::new(false);
    while phase.elapsed_s() < seconds {
        if let Err(e) = store.round(ROUND_REQUESTS, &mut tally, &mut phase.calls, &mut off) {
            return Outcome::wrong(e, tally);
        }
        phase.work += ROUND_REQUESTS;
    }
    Outcome::ok(tally, phase.end_to_end(setup_s))
}

/// The traced unit: one untraced round (the overhead baseline), then one
/// traced round whose spans and counters give the layer metrics.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Unit {
    let mut store = Store::new(seed);
    let mut tally = Tally::default();
    let mut calls = Reservoir::new(crate::RESERVOIR_SAMPLES);
    let t0 = stats::now();
    if let Err(e) = store.round(
        ROUND_REQUESTS,
        &mut tally,
        &mut calls,
        &mut Tracer::new(false),
    ) {
        return Unit::wrong(e, tally);
    }
    let untraced_s = stats::ns_since(t0) as f64 / 1e9;
    let t1 = stats::now();
    let counters = match store.round(ROUND_REQUESTS, &mut tally, &mut calls, tracer) {
        Ok(c) => c,
        Err(e) => return Unit::wrong(e, tally),
    };
    let traced_s = stats::ns_since(t1) as f64 / 1e9;
    Unit {
        check: Ok(()),
        tally,
        metrics: layer_metrics(&counters, tracer),
        counters: counters.summary(),
        overhead: traced_s / untraced_s - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accepts_the_last_acknowledged_value_only() {
        let mut m = Model::new(4);
        let seed = 9;
        assert!(
            m.check(seed, 1, 0, &[0; 64]),
            "never-written lines read as zeroes"
        );
        m.put(1, m.next_version(1), true);
        assert!(m.check(seed, 1, 0, &value(seed, 1, 1, 0)));
        // A seeded wrong value: the right version under another seed.
        assert!(!m.check(seed, 1, 0, &value(seed + 1, 1, 1, 0)));
        assert!(
            !m.check(seed, 1, 0, &[0; 64]),
            "an acknowledged put was lost"
        );
        // A failed put may or may not have reached memory.
        let v2 = m.next_version(1);
        m.put(1, v2, false);
        assert!(m.check(seed, 1, 0, &value(seed, 1, 1, 0)));
        assert!(m.check(seed, 1, 1, &value(seed, 1, v2, 1)));
        // Once seen, the failed put's value is the store's state.
        assert!(!m.check(seed, 1, 0, &value(seed, 1, 1, 0)));
        m.lose(2);
        assert!(
            m.check(seed, 2, 0, &[7; 64]),
            "a lost key's content is unknown"
        );
    }

    #[test]
    fn a_short_round_passes_every_check() {
        let mut store = Store::new(3);
        let mut tally = Tally::default();
        let mut calls = Reservoir::new(16);
        let c = store
            .round(3_000, &mut tally, &mut calls, &mut Tracer::new(false))
            .expect("checks pass");
        assert_eq!(
            tally,
            Tally {
                attempted: 3_000,
                failed: 0
            }
        );
        assert_eq!(c.requests, 3_000);
        assert_eq!(calls.seen(), 3_000);
    }

    #[test]
    fn write_accounting_rejects_a_wrong_mac_share() {
        let mut ctl = SecureMemoryController::new(config());
        for key in 0..50u32 {
            let mut tx = ctl.transaction();
            for line in 0..LINES_PER_VALUE {
                tx.write(line_addr(key, line), &value(1, key, 1, line));
            }
            tx.commit().expect("fault-free commit");
        }
        check_write_accounting(&ctl, LINES_PER_VALUE, false).expect("identities hold");
        assert!(check_write_accounting(&ctl, 1, false).is_err());
    }

    #[test]
    fn the_request_stream_does_not_depend_on_the_seed() {
        let a = request_stream();
        assert_eq!(a.len() as u64, ROUND_REQUESTS);
        assert_eq!(a, request_stream());
        let puts = a.iter().filter(|r| r.put).count() as f64 / a.len() as f64;
        assert!((puts - PUT_PERCENT as f64 / 100.0).abs() < 0.01, "{puts}");
        let hot = a.iter().filter(|r| u64::from(r.key) < keys() / 8).count() as f64;
        assert!(
            hot / a.len() as f64 > 0.75,
            "three quarters go to the hot set"
        );
    }
}
