//! A concurrent-submission load generator for exercising the service's
//! backpressure path: N clients fire the same campaign config at once
//! and the report tallies accepts vs `429` rejections.

use std::net::SocketAddr;

use soteria_rt::json::Json;
use soteria_rt::thread::fan_out;

use crate::client;

/// One client's view of its submission attempt.
#[derive(Clone, Debug)]
pub struct SubmitOutcome {
    /// HTTP status of the submit (`202` accepted, `429` shed, …), or 0
    /// if the connection itself failed.
    pub status: u16,
    /// The job id, when accepted.
    pub job: Option<usize>,
    /// The `Retry-After` value, when shed.
    pub retry_after_secs: Option<u64>,
}

/// Aggregate of one burst.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Per-client outcomes, in client order.
    pub outcomes: Vec<SubmitOutcome>,
}

impl LoadReport {
    /// Job ids of every accepted submission.
    pub fn accepted_jobs(&self) -> Vec<usize> {
        self.outcomes.iter().filter_map(|o| o.job).collect()
    }

    /// Number of `429` rejections.
    pub fn rejected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == 429).count()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} clients: {} accepted, {} shed (429), {} other",
            self.outcomes.len(),
            self.accepted_jobs().len(),
            self.rejected(),
            self.outcomes
                .iter()
                .filter(|o| o.status != 202 && o.status != 429)
                .count()
        )
    }
}

/// Fires `clients` concurrent `POST /v1/campaigns` with the same
/// `config` body and collects every outcome. Threads are real: each
/// client opens its own connection, so queue contention is genuine.
pub fn submit_burst(addr: SocketAddr, config: &Json, clients: usize) -> LoadReport {
    let outcomes = fan_out(clients, |_| {
        match client::post_json(addr, "/v1/campaigns", config) {
            Ok(resp) => {
                let job = resp
                    .json()
                    .ok()
                    .and_then(|j| j.get("job").and_then(|v| v.as_f64()))
                    .map(|n| n as usize);
                let retry_after_secs = resp.header("retry-after").and_then(|v| v.parse().ok());
                SubmitOutcome {
                    status: resp.status,
                    job: if resp.status == 202 { job } else { None },
                    retry_after_secs,
                }
            }
            Err(_) => SubmitOutcome {
                status: 0,
                job: None,
                retry_after_secs: None,
            },
        }
    });
    LoadReport { outcomes }
}
