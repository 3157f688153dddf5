//! Open-loop load generation: requests go out on a fixed schedule,
//! whether or not earlier ones have been answered, and each is timed from
//! when it was due.

use std::time::{Duration, Instant};

/// One request of an open loop.
#[derive(Debug)]
pub struct Sent<H> {
    /// Seconds after the loop started at which the request was due.
    pub due: f64,
    /// Seconds after the loop started at which it was actually sent.
    pub sent: f64,
    /// What the submit call returned; `None` = refused.
    pub handle: Option<H>,
}

impl<H> Sent<H> {
    /// How late the generator sent this request.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Latency timed from the due time: the generator's lag plus
    /// `served_s`, the server's submit-to-answer seconds. A refused or
    /// failed request (`None`) is a miss: infinite latency.
    pub fn latency(&self, served_s: Option<f64>) -> f64 {
        match (&self.handle, served_s) {
            (Some(_), Some(s)) => self.lag() + s,
            _ => f64::INFINITY,
        }
    }
}

/// Send `count` requests at `rate` per second: request `k` is due
/// `k / rate` seconds after the start and is sent as soon after that as
/// the generator can. A slow `submit` delays later sends, which their
/// due-time latency then includes.
pub fn open_loop<H>(
    count: usize,
    rate: f64,
    mut submit: impl FnMut(usize) -> Option<H>,
) -> Vec<Sent<H>> {
    let t0 = Instant::now();
    (0..count)
        .map(|k| {
            let due = k as f64 / rate;
            let now = t0.elapsed().as_secs_f64();
            if now < due {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let sent = t0.elapsed().as_secs_f64();
            Sent { due, sent, handle: submit(k) }
        })
        .collect()
}
