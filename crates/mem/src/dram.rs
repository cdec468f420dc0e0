//! DRAM model: fixed latency, bounded outstanding requests, and a
//! line-per-N-cycles bandwidth limit (paper Fig. 12: 120-cycle latency, max
//! 24 requests, 12.8 GB/s at a 2 GHz clock ≈ one 64-byte line per 10
//! cycles).

use std::collections::VecDeque;

use riscy_isa::mem::SparseMem;

use crate::msg::{Line, LINE_BYTES};

/// Configuration of the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Access latency in cycles.
    pub latency: u64,
    /// Maximum outstanding requests.
    pub max_outstanding: usize,
    /// Minimum cycles between request issues (bandwidth limit).
    pub cycles_per_line: u64,
}

impl Default for DramConfig {
    /// The paper's memory system: 120 cycles, 24 requests, 12.8 GB/s.
    fn default() -> Self {
        DramConfig {
            latency: 120,
            max_outstanding: 24,
            cycles_per_line: 10,
        }
    }
}

/// A DRAM request.
#[derive(Debug, Clone)]
pub enum DramReq {
    /// Read the line at the (aligned) address.
    Read {
        /// line address
        line: u64,
    },
    /// Write the line.
    Write {
        /// line address
        line: u64,
        /// data to write
        data: Box<Line>,
    },
}

/// A completed DRAM read.
#[derive(Debug, Clone)]
pub struct DramResp {
    /// line address
    pub line: u64,
    /// line contents
    pub data: Box<Line>,
}

/// The DRAM controller model; backing data lives in a [`SparseMem`] supplied
/// at tick time.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    queue: VecDeque<DramReq>,
    inflight: VecDeque<(u64, DramReq)>,
    resps: VecDeque<DramResp>,
    next_issue: u64,
    /// Total reads served.
    pub reads: u64,
    /// Total writes served.
    pub writes: u64,
}

impl Dram {
    /// Creates a DRAM model.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            resps: VecDeque::new(),
            next_issue: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Whether a new request can be accepted.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queue.len() + self.inflight.len() < self.cfg.max_outstanding
    }

    /// Submits a request.
    ///
    /// # Errors
    ///
    /// Returns the request back when the outstanding limit is reached.
    pub fn request(&mut self, req: DramReq) -> Result<(), DramReq> {
        if !self.can_accept() {
            return Err(req);
        }
        debug_assert_eq!(
            match &req {
                DramReq::Read { line } | DramReq::Write { line, .. } => line % LINE_BYTES,
            },
            0
        );
        self.queue.push_back(req);
        Ok(())
    }

    /// Advances one cycle: issues at most one queued request (bandwidth) and
    /// completes arrived ones against `mem`.
    pub fn tick(&mut self, now: u64, mem: &mut SparseMem) {
        if now >= self.next_issue {
            if let Some(req) = self.queue.pop_front() {
                self.inflight.push_back((now + self.cfg.latency, req));
                self.next_issue = now + self.cfg.cycles_per_line;
            }
        }
        while matches!(self.inflight.front(), Some((t, _)) if *t <= now) {
            let (_, req) = self.inflight.pop_front().expect("checked");
            match req {
                DramReq::Read { line } => {
                    self.reads += 1;
                    self.resps.push_back(DramResp {
                        line,
                        data: Box::new(mem.read_line(line)),
                    });
                }
                DramReq::Write { line, data } => {
                    self.writes += 1;
                    mem.write_line(line, &data);
                }
            }
        }
    }

    /// The earliest cycle, at or after `now`, at which [`Dram::tick`] (or a
    /// pop) may change the controller: the next issue slot of a queued
    /// request, the head of the in-flight requests, `now` while a
    /// completed read waits; `u64::MAX` when idle.
    #[must_use]
    pub fn next_event(&self, now: u64) -> u64 {
        if !self.resps.is_empty() {
            return now;
        }
        let issue = if self.queue.is_empty() {
            u64::MAX
        } else {
            self.next_issue
        };
        let complete = self.inflight.front().map_or(u64::MAX, |(t, _)| *t);
        issue.min(complete).max(now)
    }

    /// Pops a completed read, if any.
    pub fn pop_resp(&mut self) -> Option<DramResp> {
        self.resps.pop_front()
    }
}

cmd_core::snap_enum!(DramReq {
    0 => Read { line },
    1 => Write { line, data },
});

cmd_core::snap_struct!(DramResp { line, data });

cmd_core::snapshot_fields!(Dram {
    queue,
    inflight,
    resps,
    next_issue,
    reads,
    writes,
});

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::mem::DRAM_BASE;

    #[test]
    fn read_latency_modeled() {
        let mut mem = SparseMem::new();
        mem.write_u64(DRAM_BASE, 0x42);
        let mut d = Dram::new(DramConfig {
            latency: 10,
            max_outstanding: 4,
            cycles_per_line: 1,
        });
        d.request(DramReq::Read { line: DRAM_BASE }).unwrap();
        for now in 0..10 {
            d.tick(now, &mut mem);
            assert!(d.pop_resp().is_none(), "too early at {now}");
        }
        d.tick(10, &mut mem);
        let r = d.pop_resp().expect("arrived");
        assert_eq!(r.line, DRAM_BASE);
        assert_eq!(r.data[0], 0x42);
    }

    #[test]
    fn bandwidth_limits_issue_rate() {
        let mut mem = SparseMem::new();
        let mut d = Dram::new(DramConfig {
            latency: 5,
            max_outstanding: 8,
            cycles_per_line: 10,
        });
        for i in 0..3 {
            d.request(DramReq::Read {
                line: DRAM_BASE + 64 * i,
            })
            .unwrap();
        }
        let mut completion_times = Vec::new();
        for now in 0..60 {
            d.tick(now, &mut mem);
            if d.pop_resp().is_some() {
                completion_times.push(now);
            }
        }
        assert_eq!(completion_times.len(), 3);
        assert!(completion_times[1] - completion_times[0] >= 10);
        assert!(completion_times[2] - completion_times[1] >= 10);
    }

    #[test]
    fn outstanding_limit_enforced() {
        let mut d = Dram::new(DramConfig {
            latency: 100,
            max_outstanding: 2,
            cycles_per_line: 1,
        });
        d.request(DramReq::Read { line: 0 }).unwrap();
        d.request(DramReq::Read { line: 64 }).unwrap();
        assert!(d.request(DramReq::Read { line: 128 }).is_err());
    }

    #[test]
    fn writes_reach_memory() {
        let mut mem = SparseMem::new();
        let mut d = Dram::new(DramConfig {
            latency: 1,
            max_outstanding: 4,
            cycles_per_line: 1,
        });
        let mut data = Box::new([0u8; 64]);
        data[7] = 0xaa;
        d.request(DramReq::Write {
            line: DRAM_BASE,
            data,
        })
        .unwrap();
        for now in 0..3 {
            d.tick(now, &mut mem);
        }
        assert_eq!(mem.read_u8(DRAM_BASE + 7), 0xaa);
    }
}
