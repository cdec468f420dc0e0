//! Coherence-protocol and cache-interface message types.
//!
//! The protocol is the directory-based MSI of the paper (§V-D, the protocol
//! formally verified by Vijayaraghavan et al.): child L1 caches hold lines
//! in M/S/I; the inclusive shared L2 is the parent and keeps a directory of
//! sharers and owners.

/// A 64-byte cache line of data.
pub type Line = [u8; 64];

/// Bytes per cache line.
pub const LINE_BYTES: u64 = 64;

/// The line-aligned address containing `addr`.
#[must_use]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Stable states of a line in a child (L1) cache. `E` (exclusive-clean)
/// exists only when the parent runs the MESI extension (paper §V-D: "it
/// should not be difficult to extend the MSI protocol to a MESI
/// protocol"); under plain MSI it is never granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Msi {
    /// Invalid.
    #[default]
    I,
    /// Shared (read-only).
    S,
    /// Exclusive (sole clean copy; may be silently upgraded to M).
    E,
    /// Modified (exclusive, dirty).
    M,
}

/// Requests from an L1 (child) to the L2 (parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildReq {
    /// Request the line in S (read permission).
    GetS {
        /// requesting child id
        child: usize,
        /// line address
        line: u64,
    },
    /// Request the line in M (write permission).
    GetM {
        /// requesting child id
        child: usize,
        /// line address
        line: u64,
    },
}

impl ChildReq {
    /// The line this request concerns.
    #[must_use]
    pub fn line(&self) -> u64 {
        match *self {
            ChildReq::GetS { line, .. } | ChildReq::GetM { line, .. } => line,
        }
    }

    /// The requesting child.
    #[must_use]
    pub fn child(&self) -> usize {
        match *self {
            ChildReq::GetS { child, .. } | ChildReq::GetM { child, .. } => child,
        }
    }

    /// Whether this asks for M.
    #[must_use]
    pub fn wants_m(&self) -> bool {
        matches!(self, ChildReq::GetM { .. })
    }
}

/// Unsolicited messages from an L1 to the L2 (no response expected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildToParent {
    /// Voluntary writeback of a modified line (eviction).
    PutM {
        /// evicting child
        child: usize,
        /// line address
        line: u64,
        /// the dirty data
        data: Box<Line>,
    },
    /// Response to a downgrade request; carries data if the line was M.
    DownAck {
        /// acknowledging child
        child: usize,
        /// line address
        line: u64,
        /// dirty data when downgrading from M
        data: Option<Box<Line>>,
        /// the state the child now holds
        to: Msi,
    },
}

/// Downgrade requests from the L2 to an L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownReq {
    /// line address
    pub line: u64,
    /// the maximum state the child may keep (S or I)
    pub to: Msi,
}

/// Response from the L2 granting a child request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentResp {
    /// line address
    pub line: u64,
    /// granted state (S or M)
    pub state: Msi,
    /// line data
    pub data: Box<Line>,
}

/// Core-side request to the L1 data cache (paper §V-B "L1 D Cache" methods).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreReq {
    /// Load `bytes` at `addr`; `tag` identifies the LQ entry.
    Ld {
        /// client tag (load-queue index)
        tag: u32,
        /// physical byte address
        addr: u64,
        /// access size in bytes (1/2/4/8)
        bytes: u8,
    },
    /// Acquire M for the line; `sb_idx` identifies the store-buffer entry.
    St {
        /// store-buffer index
        sb_idx: u32,
        /// line address
        line: u64,
    },
    /// Atomic op at commit: load-reserve, store-conditional, or AMO.
    Atomic {
        /// client tag
        tag: u32,
        /// physical byte address
        addr: u64,
        /// access size in bytes (4/8)
        bytes: u8,
        /// the operation
        op: AtomicOp,
    },
}

/// The atomic operations the L1 D executes at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// Load-reserve: load and set the reservation.
    Lr,
    /// Store-conditional of the value; responds 0 on success, 1 on failure.
    Sc(u64),
    /// Read-modify-write; the closure index selects the ALU op in the
    /// client (value computed by the cache using `riscy_isa::interp::amo_exec`).
    Amo(riscy_isa::inst::AmoOp, u64),
}

/// L1 D cache responses to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreResp {
    /// Load data (zero-extended raw bytes).
    Ld {
        /// client tag
        tag: u32,
        /// raw little-endian value
        data: u64,
    },
    /// The line for this store-buffer entry is now in M and locked until
    /// `write_data` (paper: `respSt`).
    St {
        /// store-buffer index
        sb_idx: u32,
    },
    /// Atomic op completed.
    Atomic {
        /// client tag
        tag: u32,
        /// result (old value for AMO/LR; 0/1 for SC)
        data: u64,
    },
}

/// Statistics kept by each cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that hit.
    pub hits: u64,
    /// Requests that missed.
    pub misses: u64,
    /// Lines written back.
    pub writebacks: u64,
    /// Downgrades received (L1) or issued (L2).
    pub downgrades: u64,
}

impl CacheStats {
    /// Total requests observed (hits + misses).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Misses per access, or 0 when idle.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

cmd_core::snap_enum!(Msi {
    0 => I,
    1 => S,
    2 => E,
    3 => M,
});

cmd_core::snap_enum!(ChildReq {
    0 => GetS { child, line },
    1 => GetM { child, line },
});

cmd_core::snap_enum!(ChildToParent {
    0 => PutM { child, line, data },
    1 => DownAck { child, line, data, to },
});

cmd_core::snap_struct!(DownReq { line, to });

cmd_core::snap_struct!(ParentResp { line, state, data });

cmd_core::snap_enum!(CoreReq {
    0 => Ld { tag, addr, bytes },
    1 => St { sb_idx, line },
    2 => Atomic { tag, addr, bytes, op },
});

cmd_core::snap_enum!(AtomicOp {
    0 => Lr,
    1 => Sc(v),
    2 => Amo(op, v),
});

cmd_core::snap_enum!(CoreResp {
    0 => Ld { tag, data },
    1 => St { sb_idx },
    2 => Atomic { tag, data },
});

cmd_core::snap_struct!(CacheStats {
    hits,
    misses,
    writebacks,
    downgrades,
});

cmd_core::snap_enum!(ParentToChild {
    0 => Grant(g),
    1 => Down(d),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        assert_eq!(line_of(0x1234), 0x1200);
        assert_eq!(line_of(0x1240), 0x1240);
        assert_eq!(line_of(0x123f), 0x1200);
    }

    #[test]
    fn child_req_accessors() {
        let r = ChildReq::GetM {
            child: 2,
            line: 0x80,
        };
        assert_eq!(r.line(), 0x80);
        assert_eq!(r.child(), 2);
        assert!(r.wants_m());
        assert!(!ChildReq::GetS { child: 0, line: 0 }.wants_m());
    }

    #[test]
    fn miss_rate_computation() {
        let s = CacheStats {
            hits: 90,
            misses: 10,
            ..CacheStats::default()
        };
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}

/// A message from the parent to a child, carried on a single *ordered*
/// channel per child: a downgrade sent after a grant must not overtake it,
/// or two children could transiently both hold M (the classic protocol
/// race the verified-protocol structure forbids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParentToChild {
    /// A grant for an outstanding GetS/GetM.
    Grant(ParentResp),
    /// A downgrade request.
    Down(DownReq),
}
