//! Architectural general-purpose registers.

use std::fmt;

/// One of the 32 RV64 integer registers. `x0` is hard-wired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gpr(u8);

impl Gpr {
    /// The always-zero register.
    pub const ZERO: Gpr = Gpr(0);
    /// Return address (`x1`).
    pub const RA: Gpr = Gpr(1);
    /// Stack pointer (`x2`).
    pub const SP: Gpr = Gpr(2);
    /// Global pointer (`x3`).
    pub const GP: Gpr = Gpr(3);
    /// Thread pointer (`x4`).
    pub const TP: Gpr = Gpr(4);

    /// Constructs `x<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub const fn new(n: u8) -> Self {
        assert!(n < 32, "register index out of range");
        Gpr(n)
    }

    /// Temporary register `t<n>` (t0–t6).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 7`.
    #[must_use]
    pub const fn t(n: u8) -> Self {
        assert!(n < 7, "only t0-t6 exist");
        if n < 3 {
            Gpr(5 + n)
        } else {
            Gpr(28 + n - 3)
        }
    }

    /// Argument register `a<n>` (a0–a7).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    #[must_use]
    pub const fn a(n: u8) -> Self {
        assert!(n < 8, "only a0-a7 exist");
        Gpr(10 + n)
    }

    /// Saved register `s<n>` (s0–s11).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 12`.
    #[must_use]
    pub const fn s(n: u8) -> Self {
        assert!(n < 12, "only s0-s11 exist");
        if n < 2 {
            Gpr(8 + n)
        } else {
            Gpr(16 + n)
        }
    }

    /// The raw index 0–31.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is `x0`.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl From<Gpr> for u32 {
    fn from(g: Gpr) -> u32 {
        u32::from(g.0)
    }
}

impl cmd_core::snap::Snap for Gpr {
    fn save(&self, w: &mut cmd_core::snap::SnapWriter) {
        w.u8(self.0);
    }

    fn load(r: &mut cmd_core::snap::SnapReader<'_>) -> Result<Self, cmd_core::snap::SnapError> {
        let n = r.u8()?;
        if n < 32 {
            Ok(Gpr(n))
        } else {
            Err(cmd_core::snap::SnapError::Corrupt(
                "register index out of range".into(),
            ))
        }
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        f.write_str(NAMES[self.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_aliases_map_correctly() {
        assert_eq!(Gpr::t(0).index(), 5);
        assert_eq!(Gpr::t(2).index(), 7);
        assert_eq!(Gpr::t(3).index(), 28);
        assert_eq!(Gpr::t(6).index(), 31);
        assert_eq!(Gpr::a(0).index(), 10);
        assert_eq!(Gpr::a(7).index(), 17);
        assert_eq!(Gpr::s(0).index(), 8);
        assert_eq!(Gpr::s(1).index(), 9);
        assert_eq!(Gpr::s(2).index(), 18);
        assert_eq!(Gpr::s(11).index(), 27);
    }

    #[test]
    fn display_uses_abi_names() {
        assert_eq!(Gpr::ZERO.to_string(), "zero");
        assert_eq!(Gpr::a(0).to_string(), "a0");
        assert_eq!(Gpr::new(31).to_string(), "t6");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = Gpr::new(32);
    }
}
