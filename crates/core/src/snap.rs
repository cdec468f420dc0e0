//! Versioned, byte-stable snapshots of simulation state.
//!
//! A snapshot is taken at a **cycle boundary**, where every transactional
//! cell is quiescent: no rule transaction is open, no `Reg` write is
//! waiting for its latch, every [`crate::cell::Wire`] has been cleared by
//! the end-of-cycle latch. At that point the entire observable state of a
//! design is the committed value of each cell plus whatever plain-data
//! state modules keep beside them. The cells need no code of their own:
//! [`crate::sim::Sim::save_kernel`] walks the clock's registry and writes
//! every cell's value, in adoption order, as one length-framed record —
//! which is why every cell constructor asks for a [`Snap`] value type.
//! The plain state is serialized through two small traits:
//!
//! * [`Snap`] — a by-value codec (`save`/`load → Self`) for plain data:
//!   entry structs, enums, messages, stats. Implemented via the
//!   [`crate::snap_struct!`] / [`crate::snap_enum!`] macros or by hand.
//! * [`Snapshot`] — an in-place codec (`snap_save`/`snap_restore(&mut
//!   self)`) for module structs that cannot be constructed from bytes alone
//!   (configuration and geometry are re-validated, not re-created).
//!   Implemented via [`crate::snapshot_fields!`] from one ordered list of
//!   the module's persisted fields.
//!
//! # Encoding
//!
//! Little-endian, fixed-width integers; containers are length-prefixed with
//! a `u64`. There is no self-description and no padding — the format is
//! defined by the sequence of `Snap`/`Snapshot` calls, and versioned as a
//! whole by the header ([`write_header`]/[`check_header`]). Any structural
//! change to serialized state must bump the format version at the save/
//! restore entry point. `HashMap`-backed state must be written in sorted
//! key order so that `save → restore → save` is byte-identical.
//!
//! # Determinism contract
//!
//! Restoring a snapshot and running `N` cycles is bit-identical (cycle
//! counts, perf counters, report bytes) to running the original simulation
//! through those same `N` cycles without interruption, under every
//! [`crate::sched::SchedulerMode`]. Scheduler sleep state is deliberately
//! *not* serialized: restore wakes every rule, and the sleep layer is
//! already proven observation-invariant by the equivalence suites. See
//! `docs/CHECKPOINT.md` for the full contract.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Magic number at the head of every snapshot file (`"CMDS"`).
pub const SNAP_MAGIC: u32 = 0x434D_4453;

/// Errors surfaced while decoding or applying a snapshot.
///
/// Restore paths return structured errors for every malformed input —
/// truncated bytes, wrong magic, version skew, mismatched topology — and
/// never panic on untrusted snapshot data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The leading magic number was not [`SNAP_MAGIC`]: not a snapshot.
    BadMagic,
    /// The snapshot was produced by a different format version.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The byte stream ended before the decoder was done.
    Truncated,
    /// A structurally invalid encoding (bad enum tag, impossible length),
    /// or a restored state no design can be in.
    Corrupt(String),
    /// The snapshot is well-formed but does not match the live design
    /// (different rule names, counter names, core count, or configuration).
    Mismatch(String),
    /// The simulation is in a state that cannot be snapshotted (e.g. chaos
    /// injection, a profiler, or a tracer is attached).
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic number)"),
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} does not match expected version {expected}"
            ),
            SnapError::Truncated => write!(f, "snapshot is truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            SnapError::Mismatch(what) => {
                write!(f, "snapshot does not match the live design: {what}")
            }
            SnapError::Unsupported(why) => write!(f, "state cannot be snapshotted: {why}"),
        }
    }
}

impl Error for SnapError {}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Byte-stream writer for snapshots: little-endian, fixed-width, no padding.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a container length as a `u64` prefix.
    pub fn len_prefix(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Writes raw bytes with no length prefix (the caller knows the width).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes any [`Snap`] value.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.save(self);
    }

    /// Writes what `f` writes as one length-framed record: a `u64` byte
    /// count, then the bytes.
    pub(crate) fn framed(&mut self, f: impl FnOnce(&mut SnapWriter)) {
        let at = self.buf.len();
        self.u64(0);
        f(self);
        let n = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&n.to_le_bytes());
    }
}

/// Byte-stream reader for snapshots; every accessor fails with
/// [`SnapError::Truncated`] on EOF instead of panicking.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes read so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take_slice(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at EOF.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take_slice(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at EOF.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let s = self.take_slice(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at EOF.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take_slice(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at EOF.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take_slice(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `bool` (one byte, must be 0 or 1).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at EOF, [`SnapError::Corrupt`] on any byte
    /// other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte is not 0 or 1".into())),
        }
    }

    /// Reads a container length prefix, sanity-checked against the bytes
    /// actually remaining (each element encodes to at least one byte, so a
    /// longer claim is necessarily corrupt or truncated).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the claimed length cannot possibly fit.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let n =
            usize::try_from(n).map_err(|_| SnapError::Corrupt("length overflows usize".into()))?;
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }

    /// Reads `n` raw bytes (no length prefix).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at EOF.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take_slice(n)
    }

    /// Reads any [`Snap`] value.
    ///
    /// # Errors
    ///
    /// Whatever `T`'s decoder reports.
    pub fn take<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load(self)
    }

    /// Asserts that the whole input was consumed — trailing garbage means
    /// the snapshot and the decoder disagree about the format.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after snapshot".into()))
        }
    }
}

/// Writes the snapshot header: [`SNAP_MAGIC`] then the format `version`.
pub fn write_header(w: &mut SnapWriter, version: u32) {
    w.u32(SNAP_MAGIC);
    w.u32(version);
}

/// Checks the snapshot header against `expected` version.
///
/// # Errors
///
/// [`SnapError::BadMagic`] or [`SnapError::VersionMismatch`].
pub fn check_header(r: &mut SnapReader<'_>, expected: u32) -> Result<(), SnapError> {
    if r.u32()? != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let found = r.u32()?;
    if found != expected {
        return Err(SnapError::VersionMismatch { found, expected });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Snap: by-value codec
// ---------------------------------------------------------------------------

/// A by-value snapshot codec: a type that can serialize itself and be
/// reconstructed from bytes alone.
///
/// Implement via [`crate::snap_struct!`] / [`crate::snap_enum!`] for plain data, or by
/// hand when some canonical encoding already exists (e.g. an instruction's
/// 32-bit encoding).
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] / [`SnapError::Corrupt`] on malformed input.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// An in-place snapshot codec for module structs: state is saved from and
/// restored into an already-constructed value (cells need a live clock;
/// configuration is validated rather than deserialized). Implement it with
/// [`crate::snapshot_fields!`].
pub trait Snapshot {
    /// Appends this module's architectural state to `w`.
    fn snap_save(&self, w: &mut SnapWriter);
    /// Restores this module's architectural state from `r`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] / [`SnapError::Corrupt`] on malformed
    /// input, [`SnapError::Mismatch`] if the encoded topology does not
    /// match `self`.
    fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

macro_rules! snap_prim {
    ($($t:ty => $get:ident),* $(,)?) => {
        $(
            impl Snap for $t {
                fn save(&self, w: &mut SnapWriter) {
                    w.$get(*self);
                }
                fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                    r.$get()
                }
            }
        )*
    };
}

snap_prim!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, bool => bool);

macro_rules! snap_signed {
    ($($t:ty as $u:ty => $get:ident),* $(,)?) => {
        $(
            impl Snap for $t {
                #[allow(clippy::cast_sign_loss)]
                fn save(&self, w: &mut SnapWriter) {
                    w.$get(*self as $u);
                }
                #[allow(clippy::cast_possible_wrap)]
                fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                    Ok(r.$get()? as $t)
                }
            }
        )*
    };
}

snap_signed!(i8 as u8 => u8, i16 as u16 => u16, i32 as u32 => u32, i64 as u64 => u64);

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.u64()?).map_err(|_| SnapError::Corrupt("usize overflows host".into()))
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        w.bytes(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let b = r.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("string is not UTF-8".into()))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapError::Corrupt("Option tag is not 0 or 1".into())),
        }
    }
}

impl<T: Snap, E: Snap> Snap for Result<T, E> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Ok(v) => {
                w.u8(0);
                v.save(w);
            }
            Err(e) => {
                w.u8(1);
                e.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Ok(T::load(r)?)),
            1 => Ok(Err(E::load(r)?)),
            _ => Err(SnapError::Corrupt("Result tag is not 0 or 1".into())),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::load(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Corrupt("array length".into()))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

// ---------------------------------------------------------------------------
// Derive-style macros
// ---------------------------------------------------------------------------

/// Implements [`Snap`] for a struct by listing **all** of its fields in
/// declaration order (tuple-struct indices work too: `snap_struct!(Tag {
/// 0 })`). Skipping a field is not expressible — write a manual impl when a
/// field must not be serialized.
///
/// ```
/// use cmd_core::snap_struct;
///
/// #[derive(PartialEq, Debug)]
/// struct Point {
///     x: u64,
///     y: u64,
/// }
/// snap_struct!(Point { x, y });
///
/// use cmd_core::snap::{Snap, SnapReader, SnapWriter};
/// let mut w = SnapWriter::new();
/// Point { x: 1, y: 2 }.save(&mut w);
/// let bytes = w.into_bytes();
/// let p = Point::load(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(p, Point { x: 1, y: 2 });
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($f:tt),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::save(&self.$f, w); )*
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self { $( $f: $crate::snap::Snap::load(r)? ),* })
            }
        }
    };
}

/// Implements [`Snap`] for an enum by assigning each variant an explicit
/// `u8` tag. Unit, struct, and tuple variants are supported; tags are part
/// of the on-disk format and must never be renumbered.
///
/// ```
/// use cmd_core::snap_enum;
///
/// #[derive(PartialEq, Debug)]
/// enum Msg {
///     Ping,
///     Data { addr: u64, len: u32 },
///     Pair(u8, u8),
/// }
/// snap_enum!(Msg {
///     0 => Ping,
///     1 => Data { addr, len },
///     2 => Pair(a, b),
/// });
///
/// use cmd_core::snap::{Snap, SnapReader, SnapWriter};
/// let mut w = SnapWriter::new();
/// Msg::Data { addr: 16, len: 4 }.save(&mut w);
/// let bytes = w.into_bytes();
/// let m = Msg::load(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(m, Msg::Data { addr: 16, len: 4 });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty {
        $( $tag:literal => $variant:ident
            $( { $($f:ident),* $(,)? } )?
            $( ( $($t:ident),* $(,)? ) )?
        ),* $(,)?
    }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(
                        Self::$variant $( { $($f),* } )? $( ( $($t),* ) )? => {
                            w.u8($tag);
                            $( $( $crate::snap::Snap::save($f, w); )* )?
                            $( $( $crate::snap::Snap::save($t, w); )* )?
                        }
                    )*
                }
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                match r.u8()? {
                    $(
                        $tag => Ok(Self::$variant
                            $( { $($f: $crate::snap::Snap::load(r)?),* } )?
                            // Rust evaluates call arguments left-to-right,
                            // so tuple fields decode in declaration order.
                            $( ( $( {
                                let _ = stringify!($t);
                                $crate::snap::Snap::load(r)?
                            } ),* ) )?
                        ),
                    )*
                    _ => Err($crate::snap::SnapError::Corrupt(concat!(
                        "bad variant tag for ",
                        stringify!($ty)
                    ).into())),
                }
            }
        }
    };
}

/// Implements [`Snapshot`] for a module from **one ordered list** of its
/// persisted fields: `snap_save` writes them in list order and
/// `snap_restore` reads them back in the same order, so the layout is
/// written down once. A field is a field name or a path through nested
/// structs (`devices.console`), optionally followed by a kind:
///
/// * *(none)* — a plain value, through [`Snap`];
/// * `module` — a module, restored in place through its own [`Snapshot`];
/// * `modules` — a `Vec` or `Option` of modules: their count, then each in
///   place; the count must equal the design's ([`SnapError::Mismatch`]);
/// * `same_len` — a table ([`Snap`] value with a `len`) whose length must
///   equal the design's ([`SnapError::Mismatch`]);
/// * `at_most(path)` — a queue or occupancy list no longer than the
///   capacity at `self.path` ([`SnapError::Mismatch`]).
///
/// Configuration and geometry stay in the built design: restore checks a
/// snapshot against them and never reads them from bytes. A module with
/// more to check names one post-restore function after the list,
/// `check path`, an `fn(&Self) -> Result<(), SnapError>`. Generic modules
/// write their bounds as `Type<T> where T: Bound`. With debug assertions
/// on, every restore asserts that re-saving the module reproduces exactly
/// the bytes it read.
///
/// ```
/// use cmd_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
/// use cmd_core::snapshot_fields;
///
/// struct Queue { slots: Vec<u64>, cap: usize }
/// snapshot_fields!(Queue { slots: at_most(cap) });
///
/// struct Unit { table: Vec<u8>, queue: Queue, ticks: u64 }
/// snapshot_fields!(Unit { table: same_len, queue: module, ticks });
///
/// let unit = |n| Unit { table: vec![0; n], queue: Queue { slots: vec![7], cap: 2 }, ticks: 3 };
/// let mut w = SnapWriter::new();
/// unit(4).snap_save(&mut w);
/// let bytes = w.into_bytes();
/// let mut fresh = Unit { ticks: 0, ..unit(4) };
/// fresh.snap_restore(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(fresh.ticks, 3);
/// let refused = unit(5).snap_restore(&mut SnapReader::new(&bytes));
/// assert!(matches!(refused, Err(SnapError::Mismatch(_))));
/// ```
#[macro_export]
macro_rules! snapshot_fields {
    (
        $ty:ty $(where $($g:ident: $bound:path),+)? {
            $( $($f:ident).+ $(: $kind:ident $( ($($cap:ident).+) )?)? ),* $(,)?
        }
        $(check $check:path)?
    ) => {
        impl<$($($g: $bound),+)?> $crate::snap::Snapshot for $ty {
            fn snap_save(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::__snapshot_field!(
                    save self w [$($kind $(($($cap).+))?)?] $($f).+
                ); )*
            }

            fn snap_restore(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let from = r.position();
                $( $crate::__snapshot_field!(
                    restore self r
                    concat!(stringify!($ty), ".", stringify!($($f).+)),
                    [$($kind $(($($cap).+))?)?] $($f).+
                ); )*
                $( $check(self)?; )?
                $crate::snap::debug_assert_resaves(self, r, from);
                Ok(())
            }
        }
    };
}

/// One field of a [`snapshot_fields!`] list: how it saves and restores.
#[doc(hidden)]
#[macro_export]
macro_rules! __snapshot_field {
    (save $s:tt $w:tt [module] $($f:ident).+) => {
        $crate::snap::Snapshot::snap_save(&$s.$($f).+, $w)
    };
    (save $s:tt $w:tt [modules] $($f:ident).+) => {
        $w.len_prefix($s.$($f).+.iter().len());
        for m in $s.$($f).+.iter() {
            $crate::snap::Snapshot::snap_save(m, $w);
        }
    };
    (save $s:tt $w:tt [$($rule:tt)*] $($f:ident).+) => {
        $crate::snap::Snap::save(&$s.$($f).+, $w)
    };
    (restore $s:tt $r:tt $what:expr, [] $($f:ident).+) => {
        $s.$($f).+ = $crate::snap::Snap::load($r)?
    };
    (restore $s:tt $r:tt $what:expr, [module] $($f:ident).+) => {
        $crate::snap::Snapshot::snap_restore(&mut $s.$($f).+, $r)?
    };
    (restore $s:tt $r:tt $what:expr, [modules] $($f:ident).+) => {
        $crate::snap::same_len($r.len_prefix()?, $s.$($f).+.iter().len(), $what)?;
        for m in $s.$($f).+.iter_mut() {
            $crate::snap::Snapshot::snap_restore(m, $r)?;
        }
    };
    (restore $s:tt $r:tt $what:expr, [same_len] $($f:ident).+) => {
        let v = $crate::snap::load_like(&$s.$($f).+, $r)?;
        $crate::snap::same_len(v.len(), $s.$($f).+.len(), $what)?;
        $s.$($f).+ = v
    };
    (restore $s:tt $r:tt $what:expr, [at_most($($cap:ident).+)] $($f:ident).+) => {
        let v = $crate::snap::load_like(&$s.$($f).+, $r)?;
        $crate::snap::at_most(v.len(), $s.$($cap).+, $what)?;
        $s.$($f).+ = v
    };
}

/// Decodes a value of `design`'s type (lets [`snapshot_fields!`] name a
/// field instead of its type).
#[doc(hidden)]
pub fn load_like<T: Snap>(_design: &T, r: &mut SnapReader<'_>) -> Result<T, SnapError> {
    T::load(r)
}

/// The first geometry rule: a table's length equals the design's.
///
/// # Errors
///
/// [`SnapError::Mismatch`] naming `what` when `found != design`.
#[doc(hidden)]
pub fn same_len(found: usize, design: usize, what: &str) -> Result<(), SnapError> {
    if found == design {
        Ok(())
    } else {
        Err(SnapError::Mismatch(format!(
            "snapshot {what} has {found} entries, design has {design}"
        )))
    }
}

/// The second geometry rule: a queue holds no more than its capacity.
///
/// # Errors
///
/// [`SnapError::Mismatch`] naming `what` when `found > cap`.
#[doc(hidden)]
pub fn at_most(found: usize, cap: usize, what: &str) -> Result<(), SnapError> {
    if found <= cap {
        Ok(())
    } else {
        Err(SnapError::Mismatch(format!(
            "snapshot {what} holds {found} entries, capacity is {cap}"
        )))
    }
}

/// With debug assertions on, asserts that re-saving `module` reproduces
/// exactly the bytes its restore read (from reader position `from`).
#[doc(hidden)]
pub fn debug_assert_resaves<T: Snapshot + ?Sized>(module: &T, r: &SnapReader<'_>, from: usize) {
    if cfg!(debug_assertions) {
        let mut w = SnapWriter::new();
        module.snap_save(&mut w);
        debug_assert!(
            w.buf == r.buf[from..r.pos],
            "a restored module re-saves differently from the bytes it read"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Ehr, Reg, Wire};
    use crate::clock::Clock;
    use crate::journal::{EhrArray, EhrDeque};

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapWriter::new();
        w.put(&0xAAu8);
        w.put(&0xBBCCu16);
        w.put(&0xDEAD_BEEFu32);
        w.put(&u64::MAX);
        w.put(&true);
        w.put(&(-5i64));
        w.put(&7usize);
        w.put(&String::from("hi"));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take::<u8>().unwrap(), 0xAA);
        assert_eq!(r.take::<u16>().unwrap(), 0xBBCC);
        assert_eq!(r.take::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take::<u64>().unwrap(), u64::MAX);
        assert!(r.take::<bool>().unwrap());
        assert_eq!(r.take::<i64>().unwrap(), -5);
        assert_eq!(r.take::<usize>().unwrap(), 7);
        assert_eq!(r.take::<String>().unwrap(), "hi");
        r.expect_end().unwrap();
    }

    #[test]
    fn containers_roundtrip() {
        let mut w = SnapWriter::new();
        w.put(&vec![1u64, 2, 3]);
        w.put(&Some(9u32));
        w.put(&Option::<u32>::None);
        w.put(&VecDeque::from([4u8, 5]));
        w.put(&[7u16, 8, 9]);
        w.put(&(1u8, 2u16, 3u32));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take::<Option<u32>>().unwrap(), Some(9));
        assert_eq!(r.take::<Option<u32>>().unwrap(), None);
        assert_eq!(r.take::<VecDeque<u8>>().unwrap(), VecDeque::from([4, 5]));
        assert_eq!(r.take::<[u16; 3]>().unwrap(), [7, 8, 9]);
        assert_eq!(r.take::<(u8, u16, u32)>().unwrap(), (1, 2, 3));
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.put(&vec![1u64, 2, 3]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(r.take::<Vec<u64>>().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn absurd_length_prefix_is_truncated_not_oom() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take::<Vec<u64>>(), Err(SnapError::Truncated));
    }

    #[test]
    fn header_checks() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 3);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        check_header(&mut r, 3).unwrap();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            check_header(&mut r, 4),
            Err(SnapError::VersionMismatch {
                found: 3,
                expected: 4
            })
        );
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        let mut r = SnapReader::new(&bad);
        assert_eq!(check_header(&mut r, 3), Err(SnapError::BadMagic));
    }

    type Cells = (Ehr<u64>, Reg<u64>, Wire<u8>, EhrArray<u16>, EhrDeque<u16>);

    /// One cell of every kind, holding values derived from `v`.
    fn cells(clk: &Clock, v: u16) -> Cells {
        let e = Ehr::new(clk, u64::from(v));
        let g = Reg::new(clk, u64::from(v) + 1);
        let wire = Wire::new(clk);
        let a = EhrArray::new(clk, vec![v; 3]);
        let q = EhrDeque::new(clk, 4);
        for k in 0..v % 4 {
            q.push_back(k);
        }
        (e, g, wire, a, q)
    }

    fn saved_cells(clk: &Clock) -> Vec<u8> {
        let mut w = SnapWriter::new();
        clk.save_cells(&mut w);
        w.into_bytes()
    }

    #[test]
    fn cells_restore_outside_rules() {
        let clk = Clock::new();
        let _ = cells(&clk, 3);
        let bytes = saved_cells(&clk);

        let clk2 = Clock::new();
        let (e, g, wire, a, q) = cells(&clk2, 0);
        let mut r = SnapReader::new(&bytes);
        clk2.restore_cells(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!((e.read(), g.read(), wire.peek()), (3, 4, None));
        assert_eq!(a.with(<[u16]>::to_vec), vec![3; 3]);
        assert_eq!(q.with(|q| q.iter().copied().collect::<Vec<_>>()), [0, 1, 2]);
        assert_eq!(saved_cells(&clk2), bytes, "save → restore → save");
    }

    #[test]
    fn cell_frames_refuse_what_the_live_cells_cannot_hold() {
        let clk = Clock::new();
        let _ = cells(&clk, 3);
        let bytes = saved_cells(&clk);
        let restore = |clk: &Clock, bytes: &[u8]| clk.restore_cells(&mut SnapReader::new(bytes));

        let longer = Clock::new();
        let (_, _, _, a, _) = cells(&longer, 0);
        a.replace(vec![0; 4]);
        assert!(
            matches!(restore(&longer, &bytes), Err(SnapError::Mismatch(m)) if m.starts_with("cell 3:"))
        );

        // Cell 0's frame (after the count) claims one byte more than its
        // record holds.
        let mut long_frame = bytes.clone();
        long_frame[8] += 1;
        long_frame.insert(16 + 8, 0);
        let fresh = Clock::new();
        let _ = cells(&fresh, 0);
        assert_eq!(
            restore(&fresh, &long_frame),
            Err(SnapError::Corrupt(
                "cell 0: record does not fill its frame".into()
            ))
        );
    }

    #[derive(PartialEq, Debug)]
    enum Toy {
        A,
        B { x: u64 },
        C(u8, u16),
    }
    snap_enum!(Toy { 0 => A, 1 => B { x }, 2 => C(a, b) });

    #[test]
    fn enum_macro_roundtrips_and_rejects_bad_tags() {
        for v in [Toy::A, Toy::B { x: 77 }, Toy::C(1, 2)] {
            let mut w = SnapWriter::new();
            v.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(Toy::load(&mut r).unwrap(), v);
            r.expect_end().unwrap();
        }
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(Toy::load(&mut r), Err(SnapError::Corrupt(_))));
    }
}
