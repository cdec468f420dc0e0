//! The kernel half of a checkpoint: cycle counts, per-rule statistics, the
//! telemetry ring and the committed value of every cell on the clock (see
//! `docs/CHECKPOINT.md`).

use super::{settle_sleep, RuleStats, Sim};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::telemetry::Telemetry;

impl<S> Sim<S> {
    /// Whether the kernel is in a snapshottable configuration.
    ///
    /// Chaos injection, tracing and profiling all carry observer state
    /// this codec does not serialize (and chaos perturbs
    /// the run itself), so snapshots are refused while any is attached
    /// rather than silently producing a checkpoint that would not resume
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] naming the offending attachment.
    pub fn snapshot_supported(&self) -> Result<(), SnapError> {
        if self.chaos.is_some() {
            return Err(SnapError::Unsupported("chaos fault injection is attached"));
        }
        if self.tracer.is_enabled() {
            return Err(SnapError::Unsupported("a tracer is attached"));
        }
        if self.prof.is_some() {
            return Err(SnapError::Unsupported("the profiler is enabled"));
        }
        Ok(())
    }

    /// Saves the kernel's observable state — cycle counts, per-rule firing
    /// statistics, the telemetry ring — and then every cell of the design,
    /// at a cycle boundary: the cell count, then one length-framed record
    /// per cell in adoption order.
    ///
    /// Scheduler sleep state is *not* saved: any unsettled batched sleep
    /// deficit is settled into the statistics first (so the bytes are
    /// exact), and [`Sim::restore_kernel`] wakes every rule. The sleep
    /// layer is observation-invariant (see `docs/SCHEDULING.md`), so a
    /// resumed run re-derives it without disturbing results.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] per [`Sim::snapshot_supported`].
    pub fn save_kernel(&mut self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.snapshot_supported()?;
        let now = self.clk.cycle();
        for e in &mut self.rules {
            settle_sleep(e, now);
        }
        w.u64(self.cycles);
        w.u64(now);
        w.u64(self.quiet_cycles);
        w.len_prefix(self.rules.len());
        for e in &self.rules {
            e.name.save(w);
            w.u64(e.stats.fired);
            w.u64(e.stats.guard_stalls);
            w.u64(e.stats.cm_stalls);
        }
        // Telemetry, unlike the other instruments, IS serialized: its ring
        // holds only simulated quantities, so a resumed run continues the
        // series exactly (in-flight partial windows included).
        match self.tel.as_deref() {
            Some(t) => {
                true.save(w);
                t.save(w);
            }
            None => false.save(w),
        }
        self.clk.save_cells(w);
        Ok(())
    }

    /// Restores kernel state saved by [`Sim::save_kernel`] into a freshly
    /// constructed design with the same rule schedule and cells.
    ///
    /// All rules wake and the wakeup layer restarts from a clean slate —
    /// the same template scheduler switching uses, already proven
    /// observation-invariant.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] if the snapshot's rule schedule, telemetry
    /// columns, cell count or array lengths differ from this design's; [`SnapError::Truncated`] / [`SnapError::Corrupt`] on
    /// malformed bytes, naming the cell whose record does not fill its
    /// frame.
    /// On error the kernel may be partially restored and must be discarded.
    pub fn restore_kernel(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snapshot_supported()?;
        let cycles = r.u64()?;
        let clk_cycle = r.u64()?;
        let quiet = r.u64()?;
        let n = r.len_prefix()?;
        if n != self.rules.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n} rules, design has {}",
                self.rules.len()
            )));
        }
        let mut stats = Vec::with_capacity(n);
        for e in &self.rules {
            let name = String::load(r)?;
            if name != e.name {
                return Err(SnapError::Mismatch(format!(
                    "snapshot rule `{name}` does not match design rule `{}`",
                    e.name
                )));
            }
            stats.push(RuleStats {
                fired: r.u64()?,
                guard_stalls: r.u64()?,
                cm_stalls: r.u64()?,
            });
        }
        let had_tel = bool::load(r)?;
        match (had_tel, self.tel.is_some()) {
            (false, false) => {}
            (true, true) => {
                let loaded = Telemetry::load(r)?;
                // The ring is positional: a snapshot whose frozen columns
                // are not the ones this design samples (an older build, a
                // different tap) must be refused here, not at the next
                // window boundary.
                let snap = loaded.columns();
                if !snap.is_empty() {
                    let here = self.telemetry_columns();
                    let here: Vec<&String> = here.iter().map(|(n, _)| n).collect();
                    let n = snap.len().max(here.len());
                    if let Some(i) = (0..n).find(|&i| snap.get(i) != here.get(i).copied()) {
                        return Err(SnapError::Mismatch(format!(
                            "telemetry column {i} differs: snapshot has {:?}, this design samples {:?}",
                            snap.get(i),
                            here.get(i),
                        )));
                    }
                }
                self.tel
                    .as_mut()
                    .expect("telemetry enabled")
                    .adopt(loaded)?;
            }
            (true, false) => {
                return Err(SnapError::Mismatch(
                    "snapshot carries telemetry but telemetry is not enabled here".into(),
                ));
            }
            (false, true) => {
                return Err(SnapError::Mismatch(
                    "telemetry is enabled but the snapshot carries none".into(),
                ));
            }
        }
        self.clk.restore_cells(r)?;
        // Wake everything *before* overwriting stats: clearing a live sleep
        // settles its deficit into the old stats, which are discarded next.
        for i in 0..self.rules.len() {
            self.clear_sleep(i);
        }
        for (e, s) in self.rules.iter_mut().zip(stats) {
            e.stats = s;
            e.last_wait = None;
        }
        self.cycles = cycles;
        self.quiet_cycles = quiet;
        self.clk.restore_cycle(clk_cycle);
        self.last_violation = None;
        Ok(())
    }
}
