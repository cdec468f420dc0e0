//! The kernel half of a checkpoint: cycle counts, per-rule statistics, the
//! telemetry ring and the committed value of every cell on the clock (see
//! `docs/CHECKPOINT.md`).

use super::Sim;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::telemetry::Telemetry;

impl<S> Sim<S> {
    /// Saves the kernel's observable state — cycle counts, per-rule firing
    /// statistics, the telemetry ring — and then every cell of the design,
    /// at a cycle boundary: the cell count, then one length-framed record
    /// per cell in adoption order.
    ///
    /// Scheduler sleep state is *not* saved: [`Sim::restore_kernel`] wakes
    /// every rule. The sleep layer is observation-invariant (see
    /// `docs/SCHEDULING.md`), so a resumed run re-derives it without
    /// disturbing results. Observers (a tracer, the profiler) are not saved
    /// either: a restore leaves them as they are, so they record from the
    /// restored cycle on. An attached chaos engine's fault log is saved by
    /// the caller, beside the design's own state
    /// ([`FaultEngine::restore_log`](crate::chaos::FaultEngine::restore_log)).
    pub fn save_kernel(&self, w: &mut SnapWriter) {
        w.u64(self.cycles);
        w.u64(self.clk.cycle());
        w.u64(self.quiet_cycles);
        w.len_prefix(self.rules.len());
        for e in &self.rules {
            e.name.save(w);
            let stats = e.stats(self.cycles);
            w.u64(stats.fired);
            w.u64(stats.guard_stalls);
            w.u64(stats.cm_stalls);
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
    /// columns, cell count or array lengths differ from this design's;
    /// [`SnapError::Truncated`] / [`SnapError::Corrupt`] on malformed bytes,
    /// naming the cell whose record does not fill its frame, or the rule
    /// whose statistics claim more outcomes than the snapshot has cycles.
    /// On error the kernel may be partially restored and must be discarded.
    pub fn restore_kernel(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
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
        let mut counts = Vec::with_capacity(n);
        for e in &self.rules {
            let name = String::load(r)?;
            if name != e.name {
                return Err(SnapError::Mismatch(format!(
                    "snapshot rule `{name}` does not match design rule `{}`",
                    e.name
                )));
            }
            let (fired, guard_stalls, cm_stalls) = (r.u64()?, r.u64()?, r.u64()?);
            // One outcome per cycle: the rule was registered as many cycles
            // before the snapshot as it has outcomes.
            let born = [fired, guard_stalls, cm_stalls]
                .into_iter()
                .try_fold(cycles, u64::checked_sub)
                .ok_or_else(|| {
                    SnapError::Corrupt(format!(
                        "rule `{name}` claims more outcomes than the snapshot's {cycles} cycles"
                    ))
                })?;
            counts.push((fired, cm_stalls, born));
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
        for i in 0..self.rules.len() {
            self.clear_sleep(i);
        }
        for (e, (fired, cm_stalls, born)) in self.rules.iter_mut().zip(counts) {
            e.fired = fired;
            e.cm_stalls = cm_stalls;
            e.born = born;
            e.last_wait = None;
        }
        self.cycles = cycles;
        self.quiet_cycles = quiet;
        self.clk.restore_cycle(clk_cycle);
        self.last_violation = None;
        Ok(())
    }
}
